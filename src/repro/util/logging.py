"""Structured logging helpers.

The library never configures the root logger; it only creates namespaced
child loggers so applications keep control of handlers and levels.
"""

from __future__ import annotations

import logging

_ROOT_NAME = "repro"


def get_logger(name: str | None = None) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    ``get_logger("core.engine")`` returns ``logging.getLogger("repro.core.engine")``.
    """
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
