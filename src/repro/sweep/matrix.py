"""Declarative scenario matrices: axes, argument products, filters, cell keys.

A :class:`ScenarioMatrix` names a set of :class:`Axis` objects; its cells are
the full argument product of the axis values (snippet-3 style
``_argument_product``), each cell a plain ``{axis name: value}`` dict.  Cells
are **content-addressed**: :func:`cell_key` hashes the canonical JSON of the
parameter dict, so the same cell always lands in the same result file no
matter which sweep invocation (or resume) produced it, and a completed cell
can be recognised and skipped across interrupted runs.

Filters narrow a matrix without ever leaving its parameter space:
``include``/``exclude`` are ``{axis: {values}}`` mappings matched against the
string form of each cell's value, so they compose cleanly with CLI flags like
``--include config=40B@1 --exclude engine="MLP-Offload"``.  A filtered cell
set is always a subset of the full product — the property tests pin that
down (no duplicates, no out-of-space cells, count = product of axis lengths
when unfiltered).

The registry at the bottom holds the paper's experiment axes — one matrix
per simulated figure family (Figures 7–15; the ablation rungs come from
:mod:`repro.zero.variants`) — plus one real-engine matrix exercising the
functional trainer across codec × coordination knobs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.zero.variants import ABLATION_LADDER_MULTIPATH, ABLATION_LADDER_NVME, AblationVariant

#: Axis values are JSON scalars so cells stay CLI-addressable and hashable.
AxisValue = "str | int | float | bool"
Cell = Dict[str, object]
#: ``{axis name: set of string forms}`` — the filter shape used by the CLI.
Filter = Mapping[str, Iterable[str]]


class MatrixError(ValueError):
    """Raised for malformed axes, unknown matrices and bad filters."""


@dataclass(frozen=True)
class Axis:
    """One named parameter axis of a scenario matrix."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise MatrixError(f"axis name {self.name!r} is not a simple identifier")
        if not self.values:
            raise MatrixError(f"axis {self.name!r} has no values")
        for value in self.values:
            if not isinstance(value, (str, int, float, bool)):
                raise MatrixError(f"axis {self.name!r} value {value!r} is not a JSON scalar")
        if len({str(v) for v in self.values}) != len(self.values):
            raise MatrixError(f"axis {self.name!r} has duplicate values")


def cell_key(params: Mapping[str, object]) -> str:
    """Content address of one cell: stable across dict ordering and runs.

    The key is the 128-bit BLAKE2b digest of the canonical JSON encoding
    (sorted keys, minimal separators) of the parameter dict — two dicts with
    the same items in any insertion order produce the same key, and any
    differing item produces a different one.
    """
    canonical = json.dumps(dict(params), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def _normalize_filter(spec: Optional[Filter]) -> Dict[str, set]:
    if not spec:
        return {}
    return {axis: {str(v) for v in values} for axis, values in spec.items()}


@dataclass(frozen=True)
class ScenarioMatrix:
    """A named argument product over scenario axes.

    ``kind`` selects the executor: ``"sim"`` cells run through
    :mod:`repro.sim` (deterministic analytical figures), ``"engine"`` cells
    drive a small :class:`~repro.train.trainer.FunctionalTrainer` on real
    storage (measured wall times plus bitwise correctness checks).
    """

    name: str
    kind: str
    axes: Tuple[Axis, ...]
    description: str = ""
    fixed: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("sim", "engine"):
            raise MatrixError(f"matrix {self.name!r}: unknown kind {self.kind!r}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise MatrixError(f"matrix {self.name!r} has duplicate axis names")
        overlap = set(names) & set(self.fixed)
        if overlap:
            raise MatrixError(f"matrix {self.name!r}: fixed keys shadow axes {overlap}")

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    def cell_count(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def cells(
        self,
        *,
        include: Optional[Filter] = None,
        exclude: Optional[Filter] = None,
    ) -> List[Cell]:
        """The (filtered) argument product, in axis-major order.

        The first axis varies slowest — the order the paper's figures list
        their configurations in, which the figure ports rely on.
        """
        inc = _normalize_filter(include)
        exc = _normalize_filter(exclude)
        for spec, label in ((inc, "include"), (exc, "exclude")):
            unknown = set(spec) - set(self.axis_names)
            if unknown:
                raise MatrixError(
                    f"matrix {self.name!r}: {label} filter names unknown axes {sorted(unknown)}"
                )
        cells: List[Cell] = [dict(self.fixed)]
        for axis in self.axes:
            cells = [{**cell, axis.name: value} for cell in cells for value in axis.values]
        selected: List[Cell] = []
        for cell in cells:
            keep = all(str(cell[axis]) in values for axis, values in inc.items())
            if keep and any(str(cell[axis]) in values for axis, values in exc.items()):
                keep = False
            if keep:
                selected.append(cell)
        return selected


def campaign_sample(cells: Sequence[Cell], count: int, seed: int) -> List[Cell]:
    """A seeded sample of ``count`` cells, kept in matrix order.

    The same ``(cells, count, seed)`` always selects the same cells — the CI
    campaign replays one fixed slice of the matrix per run, mirroring the
    fault-campaign pattern of the crash matrix.
    """
    if count <= 0:
        raise MatrixError("campaign sample size must be positive")
    if count >= len(cells):
        return list(cells)
    picked = random.Random(seed).sample(range(len(cells)), count)
    return [cells[index] for index in sorted(picked)]


def parse_filter_args(specs: Sequence[str]) -> Dict[str, List[str]]:
    """``["axis=v1,v2", "axis=v3"]`` → ``{"axis": ["v1", "v2", "v3"]}`` (CLI shape)."""
    parsed: Dict[str, List[str]] = {}
    for spec in specs:
        axis, sep, raw = spec.partition("=")
        if not sep or not axis or not raw:
            raise MatrixError(f"bad filter {spec!r}; expected axis=value[,value...]")
        parsed.setdefault(axis, []).extend(v for v in raw.split(",") if v)
    return parsed


# ---------------------------------------------------------------------------
# Built-in matrices — the paper's performance axes plus a real-engine sweep
# ---------------------------------------------------------------------------

#: The two engines every simulated figure compares.
ENGINE_AXIS = Axis("engine", ("DeepSpeed ZeRO-3", "MLP-Offload"))

#: Weak-scaling points encoded as ``<model>@<nodes>`` (Figures 11/12).
WEAK_SCALING_CONFIGS = ("40B@1", "70B@2", "100B@3", "130B@4", "280B@8")


def _ladder_axis(ladder: Sequence[AblationVariant]) -> Axis:
    """An ablation ladder's rungs, in ladder order, as a ``variant`` axis."""
    return Axis("variant", tuple(rung.label for rung in ladder))


def _builtin_matrices() -> Dict[str, ScenarioMatrix]:
    matrices = (
        ScenarioMatrix(
            name="model_size",
            kind="sim",
            description="Single-node model-size scaling on Testbed-1 (Figures 7-10)",
            axes=(
                Axis("model", ("40B", "52B", "70B", "100B", "120B")),
                ENGINE_AXIS,
            ),
            fixed={"testbed": "testbed-1"},
        ),
        ScenarioMatrix(
            name="weak_scaling",
            kind="sim",
            description="Model size grown with node count on Testbed-2 (Figures 11/12)",
            axes=(
                Axis("config", WEAK_SCALING_CONFIGS),
                ENGINE_AXIS,
            ),
            fixed={"testbed": "testbed-2"},
        ),
        ScenarioMatrix(
            name="batch_size",
            kind="sim",
            description="Gradient accumulation on the 40B model (Figure 13)",
            axes=(
                Axis("batch_size", (32, 128, 256, 512)),
                ENGINE_AXIS,
            ),
            fixed={"testbed": "testbed-1", "model": "40B", "micro_batch_size": 8},
        ),
        ScenarioMatrix(
            name="ablation_nvme",
            kind="sim",
            description="Progressive design-principle activation, NVMe only (Figure 14)",
            axes=(
                Axis("model", ("40B", "70B", "100B")),
                _ladder_axis(ABLATION_LADDER_NVME),
            ),
            fixed={"testbed": "testbed-1", "ladder": "nvme"},
        ),
        ScenarioMatrix(
            name="ablation_multipath",
            kind="sim",
            description="Progressive activation with the PFS active (Figure 15)",
            axes=(
                Axis("model", ("40B", "70B", "100B")),
                _ladder_axis(ABLATION_LADDER_MULTIPATH),
            ),
            fixed={"testbed": "testbed-1", "ladder": "multipath"},
        ),
        ScenarioMatrix(
            name="engine_smoke",
            kind="engine",
            description=(
                "Real FunctionalTrainer cells: codec x checkpoint coordination, "
                "with bitwise reference + restore checks"
            ),
            axes=(
                Axis("codec", ("raw", "null", "shuffle-deflate")),
                Axis("coordination", (False, True)),
            ),
            fixed={"iterations": 2},
        ),
    )
    return {matrix.name: matrix for matrix in matrices}


MATRICES: Dict[str, ScenarioMatrix] = _builtin_matrices()


def matrix_by_name(name: str) -> ScenarioMatrix:
    """Look up a registered matrix (raises :class:`MatrixError` with the list)."""
    matrix = MATRICES.get(name)
    if matrix is None:
        raise MatrixError(f"unknown matrix {name!r}; known: {sorted(MATRICES)}")
    return matrix
