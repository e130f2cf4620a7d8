"""Outside-in span recording for the traced run.

Nothing under ``src/`` is edited or imported differently: a :class:`Tracer`
shadows *bound public methods* on the instances the benchmark can reach from
an engine (``engine.tier``, its ``AsyncIOEngine``, every store with its
backend and throttle, the striped store, host cache, array pool, gradient
accumulator, lock manager, checkpoint writer) with timing wrappers set as
instance attributes, plus the two names ``repro.core.engine`` looks up at
call time (``adam_update``, ``update_time_gradient``), and removes them all
again in :meth:`Tracer.uninstall`.  Spans inside the program are a later
issue (ROADMAP "telemetry spine").

A span is ``(id, name, start, end, thread, parent, cause, tag, value)``:
``parent`` is the enclosing span on the same thread (0 = none), ``cause`` the
``submit`` span of the request a store call executes (which is what makes
queue wait measurable), ``tag`` a tier name where one applies and ``value``
a byte or item count.  Spans live in memory until the workload ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int
    cause: int
    tag: str
    value: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


_MISSING = object()

#: pre-hook: (args, kwargs, span id) -> (tag, value, cause); post-hook:
#: (result, span id) -> a value replacing the pre-hook's, or None.
_Pre = Callable[[tuple, dict, int], Tuple[str, float, int]]
_Post = Callable[[Any, int], Optional[float]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: submit span id -> time the request's future completed.
        self.done_at: Dict[int, float] = {}
        self.thread_names: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._wrapped: set = set()
        #: (tier, "read"|"write", key) -> submit span ids awaiting execution.
        self._submitted: Dict[Tuple[str, str, str], Deque[int]] = defaultdict(deque)

    # -- recording ---------------------------------------------------------

    def _record(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        pre: Optional[_Pre],
        post: Optional[_Post],
    ) -> Any:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            thread = threading.current_thread()
            self.thread_names[thread.ident or 0] = thread.name
        span_id = next(self._ids)
        tag, value, cause = pre(args, kwargs, span_id) if pre is not None else ("", 0.0, 0)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                measured = post(result, span_id)
                if measured is not None:
                    value = measured
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, threading.get_ident(), parent, cause, tag, value)
            )

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        *,
        pre: Optional[_Pre] = None,
        post: Optional[_Post] = None,
    ) -> None:
        """Shadow ``obj.attr`` (a bound method or a module global) with a span."""
        if (id(obj), attr) in self._wrapped:
            return  # shared object (a throttle, the lock manager): wrap once
        previous = vars(obj).get(attr, _MISSING)
        setattr(obj, attr, self._traced(name, getattr(obj, attr), pre, post))
        self._wrapped.add((id(obj), attr))
        self._installed.append((obj, attr, previous))

    def _traced(
        self, name: str, original: Callable, pre: Optional[_Pre], post: Optional[_Post]
    ) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self._record(name, original, args, kwargs, pre, post)

        return traced

    def uninstall(self) -> None:
        """Remove every wrapper, restoring what was there before."""
        for obj, attr, previous in reversed(self._installed):
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)
        self._installed.clear()
        self._wrapped.clear()

    # -- what gets wrapped -------------------------------------------------

    def install_globals(self) -> None:
        import repro.core.engine as core_engine

        self.wrap(core_engine, "adam_update", "train.adam.adam_update")
        self.wrap(core_engine, "update_time_gradient", "core.engine.update_time_gradient")

    def install(self, engine: Any) -> None:
        """Wrap everything reachable from one (constructed) engine."""
        for attr in (
            "on_backward_gradient",
            "on_microbatch_complete",
            "run_update",
            "maybe_checkpoint",
            "restore_checkpoint",
            "fetch_master_params",
        ):
            self.wrap(engine, attr, f"core.engine.{attr}")
        tier = engine.tier
        self.wrap(
            tier,
            "prefetch_subgroup",
            "core.virtual_tier.prefetch_subgroup",
            post=lambda futures, _id: self._wrap_results(futures.values(), "fetch"),
        )
        self.wrap(
            tier,
            "flush_subgroup",
            "core.virtual_tier.flush_subgroup",
            post=lambda futures, _id: self._wrap_results(futures, "flush"),
        )
        for attr in ("io_summary", "observe_iteration", "export_field_blobs", "adopt_field_blobs"):
            self.wrap(tier, attr, f"core.virtual_tier.{attr}")
        self._install_aio(tier.engine)
        for store in tier.stores.values():
            self._install_store(store)
        if tier.striped is not None:
            for attr in ("plan_save", "plan_load"):
                self.wrap(
                    tier.striped,
                    attr,
                    f"tiers.striped_store.{attr}",
                    post=lambda parts, _id: float(len(parts)),
                )
            self.wrap(tier.striped, "commit_save", "tiers.striped_store.commit_save")
        self.wrap(engine.cache, "get", "tiers.host_cache.get")
        self.wrap(engine.cache, "put", "tiers.host_cache.put")
        self.wrap(engine.pool, "acquire", "tiers.array_pool.acquire")
        self.wrap(engine.pool, "release", "tiers.array_pool.release")
        self.wrap(engine.accumulator, "accumulate", "train.gradients.accumulate")
        self.wrap(engine.accumulator, "gradient_fp32", "train.gradients.gradient_fp32")
        self.wrap(
            engine.concurrency.lock_manager,
            "acquire",
            "aio.locks.acquire",
            pre=lambda args, kwargs, _id: (str(args[0]), 0.0, 0),
        )
        writer = engine.checkpointer
        if writer is not None:
            from repro.codec import get_codec

            self.wrap(writer, "snapshot", "ckpt.writer.snapshot")
            self.wrap(writer, "wait", "ckpt.writer.wait")
            self.wrap(writer.manifests, "commit", "ckpt.writer.manifest_commit")
            self._install_aio(writer.engine)
            for store in writer.stores.values():
                self._install_store(store)
            if writer.codec_name != "raw":
                self.wrap(
                    get_codec(writer.codec_name),
                    "encode_chunk",
                    "codec.encode_chunk",
                    pre=lambda args, kwargs, _id: ("", float(args[0].nbytes), 0),
                )

    def _install_aio(self, aio: Any) -> None:
        def note_done(future: Any, span_id: int) -> None:
            future.add_done_callback(
                lambda _f, sid=span_id: self.done_at.__setitem__(sid, time.perf_counter())
            )

        def note_submitted(args: tuple, kwargs: dict, span_id: int) -> Tuple[str, float, int]:
            # Before the call: the I/O thread may start executing the request
            # before submit() returns.
            request = args[0]
            tier = str(request.tier)
            self._submitted[(tier, request.kind.value, request.key)].append(span_id)
            return tier, 0.0, 0

        self.wrap(aio, "submit", "aio.engine.submit", pre=note_submitted, post=note_done)

    def _install_store(self, store: Any) -> None:
        tier = str(store.name)

        def executes(kind: str) -> _Pre:
            def pre(args: tuple, kwargs: dict, _id: int) -> Tuple[str, float, int]:
                queue = self._submitted.get((tier, kind, args[0]))
                cause = queue.popleft() if queue else 0
                nbytes = float(args[1].nbytes) if len(args) > 1 else 0.0
                return tier, nbytes, cause

            return pre

        self.wrap(store, "load_into", "tiers.file_store.load_into", pre=executes("read"))
        self.wrap(store, "read", "tiers.file_store.read", pre=executes("read"))
        self.wrap(store, "save_from", "tiers.file_store.save_from", pre=executes("write"))
        for attr in ("adopt", "delete"):
            self.wrap(store, attr, f"tiers.file_store.{attr}", pre=lambda a, k, _id: (tier, 0.0, 0))
        backend = store.io_backend
        self.wrap(
            backend,
            "read_payload",
            "aio.backends.read_payload",
            pre=lambda args, kwargs, _id: (tier, float(args[3].nbytes), 0),
        )
        self.wrap(
            backend,
            "write_blob",
            "aio.backends.write_blob",
            pre=lambda args, kwargs, _id: (tier, float(len(args[1]) + args[2].nbytes), 0),
        )
        if store.throttle is not None:
            self.wrap(
                store.throttle,
                "consume",
                "aio.throttle.consume",
                pre=lambda args, kwargs, _id: (tier, float(args[0]), 0),
            )

    def _wrap_results(self, futures: Any, what: str) -> None:
        """Time the caller's wait on futures the virtual tier handed out.

        Not registered for :meth:`uninstall`: a future is dropped once its
        result was read, and keeping thousands of them alive would not do.
        """
        for future in futures:
            if "result" not in vars(future):
                future.result = self._traced(f"core.engine.wait_{what}", future.result, None, None)

    # -- output --------------------------------------------------------------

    def chrome_trace(self, path: Path, steps: List[Tuple[float, float]]) -> None:
        """Write the spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        origin = steps[0][0]
        events: List[Dict[str, Any]] = []
        for ident, name in sorted(self.thread_names.items()):
            events.append(
                {"ph": "M", "pid": 1, "tid": ident, "name": "thread_name", "args": {"name": name}}
            )
        events.append(
            {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "steps"}}
        )
        for index, (start, end) in enumerate(steps):
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": 0,
                    "name": f"step {index}",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                }
            )
        for span in self.spans:
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": span.thread,
                    "name": span.name,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.seconds * 1e6,
                    "args": {
                        "id": span.id,
                        "parent": span.parent,
                        "cause": span.cause,
                        "tag": span.tag,
                        "value": span.value,
                    },
                }
            )
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
