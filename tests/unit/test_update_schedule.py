"""When the update loop issues tier I/O relative to Adam.

Reads run ``PREFETCH_DEPTH`` misses ahead — host-cache hits take no window
slot — and dirty evictions run up to ``PREFETCH_DEPTH`` writes behind.
Results at every depth match in-memory Adam bitwise
(``tests/integration/test_pipeline_equivalence.py``); these tests pin the
schedule itself.
"""

import concurrent.futures

import numpy as np

import repro.core.engine as engine_module
from repro.core.config import MLPOffloadConfig, TierConfig
from repro.core.engine import PREFETCH_DEPTH, MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750
NUM_SUBGROUPS = TOTAL_PARAMS // SUBGROUP
#: Half the subgroups fit the host cache (three FP32 state fields each).
CACHED = NUM_SUBGROUPS // 2


def _engine(root):
    (root / "nvme").mkdir(parents=True, exist_ok=True)
    (root / "pfs").mkdir(parents=True, exist_ok=True)
    config = MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(root / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(root / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP,
        host_cache_bytes=CACHED * SUBGROUP * 12,
        adam=AdamConfig(lr=1e-3),
        enable_cache_reorder=True,
    )
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)
    return MLPOffloadEngine(config, layout, rank=0), layout


def _phase(engine, layout, rng, fp16):
    grad = rng.standard_normal(TOTAL_PARAMS).astype(np.float16)
    for index, view in flat_views(None, layout, 0).items():
        engine.on_backward_gradient(index, grad[view])
    engine.on_microbatch_complete()
    return engine.run_update(fp16)


def test_the_window_reads_the_first_misses_while_adam_runs_on_the_hits(tmp_path, monkeypatch):
    assert CACHED > PREFETCH_DEPTH + 1  # hits alone would fill a positional window
    rng = np.random.default_rng(3)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    engine, layout = _engine(tmp_path)
    with engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        _phase(engine, layout, rng, fp16)  # leaves the last-updated half cached

        events = []
        prefetch = engine.tier.prefetch_subgroup
        adam = engine_module.adam_update

        def record_prefetch(key, subgroup_index, *args, **kwargs):
            events.append(("fetch", subgroup_index))
            return prefetch(key, subgroup_index, *args, **kwargs)

        def record_adam(*args, **kwargs):
            events.append(("adam", None))
            return adam(*args, **kwargs)

        monkeypatch.setattr(engine.tier, "prefetch_subgroup", record_prefetch)
        monkeypatch.setattr(engine_module, "adam_update", record_adam)
        cached = set(engine.cache.cached_ids())
        order = _phase(engine, layout, rng, fp16).order

    assert len(cached) == CACHED and set(order[:CACHED]) == cached
    first_miss = order[CACHED]
    assert events.index(("fetch", first_miss)) < events.index(("adam", None))

    # Fetches issued but not yet consumed by Adam never exceed the window
    # plus the subgroup being updated.
    fetched, updated, most_pending = [], 0, 0
    for kind, index in events:
        if kind == "adam":
            updated += 1
        else:
            fetched.append(index)
            most_pending = max(
                most_pending, sum(1 for i in fetched if order.index(i) >= updated)
            )
    assert sorted(fetched) == sorted(order[CACHED:])
    assert 0 < most_pending <= PREFETCH_DEPTH + 1


def _writeback_waits(engine, monkeypatch, queued):
    """The futures one eviction's ``_writeback`` waits on, behind ``queued``
    stub writes already in flight (each with its own done future)."""
    entries = []
    for index in range(queued):
        future = concurrent.futures.Future()
        future.set_result(None)
        entries.append((index, [future], lambda: None))
    engine._write_behind[:] = entries
    waited = []
    with monkeypatch.context() as patch:
        patch.setattr(
            engine_module.concurrent.futures, "wait", lambda fs: waited.append(list(fs))
        )
        patch.setattr(engine, "_flush_behind", lambda sg, arrays, landed: (sg.index, [], landed))
        engine._writeback(engine.subgroups[-1].index, {})
    assert len(engine._write_behind) == queued + 1
    engine._write_behind.clear()
    assert len(waited) == 1
    return waited[0], [entry[1][0] for entry in entries]


def test_an_eviction_waits_only_for_writes_beyond_the_depth(tmp_path, monkeypatch):
    engine, _ = _engine(tmp_path)
    with engine:
        waited, futures = _writeback_waits(engine, monkeypatch, queued=3)
        assert waited == futures[: 3 - (PREFETCH_DEPTH - 1)]

        monkeypatch.setattr(engine_module, "PREFETCH_DEPTH", 1)
        waited, futures = _writeback_waits(engine, monkeypatch, queued=3)
        assert waited == futures
