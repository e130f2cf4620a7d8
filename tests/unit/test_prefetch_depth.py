"""Each update phase reports the lookahead window it ran with (results at
any depth match in-memory Adam bitwise: ``tests/integration/test_pipeline_equivalence.py``)."""

import numpy as np

import repro.core.engine as engine_module
from repro.core.config import MLPOffloadConfig, TierConfig
from repro.core.engine import PREFETCH_DEPTH, MLPOffloadEngine
from repro.train.adam import AdamConfig
from repro.train.sharding import build_shard_layout, flat_views

TOTAL_PARAMS = 6_000
SUBGROUP = 750


def run_training(root):
    """Three update phases; the lookahead window each one reports."""
    (root / "nvme").mkdir(parents=True, exist_ok=True)
    (root / "pfs").mkdir(parents=True, exist_ok=True)
    config = MLPOffloadConfig(
        tiers=(
            TierConfig("nvme", str(root / "nvme"), read_bw=6.9e9, write_bw=5.3e9),
            TierConfig("pfs", str(root / "pfs"), read_bw=3.6e9, write_bw=3.6e9),
        ),
        subgroup_size=SUBGROUP,
        adam=AdamConfig(lr=1e-3),
    )
    layout = build_shard_layout(TOTAL_PARAMS, num_ranks=1, subgroup_size=SUBGROUP)
    views = flat_views(None, layout, 0)
    rng = np.random.default_rng(5)
    initial = rng.standard_normal(TOTAL_PARAMS).astype(np.float32)
    depths = []
    with MLPOffloadEngine(config, layout, rank=0) as engine:
        engine.initialize(initial.copy())
        fp16 = initial.astype(np.float16)
        for _ in range(3):
            grad = rng.standard_normal(TOTAL_PARAMS).astype(np.float32) * 0.1
            for index, view in views.items():
                engine.on_backward_gradient(index, grad[view].astype(np.float16))
            engine.on_microbatch_complete()
            report = engine.run_update(fp16)
            depths.append(report.stats.prefetch_depth)
    return depths


def test_phase_reports_the_configured_depth(tmp_path, monkeypatch):
    assert PREFETCH_DEPTH == 2
    assert run_training(tmp_path / "default") == [2, 2, 2]
    monkeypatch.setattr(engine_module, "PREFETCH_DEPTH", 3)
    assert run_training(tmp_path / "deep") == [3, 3, 3]

