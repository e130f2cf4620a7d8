"""Fixtures shared by the engine integration tests."""

import numpy as np
import pytest

from repro.core.gradient_policy import GradientConversionPolicy
from repro.core.virtual_tier import STATE_FIELDS
from repro.train.adam import AdamState, adam_update
from repro.train.sharding import flat_views


@pytest.fixture
def assert_matches_in_memory_adam():
    """Check an engine bitwise against an offloading-free in-memory Adam.

    Returns ``check(engine, fp16, initial, phases)``.  ``phases`` lists, per
    update phase, the FP32 gradient vectors of its micro-batches (the engine
    was fed each one cast to FP16).  The reference sums a subgroup's
    micro-batch gradients in FP32 as the host accumulator does; under the
    FLUSH_FP32 policy the sum round-trips FP16 (the backward flush writes the
    up-converted FP16 accumulator); the result is averaged over the
    micro-batches.  The FP32 masters, the FP16 working copy ``fp16``, every
    subgroup's step counter and its ``exp_avg``/``exp_avg_sq`` — read from
    the host cache or from the subgroup's tier blobs — must match exactly.
    Call it while the engine is open.
    """

    def check(engine, fp16, initial, phases):
        views = flat_views(None, engine.layout, engine.rank)
        flush_fp32 = engine.gradient_policy is GradientConversionPolicy.FLUSH_FP32
        states = {i: AdamState.zeros(v.stop - v.start, init=initial[v]) for i, v in views.items()}
        for micro_batches in phases:
            for i, v in views.items():
                grad = np.zeros(v.stop - v.start, dtype=np.float32)
                for micro in micro_batches:
                    grad += micro[v].astype(np.float16).astype(np.float32)
                if flush_fp32:
                    grad = grad.astype(np.float16).astype(np.float32)
                if len(micro_batches) > 1:
                    grad /= float(len(micro_batches))
                adam_update(states[i], grad, engine.config.adam)

        masters = engine.fetch_master_params()
        for sg in engine.subgroups:
            expected = states[sg.index]
            view = views[sg.index]
            arrays = engine.cache.peek(sg.index)
            if arrays is None:
                arrays = engine.tier.fetch_subgroup(sg.key, sg.index, list(STATE_FIELDS))
            for name in STATE_FIELDS:
                np.testing.assert_array_equal(
                    arrays[name], getattr(expected, name), err_msg=f"subgroup {sg.index} {name}"
                )
            np.testing.assert_array_equal(masters[view], expected.params)
            np.testing.assert_array_equal(fp16[view], expected.params.astype(np.float16))
            assert engine._steps[sg.index] == expected.step == len(phases)

    return check
