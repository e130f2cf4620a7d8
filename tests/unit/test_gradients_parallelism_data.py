"""Unit tests for gradient accumulation, parallel topology, synthetic data and memory estimation."""

import numpy as np
import pytest

from repro.train.data import SyntheticTokenDataset, TrainingBatch
from repro.train.gradients import GradientAccumulator
from repro.train.memory_estimator import estimate_memory, runtime_buffer_bytes
from repro.train.model_zoo import model_by_name, tiny_test_model
from repro.train.parallelism import ParallelTopology
from repro.util.bytesize import GiB


class TestGradientAccumulator:
    @pytest.fixture
    def accumulator(self, small_layout):
        return GradientAccumulator(small_layout, rank=0)

    def test_accumulates_across_microbatches(self, accumulator, rng):
        grad = rng.standard_normal(1000).astype(np.float16)
        accumulator.accumulate(0, grad)
        accumulator.mark_microbatch_done()
        accumulator.accumulate(0, grad)
        accumulator.mark_microbatch_done()
        summed = accumulator.gradient_fp32(0, average=False)
        np.testing.assert_allclose(summed, 2.0 * grad.astype(np.float32), rtol=1e-3)
        averaged = accumulator.gradient_fp32(0, average=True)
        np.testing.assert_allclose(averaged, grad.astype(np.float32), rtol=1e-3)
        assert accumulator.accumulated_steps == 2

    def test_fp16_export_and_byte_accounting(self, accumulator, rng):
        grad = rng.standard_normal(1000).astype(np.float16)
        accumulator.accumulate(3, grad)
        assert accumulator.gradient_fp16(3).dtype == np.float16

    def test_reset_all_and_partial(self, accumulator, rng):
        grad = rng.standard_normal(1000).astype(np.float16)
        accumulator.accumulate(0, grad)
        accumulator.accumulate(1, grad)
        accumulator.mark_microbatch_done()
        accumulator.reset([0])
        assert accumulator.gradient_fp32(0).sum() == 0.0
        assert accumulator.gradient_fp32(1).sum() != 0.0
        assert accumulator.accumulated_steps == 1  # partial reset keeps the counter
        accumulator.reset()
        assert accumulator.accumulated_steps == 0

    def test_wrong_subgroup_or_size_rejected(self, accumulator):
        with pytest.raises(KeyError):
            accumulator.accumulate(42, np.zeros(1000, dtype=np.float16))
        with pytest.raises(ValueError):
            accumulator.accumulate(0, np.zeros(17, dtype=np.float16))


class TestParallelTopology:
    def test_single_node_defaults(self):
        topo = ParallelTopology.single_node(4)
        assert topo.world_size == 4
        assert topo.num_nodes == 1
        assert topo.workers_per_node == 4

    def test_weak_scaling_topology(self):
        topo = ParallelTopology.weak_scaling(num_nodes=8, gpus_per_node=4)
        assert topo.world_size == 32
        assert topo.num_nodes == 8
        assert topo.tensor_parallel == 4

    def test_zero3_gather_volume(self):
        model = model_by_name("40B")
        alone = ParallelTopology(data_parallel=1)
        quad = ParallelTopology(data_parallel=4)
        assert alone.zero3_gather_bytes_per_pass(model) == 0
        gathered = quad.zero3_gather_bytes_per_pass(model)
        assert gathered == pytest.approx(model.total_params * 2 * 3 / 4, rel=0.01)
        assert quad.gradient_reduce_bytes(model) == gathered

    def test_tensor_parallel_bytes(self):
        model = model_by_name("40B")
        tp1 = ParallelTopology(data_parallel=1, tensor_parallel=1)
        tp4 = ParallelTopology(data_parallel=1, tensor_parallel=4)
        assert tp1.tensor_parallel_bytes_per_layer(model) == 0
        assert tp4.tensor_parallel_bytes_per_layer(model) > 0

    def test_params_per_rank_rounds_up(self):
        model = model_by_name("40B")
        topo = ParallelTopology(data_parallel=3)
        assert topo.params_per_rank(model) * 3 >= model.total_params

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelTopology(data_parallel=0)
        with pytest.raises(ValueError):
            ParallelTopology.weak_scaling(0)


class TestSyntheticTokenDataset:
    def test_batches_are_deterministic(self):
        a = SyntheticTokenDataset(vocab_size=100, sequence_length=16, seed=7)
        b = SyntheticTokenDataset(vocab_size=100, sequence_length=16, seed=7)
        batch_a = a.batch(3, micro_batch_size=2)
        batch_b = b.batch(3, micro_batch_size=2)
        np.testing.assert_array_equal(batch_a.tokens, batch_b.tokens)
        np.testing.assert_array_equal(batch_a.targets, batch_b.targets)

    def test_different_seeds_differ(self):
        a = SyntheticTokenDataset(vocab_size=100, sequence_length=16, seed=1)
        b = SyntheticTokenDataset(vocab_size=100, sequence_length=16, seed=2)
        assert not np.array_equal(a.batch(0, 1).tokens, b.batch(0, 1).tokens)

    def test_targets_are_shifted_tokens(self):
        data = SyntheticTokenDataset(vocab_size=50, sequence_length=8, seed=0)
        batch = data.batch(0, 1)
        assert batch.sequence_length == 8
        assert batch.tokens.max() < 50
        assert batch.tokens.min() >= 0
        assert batch.micro_batch_size == 1

    def test_batch_geometry_validation(self):
        data = SyntheticTokenDataset(vocab_size=50, sequence_length=8)
        with pytest.raises(ValueError):
            data.batch(0, 0)
        with pytest.raises(ValueError):
            SyntheticTokenDataset(vocab_size=1, sequence_length=8)
        with pytest.raises(ValueError):
            TrainingBatch(tokens=np.zeros((2, 4), dtype=np.int64), targets=np.zeros((2, 5), dtype=np.int64))

    def test_finite_iterator(self):
        data = SyntheticTokenDataset(vocab_size=50, sequence_length=8)
        batches = list(data.batches(3, micro_batch_size=2))
        assert len(batches) == 3


class TestMemoryEstimator:
    def test_runtime_buffers_match_paper_range(self):
        # 250–350 GB proportional to model size (§4.3).
        assert runtime_buffer_bytes(model_by_name("40B")) == pytest.approx(250 * GiB, rel=0.05)
        assert runtime_buffer_bytes(model_by_name("120B")) == pytest.approx(350 * GiB, rel=0.1)

    def test_40b_on_testbed1_leaves_host_cache(self):
        from repro.tiers.spec import TESTBED_1

        breakdown = estimate_memory(
            model_by_name("40B"),
            ParallelTopology.single_node(4),
            gpu_memory=TESTBED_1.gpu_memory,
            host_memory=TESTBED_1.host_memory,
            subgroup_size=100_000_000,
        )
        assert breakdown.host_total_required <= breakdown.host_capacity
        # Figure 10 reports ~145 GB of the 40B optimizer state cached in host memory.
        assert 80e9 < breakdown.host_cache_available < 220e9
        assert breakdown.offloaded_optimizer_bytes == pytest.approx(
            model_by_name("40B").optimizer_state_bytes, rel=0.01
        )

    def test_baseline_fp32_grads_increase_footprints(self):
        from repro.tiers.spec import TESTBED_1

        kwargs = dict(
            gpu_memory=TESTBED_1.gpu_memory,
            host_memory=TESTBED_1.host_memory,
            subgroup_size=100_000_000,
        )
        ours = estimate_memory(model_by_name("70B"), ParallelTopology.single_node(4), **kwargs)
        baseline = estimate_memory(
            model_by_name("70B"),
            ParallelTopology.single_node(4),
            baseline_fp32_grads=True,
            **kwargs,
        )
        assert baseline.offloaded_optimizer_bytes > ours.offloaded_optimizer_bytes
        assert baseline.host_pinned_buffers > ours.host_pinned_buffers

    def test_tiny_model_fits_everywhere(self):
        tiny = tiny_test_model()
        breakdown = estimate_memory(
            tiny,
            ParallelTopology(data_parallel=1),
            gpu_memory=8 * GiB,
            host_memory=700 * GiB,
            subgroup_size=1000,
        )
        assert breakdown.gpu_total <= breakdown.gpu_capacity

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_memory(
                tiny_test_model(),
                ParallelTopology(data_parallel=1),
                gpu_memory=1,
                host_memory=1,
                subgroup_size=0,
            )
