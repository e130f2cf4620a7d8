"""Figure 11 (and §4.4 cost-effectiveness): weak-scaling iteration times on Testbed-2.

Figure 11 is the ``weak_scaling`` scenario matrix run through
:class:`~repro.sweep.runner.SweepRunner` and tabulated by
:func:`~repro.sweep.results.figure_result`; §4.4 reads the same matrix's two
``70B@2`` cells.
"""

from repro.bench import experiments


def test_fig11_weak_scaling_time(benchmark, show, sweep_figure):
    result = benchmark(sweep_figure, "weak_scaling")
    result.add_note("paper: MLP-Offload stays ~2x faster than ZeRO-3 up to 32 GPUs / 280B")
    show(result)
    configs = ("40B[4]", "70B[8]", "100B[12]", "130B[16]", "280B[32]")
    for config in configs:
        baseline = result.row_for(config=config, engine="DeepSpeed ZeRO-3")
        ours = result.row_for(config=config, engine="MLP-Offload")
        speedup = baseline["iteration_s"] / ours["iteration_s"]
        # Paper: MLP-Offload stays ~2x faster even at 32 GPUs / 280B.
        assert speedup > 1.5
        # I/O (the update phase) still dominates the baseline at scale.
        assert baseline["update_s"] / baseline["iteration_s"] > 0.6
    # Baseline iteration time stays roughly flat / slightly decreasing with
    # scale because per-node optimizer state shrinks (paper: 242 -> 156 s).
    base_first = result.row_for(config="40B[4]", engine="DeepSpeed ZeRO-3")["iteration_s"]
    base_last = result.row_for(config="280B[32]", engine="DeepSpeed ZeRO-3")["iteration_s"]
    assert base_last < 1.2 * base_first


def test_cost_effectiveness_70b(benchmark, show):
    result = benchmark(experiments.cost_effectiveness_70b)
    show(result)
    ours = result.row_for(engine="MLP-Offload")
    baseline = result.row_for(engine="DeepSpeed ZeRO-3")
    # Offloaded training uses 10x fewer GPUs than the 80-GPU GPU-only run.
    assert ours["gpu_reduction"] == 10.0
    # MLP-Offload is meaningfully less slowed-down than ZeRO-3, i.e. more
    # cost-effective (paper: 4.8x vs 7x slowdown -> ~2x cost effectiveness).
    assert ours["slowdown_vs_gpu_only"] < baseline["slowdown_vs_gpu_only"]
    assert ours["cost_effectiveness"] > 1.0
