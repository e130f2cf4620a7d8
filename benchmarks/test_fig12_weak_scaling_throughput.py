"""Figure 12: job-level update throughput under weak scaling."""


def test_fig12_weak_scaling_throughput(benchmark, show, sweep_figure):
    result = benchmark(sweep_figure, "weak_scaling")
    result.add_note("paper: update throughput grows with resources; I/O remains the bottleneck")
    show(result)
    configs = ("40B[4]", "70B[8]", "100B[12]", "130B[16]", "280B[32]")
    baseline_series = [
        result.row_for(config=c, engine="DeepSpeed ZeRO-3")["update_mparams_per_s"] for c in configs
    ]
    ours_series = [
        result.row_for(config=c, engine="MLP-Offload")["update_mparams_per_s"] for c in configs
    ]
    # Update throughput grows with resources for both engines (paper Figure 12).
    assert baseline_series[-1] > 2.0 * baseline_series[0]
    assert ours_series[-1] > 2.0 * ours_series[0]
    # MLP-Offload sustains a higher throughput at every scale.
    for ours, baseline in zip(ours_series, baseline_series):
        assert ours > 1.4 * baseline
