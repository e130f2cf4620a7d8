"""Figure 14: progressive-activation ablation on node-local NVMe only."""

LADDER = ("DeepSpeed ZeRO-3", "Enable Caching", "Skip Gradients", "Process Atomic R/W")


def test_fig14_ablation_nvme(benchmark, show, sweep_figure):
    result = benchmark(sweep_figure, "ablation_nvme")
    result.add_note("paper: each principle contributes; up to 1.6x faster without any PFS")
    show(result)
    for model in ("40B", "70B", "100B"):
        series = [result.row_for(model=model, engine=label)["iteration_s"] for label in LADDER]
        # Each design principle contributes: iteration time is monotone
        # non-increasing along the ladder (paper Figure 14).
        assert all(later <= earlier * 1.001 for earlier, later in zip(series, series[1:]))
        # Without any PFS the full ladder is already a substantial win
        # (paper: up to 1.6x).
        assert series[0] / series[-1] > 1.3
