"""Figure 8: update throughput (millions of parameters per second) vs model size."""


def test_fig08_update_throughput(benchmark, show, sweep_figure):
    result = benchmark(sweep_figure, "model_size")
    result.add_note("paper: MLP-Offload sustains 1.8-2.4x the baseline's update throughput")
    show(result)
    for model in ("40B", "52B", "70B", "100B", "120B"):
        baseline = result.row_for(model=model, engine="DeepSpeed ZeRO-3")
        ours = result.row_for(model=model, engine="MLP-Offload")
        ratio = ours["update_mparams_per_s"] / baseline["update_mparams_per_s"]
        # Paper: 1.8x-2.4x higher update throughput.
        assert 1.4 < ratio < 6.0
        # Offloaded updates are an order of magnitude below the ~8000 Mparams/s
        # CPU-resident rate: the bottleneck is I/O, not compute (§4.2).
        assert ours["update_mparams_per_s"] < 4000
    # Baseline throughput stays roughly flat across model sizes (paper: ~190-250).
    baseline_series = [
        result.row_for(model=m, engine="DeepSpeed ZeRO-3")["update_mparams_per_s"]
        for m in ("40B", "52B", "70B", "100B", "120B")
    ]
    assert max(baseline_series) / min(baseline_series) < 2.0
