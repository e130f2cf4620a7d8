"""Figure 9: effective I/O throughput vs model size."""


def test_fig09_io_throughput(benchmark, show, sweep_figure):
    result = benchmark(sweep_figure, "model_size")
    result.add_note("paper: ~3.2 GB/s for ZeRO-3 vs 7-8.5 GB/s for MLP-Offload (2-2.6x)")
    show(result)
    models = ("40B", "52B", "70B", "100B", "120B")
    ratios = []
    for model in models:
        baseline = result.row_for(model=model, engine="DeepSpeed ZeRO-3")
        ours = result.row_for(model=model, engine="MLP-Offload")
        ratios.append(ours["io_gbps"] / baseline["io_gbps"])
        # The baseline is capped by the contended NVMe; MLP-Offload adds the PFS path.
        assert baseline["io_gbps"] < 7.0
        assert ours["io_gbps"] > baseline["io_gbps"]
    # Paper: ~2x-2.6x higher effective I/O throughput.
    assert all(1.3 < r < 4.0 for r in ratios)
    # The advantage shrinks slightly for larger models as the host cache covers
    # a smaller fraction of the optimizer state (paper §4.3).
    ours_series = [result.row_for(model=m, engine="MLP-Offload")["io_gbps"] for m in models]
    assert ours_series[-1] <= ours_series[0] * 1.1
