"""Figure 13: gradient accumulation (equivalent batch sizes 32-512) for the 40B model.

The rows are the ``batch_size`` scenario matrix run through
:class:`~repro.sweep.runner.SweepRunner` and tabulated by
:func:`~repro.sweep.results.figure_result`.
"""


def test_fig13_gradient_accumulation(benchmark, show, sweep_figure):
    result = benchmark(sweep_figure, "batch_size")
    result.add_note("paper: MLP-Offload stays at least 40% faster even with heavy accumulation")
    show(result)
    batches = (32, 128, 256, 512)
    for batch in batches:
        baseline = result.row_for(batch_size=batch, engine="DeepSpeed ZeRO-3")
        ours = result.row_for(batch_size=batch, engine="MLP-Offload")
        # Paper: MLP-Offload remains at least ~40% faster even when
        # accumulation amortizes the update phase.
        assert baseline["iteration_s"] / ours["iteration_s"] > 1.4
    # Iteration time grows with the equivalent batch size (more fwd/bwd passes).
    ours_series = [
        result.row_for(batch_size=b, engine="MLP-Offload")["iteration_s"] for b in batches
    ]
    assert ours_series == sorted(ours_series)
    # The relative advantage shrinks as accumulation grows (update amortized).
    gain_small = (
        result.row_for(batch_size=32, engine="DeepSpeed ZeRO-3")["iteration_s"]
        / result.row_for(batch_size=32, engine="MLP-Offload")["iteration_s"]
    )
    gain_large = (
        result.row_for(batch_size=512, engine="DeepSpeed ZeRO-3")["iteration_s"]
        / result.row_for(batch_size=512, engine="MLP-Offload")["iteration_s"]
    )
    assert gain_large < gain_small
