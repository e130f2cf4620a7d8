"""Figure 7: iteration-time breakdown vs model size (single Testbed-1 node)."""


def test_fig07_iteration_breakdown(benchmark, show, sweep_figure):
    result = benchmark(sweep_figure, "model_size")
    result.add_note("paper headline: MLP-Offload iterations are ~2.5-2.7x faster than ZeRO-3")
    show(result)
    for model in ("40B", "52B", "70B", "100B", "120B"):
        baseline = result.row_for(model=model, engine="DeepSpeed ZeRO-3")
        ours = result.row_for(model=model, engine="MLP-Offload")
        speedup = baseline["iteration_s"] / ours["iteration_s"]
        # Paper: iterations are 2.1x-2.7x faster; accept a generous band that
        # still demands a clear, paper-scale win.
        assert 1.5 < speedup < 6.0
        # The update phase dominates the baseline iteration.
        assert baseline["update_s"] / baseline["iteration_s"] > 0.7
        # MLP-Offload reduces the backward pass to a negligible level
        # (paper: ~13.5x faster backward).
        assert baseline["backward_s"] / ours["backward_s"] > 5.0
        # Forward passes are tiny for both engines.
        assert baseline["forward_s"] < 0.05 * baseline["iteration_s"]
    # Iteration time grows with the model size for both engines
    # (modulo the 52B/40B and 120B/100B geometry exceptions noted in the paper).
    base_40 = result.row_for(model="40B", engine="DeepSpeed ZeRO-3")["iteration_s"]
    base_120 = result.row_for(model="120B", engine="DeepSpeed ZeRO-3")["iteration_s"]
    assert base_120 > base_40
