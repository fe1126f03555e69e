"""Figure 11: search convergence rate on EfficientNet-B7 for three optimizers."""


def test_fig11_search_convergence(figure):
    curves = figure("fig11")

    # Every optimizer improves over its own early phase...
    for curve in curves.values():
        assert curve[-1] >= curve[min(9, len(curve) - 1)]
    # ...and the guided optimizers finish at least as well as random sampling.
    assert max(curves["lcs"][-1], curves["bayesian"][-1]) >= curves["random"][-1] * 0.95
