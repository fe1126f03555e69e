"""Figure 12: EfficientNet-B7 step time vs TDP and area Pareto frontiers."""


def test_fig12_pareto_frontier(figure):
    tdp_front = figure("fig12")["tdp"]

    # The search finds designs that dominate the TPU-v3 point (both faster
    # per image and lower TDP), i.e. points toward the lower-left.
    assert len(tdp_front) >= 1
    assert any(step < 1.0 and tdp < 1.0 for step, tdp in tdp_front)
