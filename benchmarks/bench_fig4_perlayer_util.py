"""Figure 4: EfficientNet-B7 per-layer utilization (fraction of peak FLOPS) on TPU-v3."""


def test_fig4_per_layer_utilization_on_tpu(figure):
    values = figure("fig4")["utilization"]

    assert len(values) > 50
    # Early layers (few channels) run at low utilization; later layers improve.
    assert sum(values[:15]) / 15 < sum(values[-30:]) / 30
    # Overall utilization on TPU-v3 is poor (paper: 14.8%).
    assert sum(values) / len(values) < 0.45
    # Some early layer sits far below the paper's 0.7 "good utilization" bar.
    assert min(values) < 0.1
