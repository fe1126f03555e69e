"""Figure 2: EfficientNet family inference step time, FAST-Large vs TPU-v3."""


def test_fig2_efficientnet_family_step_time(figure):
    family = figure("fig2")

    # FAST-Large runs every variant faster per image, and step time grows with
    # model size (so a faster accelerator buys accuracy at a fixed latency
    # budget).
    for times in family.values():
        assert times["fast_large_ms"] < times["tpu_v3_ms"]
    assert family["efficientnet-b7"]["fast_large_ms"] > family["efficientnet-b0"]["fast_large_ms"]
