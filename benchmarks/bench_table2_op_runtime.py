"""Table 2: EfficientNet-B7 per-op-type FLOP vs runtime share on TPU-v3."""


def test_table2_efficientnet_b7_op_runtime(figure):
    shares = figure("table2")

    depthwise, conv = shares["depthwise_conv2d"], shares["conv2d"]
    assert depthwise["flop"] < 0.10
    assert conv["flop"] > 0.80
    # Depthwise convolutions consume far more runtime than their FLOP share.
    assert depthwise["runtime"] > 5 * depthwise["flop"]
    assert depthwise["runtime"] > 0.3
