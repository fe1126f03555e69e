"""Table 6: FAST-Large ablation study (revert one component at a time to TPU-v3's)."""


def test_table6_fast_large_ablation(figure):
    table = figure("table6")
    full = table["FAST-Large"]

    # Every ablation hurts EfficientNet-B7 Perf/TDP relative to the full design.
    for gains in table.values():
        assert gains["efficientnet-b7"] <= full["efficientnet-b7"] * 1.02
    # The Global Memory and fusion ablations are the most damaging on B7.
    assert table["Without FAST fusion"]["efficientnet-b7"] < 0.85 * full["efficientnet-b7"]
    assert table["With 16MB Global Mem"]["efficientnet-b7"] < 0.9 * full["efficientnet-b7"]
    # Large systolic arrays hurt EfficientNet more than they hurt ResNet.
    big_arrays = table["With 128x128 systolic arrays"]
    loss_b7 = big_arrays["efficientnet-b7"] / full["efficientnet-b7"]
    assert loss_b7 < big_arrays["resnet50"] / full["resnet50"] + 0.15
