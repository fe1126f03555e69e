"""Figure 10: modeled Perf/TDP relative to TPU-v3 (same process technology)."""


def test_fig10_perf_per_tdp_speedups(figure):
    data = figure("fig10")
    gains, geomean = data["gain"], data["geomean"]

    # FAST improves Perf/TDP on average; EfficientNet benefits more than the
    # already-efficient OCR workloads; the multi-workload design trails the
    # specialized ones.
    assert geomean["single"] > 1.0
    assert geomean["efficientnet_single"] > gains["ocr-rpn"]["single"]
    assert gains["efficientnet-b7"]["single"] > 1.5
    if geomean["multi"] is not None:
        assert geomean["multi"] > 0.8
        assert geomean["single"] >= 0.8 * geomean["multi"]
