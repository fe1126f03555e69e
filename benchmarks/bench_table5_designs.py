"""Table 5: TPU-v3 vs FAST-Large vs FAST-Small on EfficientNet-B7."""


def test_table5_example_designs(figure):
    designs = figure("table5")
    tpu, large, small = (designs[n] for n in ("TPU-v3", "FAST-Large", "FAST-Small"))

    # Both FAST designs improve Perf/TDP over the baseline.
    assert large["perf_per_tdp"] > 1.5 * tpu["perf_per_tdp"]
    assert small["perf_per_tdp"] > 1.2 * tpu["perf_per_tdp"]
    # FAST designs achieve higher compute utilization than TPU-v3 on B7.
    assert large["compute_utilization"] > tpu["compute_utilization"]
    assert small["compute_utilization"] > tpu["compute_utilization"]
    # FAST-Large relies on fusion.
    assert large["fusion_efficiency"] > 0.3
    # FAST-Large meets a latency-sensitive budget; FAST-Small does not.
    assert large["latency_ms"] < 30
    assert small["latency_ms"] > 100
    # Both stay within the area/TDP budget (normalized <= 1).
    for design in (large, small):
        assert design["normalized_tdp"] <= 1.0
        assert design["normalized_area"] <= 1.0
