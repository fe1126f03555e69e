"""Figure 9: modeled inference throughput (QPS) relative to TPU-v3.

Three ways to use FAST are compared against the simulated TPU-v3: its own
datapath with FAST fusion on, a design searched per workload, and one
design searched across the multi-workload suite.
"""


def test_fig9_throughput_speedups(figure):
    data = figure("fig9")
    single = {w: row["single"] for w, row in data["speedup"].items()}
    geomean = data["geomean"]

    # Searched designs beat the TPU-v3 baseline on average, and the
    # single-workload designs are at least as good as the multi-workload one.
    assert geomean["single"] > 0.9
    if geomean["multi"] is not None:
        assert geomean["single"] >= 0.8 * geomean["multi"]
    # EfficientNet gains exceed the OCR gains (already TPU-efficient workloads).
    assert single["efficientnet-b7"] > single["ocr-rpn"]
    assert single["efficientnet-b7"] > 1.2
