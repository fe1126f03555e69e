"""Figure 3: impact of op fusion and batch size on operational intensity."""


def test_fig3_operational_intensity(figure):
    intensity = figure("fig3")

    # Section 4.1: unfused EfficientNet is far below the ridgepoint, and
    # fusing whole MBConv blocks crosses ~200.
    b7_batch1 = intensity["efficientnet-b7"]["1"]
    assert b7_batch1["none"] < 40
    assert b7_batch1["block"] > 150

    # Batching helps ResNet-50 and BERT-128 but not EfficientNet / BERT-1024.
    def batching_gain(workload):
        return intensity[workload]["64"]["xla"] / intensity[workload]["1"]["xla"]

    assert batching_gain("resnet50") > 1.5
    assert batching_gain("bert-seq128") > 1.5
    assert batching_gain("efficientnet-b7") < batching_gain("resnet50")
    assert batching_gain("bert-seq1024") < batching_gain("bert-seq128")
