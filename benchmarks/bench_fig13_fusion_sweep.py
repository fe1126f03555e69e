"""Figure 13: post-fusion operational intensity, sweeping Global Memory and batch size."""


def test_fig13_fusion_sweep(figure):
    data = figure("fig13")
    intensity, ridge = data["intensity"], data["ridgepoint"]

    for by_batch in intensity.values():
        # Larger Global Memory increases post-fusion intensity at a fixed batch.
        for by_gm in by_batch.values():
            series = list(by_gm.values())
            assert series[-1] >= series[0]
        # Smaller batch sizes reach higher intensity (more tensors fit on chip).
        assert by_batch["1"]["128"] >= by_batch["64"]["128"]
    # EfficientNet-B0 easily exceeds the ridgepoint at 128 MiB; B7 is the
    # worst case for fusion and needs small batches to approach it.
    assert intensity["efficientnet-b0"]["8"]["128"] > ridge
    assert intensity["efficientnet-b7"]["1"]["256"] > intensity["efficientnet-b7"]["64"]["16"]
