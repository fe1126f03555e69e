"""Figure 6: accelerator ROI vs deployment volume for hypothetical Perf/TCO gains."""


def test_fig6_roi_vs_deployment_volume(figure):
    data = figure("fig6")
    volumes, curves = data["volumes"], data["roi"]

    # ROI grows with volume for every speedup, and every speedup becomes
    # profitable with sufficient volume.
    for curve in curves.values():
        assert curve == sorted(curve)
        assert curve[-1] > 1.0
    # Diminishing returns: 8000 units at 1.5x beats 2000 units at 100x.
    assert curves["1.5"][volumes.index(8000)] > curves["100.0"][volumes.index(2000)]
    # Break-even volumes land in the low thousands for moderate speedups.
    assert 1000 < data["breakeven_volume"]["4.0"] < 10000
