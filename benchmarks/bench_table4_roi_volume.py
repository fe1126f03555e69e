"""Table 4: deployment volume required to reach ROI targets for FAST designs."""


def test_table4_roi_deployment_volumes(figure):
    paper = figure("table4")["paper"]

    # Break-even volumes for the paper's speedups land between ~2,000 and
    # ~4,000 accelerators, and scale linearly with the ROI target (1x-8x).
    b7_volumes = paper["efficientnet-b7"]["volumes"]
    assert 1800 < b7_volumes[0] < 2800
    assert b7_volumes[3] > 7.5 * b7_volumes[0]
    assert paper["bert-seq128"]["volumes"][0] > b7_volumes[0]
