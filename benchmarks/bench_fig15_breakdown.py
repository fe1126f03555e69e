"""Figure 15: additive performance breakdown of FAST-Large's components."""


def test_fig15_component_breakdown(figure):
    steps = figure("fig15")
    baseline = steps["tpu_v3_single_core"]["qps"]
    datapath, fusion = steps["plus_datapath"], steps["plus_fast_fusion"]

    # Each component adds performance, and the datapath change alone is
    # bandwidth-limited: its gain is small next to the gain with fusion.
    assert fusion["qps"] / baseline > datapath["qps"] / baseline
    assert fusion["qps"] / baseline > 1.2
    assert fusion["memory_stall_fraction"] < datapath["memory_stall_fraction"]
