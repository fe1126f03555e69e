"""Extension ablations beyond the paper's Table 6.

* inter-op blocking on top of FAST fusion (Section 5.5's stated refinement),
* the NoC's area overhead across PE grid shapes (Figure 7 substrate),
* int8 quantization as an orthogonal booster (Figure 2 caption).
"""


def test_ablation_interop_blocking(figure):
    """Blocking recovers fusion speedups when activations exceed the GM."""
    data = figure("ablation-blocking")
    assert data["blocked"]["cycles"] <= data["plain"]["cycles"]
    assert data["blocked"]["block_factor"] > 1  # whole 24 MiB activations do not fit


def test_ablation_noc_overhead(figure):
    """NoC area overhead across the named designs stays a small fraction."""
    for design in figure("ablation-noc").values():
        assert design["die_share"] < 0.10


def test_ablation_quantization(figure):
    """Int8 shrinks DRAM traffic and never slows FAST-Large down."""
    data = figure("ablation-int8")
    # Once FAST fusion has removed the bandwidth bottleneck the QPS gain can
    # be small, but int8 must never be slower than bf16 on the same datapath.
    assert data["int8"]["qps"] >= data["bfloat16"]["qps"]
    assert data["int8"]["dram_bytes_pre_fusion"] < data["bfloat16"]["dram_bytes_pre_fusion"]
