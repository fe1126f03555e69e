"""Figure 5: BERT per-component runtime share on TPU-v3 vs sequence length."""


def test_fig5_bert_component_breakdown(figure):
    breakdown = figure("fig5")

    short, long = breakdown["128"], breakdown["2048"]
    # At short sequence lengths the efficient QKV/feed-forward ops dominate.
    assert short["feed_forward"] + short["qkv_projection"] > 0.6
    # At long sequence lengths softmax + self-attention dominate (O(N^2) scaling).
    assert long.get("softmax", 0) + long.get("self_attention", 0) > 0.5
    # The attention share grows monotonically with sequence length.
    attention = [s.get("softmax", 0) + s.get("self_attention", 0) for s in breakdown.values()]
    assert attention == sorted(attention)
