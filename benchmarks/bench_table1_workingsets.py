"""Table 1: EfficientNet on-chip storage requirements (bfloat16, batch 1)."""

MIB = 1 << 20


def test_table1_efficientnet_storage_requirements(figure):
    table = figure("table1")

    # Monotone growth, and the larger variants exceed typical on-chip
    # capacities (tens of MiB).
    working_sets = [table[f"efficientnet-b{i}"]["max_working_set_bytes"] for i in range(8)]
    weights = [table[f"efficientnet-b{i}"]["weight_bytes"] for i in range(8)]
    assert weights == sorted(weights)
    assert working_sets[7] > 8 * working_sets[0]
    assert working_sets[7] > 32 * MIB
    assert working_sets[0] < 8 * MIB
