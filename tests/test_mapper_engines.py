"""Scalar-vs-fast equivalence of the two mapping engines, and the engine spec.

The mapper has two engines (see :mod:`repro.mapping.mapper`): the scalar
reference loop behind :meth:`Mapper.map_op` and the stacked NumPy pass
behind :meth:`Mapper.map_ops_batch`, which the simulator's default
``graph-batched`` engine runs once per trial.  The contract under test is
*bit-for-bit equivalence* at every level — candidate enumeration and
per-candidate traffic, op costs on every workload and on random (including
unschedulable) datapaths, simulation results, and serial and 2-worker search
histories.  :class:`~repro.simulator.enginespec.EngineSpec` is the one API
that chooses between the engines.
"""

from __future__ import annotations

import collections
from dataclasses import replace

import numpy as np
import pytest

from repro.core.designs import FAST_LARGE, TPU_V3
from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.hardware.datapath import BufferConfig, DatapathConfig, L2Config, MemoryTechnology
from repro.hardware.search_space import DatapathSearchSpace
from repro.mapping.dataflow import Dataflow
from repro.mapping.loopnest import MatrixProblem, extract_problem
from repro.mapping import mapper as mapper_module
from repro.mapping.mapper import Mapper, MapperOptions, _round3
from repro.mapping.tiling import (
    Tiling,
    TrafficEstimate,
    candidate_tilings,
    estimate_traffic,
    estimate_traffic_batch_ops,
    stack_candidate_grids,
    tiling_candidate_arrays,
)
from repro.reporting.serialization import (
    simulation_options_from_dict,
    simulation_options_to_dict,
    trial_metrics_to_dict,
)
from repro.runtime import ParallelExecutor
from repro.runtime.cache import problem_fingerprint
from repro.runtime.opcache import OpCostCache, RegionCostCache, reset_op_caches
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.enginespec import DEFAULT_ENGINE, MAPPER_MODES, EngineSpec
from repro.workloads.graph import Operation, Tensor, TensorKind
from repro.workloads.ops import OpType, is_matrix_op
from repro.workloads.registry import available_workloads, build_workload

SCALAR = EngineSpec("scalar", op_cache=False, region_cache=False)


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    yield
    reset_op_caches()


def _random_configs(count: int, seed: int):
    """Random datapaths drawn from the Table 3 search space."""
    space = DatapathSearchSpace()
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        params = {
            spec.name: spec.choices[int(rng.integers(len(spec.choices)))]
            for spec in space.specs
        }
        try:
            configs.append(space.to_config(params))
        except Exception:
            continue  # invalid combination; draw again
    return configs


#: A 256x256 array needs 32 KiB of private weight scratchpad to stage a
#: stationary tile; 1 KiB fails the structural check (Eq. 5).
UNSCHEDULABLE = DatapathConfig(
    systolic_array_x=256,
    systolic_array_y=256,
    l1_buffer_config=BufferConfig.PRIVATE,
    l1_input_buffer_kib=1,
    l1_weight_buffer_kib=1,
    l1_output_buffer_kib=1,
)


def _matrix_ops(graph):
    return [op for op in graph.ops if is_matrix_op(op.op_type)]


def _problem(m=4096, n=512, k=512, instances=1, depthwise=False, stationary_is_weight=True):
    return MatrixProblem(
        m=m, n=n, k=k, instances=instances,
        stationary_is_weight=stationary_is_weight, is_depthwise=depthwise,
        input_bytes=instances * m * k * 2,
        stationary_bytes=instances * k * n * 2,
        output_bytes=instances * m * n * 2,
    )


def _problems():
    return [
        _problem(),
        _problem(m=1024, n=96, k=9, depthwise=True),
        _problem(m=128, n=128, k=64, instances=16, stationary_is_weight=False),
        _problem(m=50000, n=4096, k=4096),
    ]


def _assert_candidates_match_scalar(problem, arrays, segment, array_x, array_y, capacity):
    """Every candidate in ``segment`` equals the scalar enumeration + estimate."""
    tilings = list(candidate_tilings(problem, array_x, array_y))
    assert len(tilings) == segment.stop - segment.start
    for offset, tiling in enumerate(tilings):
        i = segment.start + offset
        assert Tiling(int(arrays.m_tiles[i]), int(arrays.n_tiles[i]), int(arrays.k_tiles[i])) == tiling
        traffic, fits = estimate_traffic(problem, tiling, capacity)
        assert bool(arrays.fits[i]) == fits
        assert int(arrays.buffer_bytes[i]) == tiling.buffer_bytes(2)
        assert TrafficEstimate(
            float(arrays.input_bytes[i]),
            float(arrays.stationary_bytes[i]),
            float(arrays.output_bytes[i]),
        ) == traffic
        assert float(arrays.total_bytes[i]) == traffic.total_bytes


# ---------------------------------------------------------------------------
class TestCandidateSweep:
    def test_candidate_arrays_match_scalar_enumeration(self):
        problem = _problem(m=5000, n=300, k=700)
        scalar = list(candidate_tilings(problem, 32, 32, max_candidates=48))
        m_tiles, n_tiles, k_tiles = tiling_candidate_arrays(problem, 32, 32, 48)
        assert len(scalar) == len(m_tiles)
        for i, tiling in enumerate(scalar):
            assert (tiling.m_tile, tiling.n_tile, tiling.k_tile) == (
                m_tiles[i], n_tiles[i], k_tiles[i]
            )

    @pytest.mark.parametrize("capacity", [1 << 14, 1 << 20, 1 << 30])
    @pytest.mark.parametrize("depthwise", [False, True])
    def test_single_problem_traffic_matches_scalar_bitwise(self, capacity, depthwise):
        problem = _problem(m=100000, n=257, k=9 if depthwise else 384,
                           instances=3, depthwise=depthwise)
        m, n, k = tiling_candidate_arrays(problem, 32, 32)
        op_index = np.zeros(m.shape[0], dtype=np.int64)
        arrays = estimate_traffic_batch_ops([problem], op_index, m, n, k, capacity)
        _assert_candidates_match_scalar(problem, arrays, slice(0, len(arrays)), 32, 32, capacity)

    def test_stacked_grids_keep_each_problems_layout(self):
        problems = _problems()
        grids = [tiling_candidate_arrays(problem, 128, 128) for problem in problems]
        op_index, m_all, n_all, k_all = stack_candidate_grids(grids)
        offset = 0
        for position, (m, n, k) in enumerate(grids):
            segment = slice(offset, offset + m.shape[0])
            assert np.array_equal(op_index[segment], np.full(m.shape[0], position))
            assert np.array_equal(m_all[segment], m)
            assert np.array_equal(n_all[segment], n)
            assert np.array_equal(k_all[segment], k)
            offset += m.shape[0]
        assert offset == op_index.shape[0]

    @pytest.mark.parametrize("blocking", [1 << 20, 16 << 20, 256 << 20])
    def test_stacked_traffic_matches_scalar_bitwise(self, blocking):
        problems = _problems()
        grids = [tiling_candidate_arrays(problem, 128, 128) for problem in problems]
        arrays = estimate_traffic_batch_ops(
            problems, *stack_candidate_grids(grids), blocking
        )
        offset = 0
        for problem, (m, _, _) in zip(problems, grids):
            segment = slice(offset, offset + m.shape[0])
            _assert_candidates_match_scalar(problem, arrays, segment, 128, 128, blocking)
            offset += m.shape[0]


def _spy_batch_problems(monkeypatch):
    """Record the problem keys of each stacked sweep, one set per sweep."""
    swept = []
    original = Mapper._map_problems_batch

    def spy(self, items):
        keys = [key for key, _, _ in items]
        assert len(set(keys)) == len(keys)  # each problem is swept once
        swept.append(set(keys))
        return original(self, items)

    monkeypatch.setattr(Mapper, "_map_problems_batch", spy)
    return swept


def _spy_mapper_calls(monkeypatch):
    """Count calls of both mapper entry points."""
    calls = {"map_op": 0, "map_ops_batch": 0}
    for name in calls:
        original = getattr(Mapper, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Mapper, name, counted)
    return calls


# ---------------------------------------------------------------------------
class TestMapOpsBatch:
    """``map_ops_batch`` (fast) against ``map_op`` (scalar), op by op."""

    def test_batch_equals_scalar_on_every_workload(self):
        configs = _random_configs(4, seed=7) + [UNSCHEDULABLE]
        mismatches = []
        for workload in available_workloads():
            graph = build_workload(workload, batch_size=1)
            ops = _matrix_ops(graph)
            for index, config in enumerate(configs):
                batched = Mapper(config).map_ops_batch(ops, graph.tensors)
                scalar = Mapper(config)
                for op in ops:
                    if batched[op.name] != scalar.map_op(op, graph.tensors):
                        mismatches.append((workload, index, op.name))
        assert mismatches == []

    @pytest.mark.parametrize(
        "config",
        [TPU_V3, FAST_LARGE, *_random_configs(2, seed=41)],
        ids=["tpu-v3", "fast-large", "draw-0", "draw-1"],
    )
    def test_one_op_batches_equal_scalar_on_every_workload(self, config):
        # A sweep of one problem takes the same segmented selection as a
        # sweep of many, and must pick what the scalar loop picks.
        mismatches = []
        for workload in available_workloads():
            graph = build_workload(workload, batch_size=2)
            tensors = graph.tensors
            for op in _matrix_ops(graph):
                batched = Mapper(config).map_ops_batch([op], tensors)[op.name]
                if batched != Mapper(config).map_op(op, tensors):
                    mismatches.append((workload, op.name))
        assert mismatches == []

    def test_batch_equals_scalar_reference(self, bert_seq128):
        ops = _matrix_ops(bert_seq128)
        config = DatapathConfig()
        batched = Mapper(config).map_ops_batch(ops, bert_seq128.tensors)
        scalar = Mapper(config)
        for op in ops:
            assert batched[op.name] == scalar.map_op(op, bert_seq128.tensors)

    def test_engines_share_one_memo(self, efficientnet_b0, monkeypatch):
        # Ops the scalar loop mapped first are op-cache hits for the batch;
        # the stacked pass costs only the rest, and the outcome is unchanged.
        ops = _matrix_ops(efficientnet_b0)
        tensors = efficientnet_b0.tensors
        config = DatapathConfig()
        shared = OpCostCache()
        mapper = Mapper(config, op_cache=shared)
        first = {op.name: mapper.map_op(op, tensors) for op in ops[::2]}
        swept = _spy_batch_problems(monkeypatch)
        batched = mapper.map_ops_batch(ops, tensors)
        keys = {op.name: mapper._problem_key(extract_problem(op, tensors)) for op in ops}
        left = set(keys.values()) - {keys[name] for name in first}
        assert left and swept == [left]
        fresh_cache = OpCostCache()
        assert batched == Mapper(config, op_cache=fresh_cache).map_ops_batch(ops, tensors)
        assert {name: batched[name] for name in first} == first
        assert shared._memory.keys() == fresh_cache._memory.keys()

    def test_equivalence_covers_chosen_tiling_cycles_and_bytes(self, small_config):
        graph = build_workload("efficientnet-b0", batch_size=2)
        ops = _matrix_ops(graph)
        batched = Mapper(small_config).map_ops_batch(ops, graph.tensors)
        scalar = Mapper(small_config)
        for op in ops:
            a = scalar.map_op(op, graph.tensors)
            b = batched[op.name]
            assert a.tiling == b.tiling
            assert a.dataflow is b.dataflow
            assert a.compute_cycles == b.compute_cycles
            assert a.dram_bytes == b.dram_bytes
            assert a.utilization == b.utilization
        assert ops

    def test_unschedulable_datapath_fails_every_op_in_both_engines(self, efficientnet_b0):
        ops = _matrix_ops(efficientnet_b0)
        batched = Mapper(UNSCHEDULABLE).map_ops_batch(ops, efficientnet_b0.tensors)
        scalar = Mapper(UNSCHEDULABLE)
        for op in ops:
            cost = scalar.map_op(op, efficientnet_b0.tensors)
            assert cost.schedule_failed and batched[op.name] == cost

    def test_single_dataflow_options(self, bert_seq128):
        options = MapperOptions(dataflows=(Dataflow.OUTPUT_STATIONARY,), max_tiling_candidates=12)
        ops = _matrix_ops(bert_seq128)
        config = DatapathConfig()
        batched = Mapper(config, options=options).map_ops_batch(ops, bert_seq128.tensors)
        scalar = Mapper(config, options=options)
        for op in ops:
            assert batched[op.name] == scalar.map_op(op, bert_seq128.tensors)

    def test_batch_labels_each_op_and_dedupes_problems(self, resnet50, monkeypatch):
        ops = _matrix_ops(resnet50)
        mapper = Mapper(DatapathConfig())
        swept = _spy_batch_problems(monkeypatch)
        costs = mapper.map_ops_batch(ops, resnet50.tensors)
        assert set(costs) == {op.name for op in ops}
        for op in ops:
            assert costs[op.name].op_name == op.name
        # ResNet repeats block shapes: the sweep must cost fewer problems
        # than the op list (shared problems computed once).
        assert len(swept) == 1 and len(swept[0]) < len(ops)

    def test_batch_populates_shared_op_cache(self, efficientnet_b0):
        ops = _matrix_ops(efficientnet_b0)
        config = DatapathConfig()
        shared = OpCostCache()
        batched = Mapper(config, op_cache=shared).map_ops_batch(ops, efficientnet_b0.tensors)
        assert shared.stats.puts > 0
        second = Mapper(config, op_cache=shared)
        hits_before = shared.stats.hits
        assert second.map_ops_batch(ops, efficientnet_b0.tensors) == batched
        assert shared.stats.hits > hits_before
        # The scalar engine reads what the fast engine cached.
        for op in ops:
            assert Mapper(config, op_cache=shared).map_op(op, efficientnet_b0.tensors) == batched[op.name]

    def test_empty_batch(self, efficientnet_b0):
        assert Mapper(DatapathConfig()).map_ops_batch([], efficientnet_b0.tensors) == {}

    def test_batch_rejects_vector_ops(self, efficientnet_b0):
        vector_ops = [op for op in efficientnet_b0.ops if not is_matrix_op(op.op_type)]
        with pytest.raises(ValueError):
            Mapper(DatapathConfig()).map_ops_batch(vector_ops[:1], efficientnet_b0.tensors)

    def test_map_trials_batch_is_one_pass_per_entry(self):
        graphs = [build_workload(name, batch_size=1) for name in ("efficientnet-b0", "bert-seq128")]
        configs = _random_configs(3, seed=29)
        entries = [
            (Mapper(config), _matrix_ops(graph), graph.tensors)
            for config in configs
            for graph in graphs
        ]
        batched = Mapper.map_trials_batch(entries)
        assert len(batched) == len(entries)
        for (mapper, ops, tensors), costs in zip(entries, batched):
            assert costs == Mapper(mapper.config).map_ops_batch(ops, tensors)
            scalar = Mapper(mapper.config)
            for op in ops:
                assert costs[op.name] == scalar.map_op(op, tensors)

    def test_map_trials_batch_equals_scalar_random_configs(self):
        graphs = [build_workload(name, batch_size=1) for name in sorted(available_workloads())]
        for config in _random_configs(3, seed=29):
            # One mapper for every graph, as one simulator maps all the
            # workloads of a trial.
            mapper = Mapper(config)
            entries = [(mapper, _matrix_ops(graph), graph.tensors) for graph in graphs]
            batched = Mapper.map_trials_batch(entries)
            scalar = Mapper(config)
            for graph, costs in zip(graphs, batched):
                for op in _matrix_ops(graph):
                    assert costs[op.name] == scalar.map_op(op, graph.tensors), op.name


# ---------------------------------------------------------------------------
class TestRound3:
    """The selection's vectorized ``round(x, 3)`` equals Python's bit for bit."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(2022)
        halves = (rng.integers(0, 10**9, size=10**5) + 0.5) / 1000
        near_halves = [halves, -halves]
        for direction in (np.inf, -np.inf):
            step = halves
            for _ in range(2):  # the one- and two-ulp neighbours
                step = np.nextafter(step, direction)
                near_halves.append(step)
        edge = 2.0**52 / 1000  # from here up, x * 1000 is never a fraction
        specials = [
            0.0, -0.0, np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
            edge * 1.5, edge * 1000, edge * 4096 + 0.5, 1e300,
            np.finfo(np.float64).max, np.inf, -np.inf, np.nan,
            5118.2165, 7247.8994999999995,
        ]
        return np.concatenate(
            [
                rng.uniform(0.0, 10.0, 10**5),
                rng.uniform(0.0, 1e9, 10**5),
                rng.exponential(1e5, 10**5),
                *near_halves,
                np.arange(1, 2 * 10**5, 2) / 16,  # j / 16 for odd j: exact halves
                np.array(specials),
            ]
        )

    def test_equals_round_bit_for_bit(self):
        values = self._inputs()
        expected = np.array([round(value, 3) for value in values.tolist()])
        got = _round3(values)
        wrong = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
        assert wrong.size == 0, values[wrong[:5]].tolist()

    @pytest.mark.parametrize(
        "value, rounded", [(5118.2165, 5118.217), (7247.8994999999995, 7247.899)]
    )
    def test_the_bare_formula_needs_the_guard(self, value, rounded):
        assert round(value, 3) == rounded
        assert np.rint(value * 1000.0) / 1000.0 != rounded
        assert np.round(value, 3) != rounded
        assert _round3(np.array([value]))[0] == rounded


def _synthetic_ops(seed: int, count: int):
    """Seeded matrix ops whose problems no registered workload makes.

    Grouped (multi-instance) convolutions, depthwise convolutions, matmuls
    and attention-style einsums, whose stationary operand is an activation,
    with every dimension drawn log-uniformly from 1 to thousands: below, at
    and above every array dimension.  Returns ``(ops, tensors)``.
    """
    rng = np.random.default_rng(seed)
    tensors = {}

    def dim(high):
        return int(np.exp(rng.uniform(0.0, np.log(high))))

    def tensor(name, shape, kind=TensorKind.ACTIVATION):
        tensors[name] = Tensor(name, tuple(int(d) for d in shape), kind=kind)
        return name

    ops = []
    for index in range(count):
        name = f"synthetic{index}"
        m, n, k = dim(60000), dim(4096), dim(4096)
        streamed = tensor(f"{name}.in", (m, k))
        output = f"{name}.out"
        if index % 4 == 0:
            groups = int(rng.choice([1, 2, 4, 8]))
            kernel = int(rng.choice([1, 3]))
            weight = tensor(f"{name}.w", (kernel, kernel, k, n * groups), TensorKind.WEIGHT)
            tensor(output, (1, m, 1, n * groups))
            op = Operation(
                name, OpType.CONV2D, [streamed, weight], [output],
                {"kernel": (kernel, kernel), "in_features": k * groups, "groups": groups},
            )
        elif index % 4 == 1:
            kernel = int(rng.choice([3, 5]))
            weight = tensor(f"{name}.w", (kernel, kernel, n), TensorKind.WEIGHT)
            tensor(output, (1, m, 1, n))
            op = Operation(
                name, OpType.DEPTHWISE_CONV2D, [streamed, weight], [output],
                {"kernel": (kernel, kernel)},
            )
        elif index % 4 == 2:
            weight = tensor(f"{name}.w", (k, n), TensorKind.WEIGHT)
            tensor(output, (m, n))
            op = Operation(
                name, OpType.MATMUL, [streamed, weight], [output], {"contracting_dim": k}
            )
        else:
            batch, heads = dim(8), dim(16)
            m = min(m, 2048)
            other = tensor(f"{name}.kv", (batch, heads, k, n))
            tensor(output, (batch, heads, m, n))
            op = Operation(
                name, OpType.EINSUM, [streamed, other], [output], {"contracting_dim": k}
            )
        ops.append(op)
    return ops, tensors


def _synthetic_configs(seed: int, count: int):
    """Seeded datapaths over array shapes, blocking capacities and DRAM bandwidths.

    GDDR6 at 1.75, 3.5 and 7 GHz moves a power-of-two number of bytes per
    cycle (56 GB/s a channel), so some candidates' DRAM cycles land exactly
    on a half-thousandth, where ``round(x, 3)`` rounds half to even.
    """
    rng = np.random.default_rng(seed)

    def pick(choices):
        return choices[int(rng.integers(len(choices)))]

    return [
        DatapathConfig(
            pes_x_dim=pick([1, 2, 4, 8]),
            pes_y_dim=pick([1, 2, 4, 8]),
            systolic_array_x=pick([4, 8, 16, 32, 64, 128, 256]),
            systolic_array_y=pick([4, 8, 16, 32, 64, 128, 256]),
            l1_buffer_config=pick(list(BufferConfig)),
            l1_input_buffer_kib=pick([1, 2, 8, 64, 512]),
            l1_weight_buffer_kib=pick([16, 32, 64, 256, 1024]),
            l1_output_buffer_kib=pick([1, 2, 8, 64, 512]),
            l2_buffer_config=pick(list(L2Config)),
            l3_global_buffer_mib=pick([0, 0, 1, 4, 32]),
            gddr6_channels=pick([1, 2, 4, 8]),
            memory_technology=pick([MemoryTechnology.GDDR6] * 3 + [MemoryTechnology.HBM2]),
            clock_ghz=pick([0.94, 1.1, 1.75, 3.5, 7.0]),
        )
        for _ in range(count)
    ]


#: 18 KiB of blocking capacity: large problems have no candidate that fits.
TIGHT = DatapathConfig(
    systolic_array_x=128,
    systolic_array_y=128,
    l1_buffer_config=BufferConfig.PRIVATE,
    l1_input_buffer_kib=1,
    l1_weight_buffer_kib=16,
    l1_output_buffer_kib=1,
    l3_global_buffer_mib=0,
    clock_ghz=1.75,
)


class TestSyntheticProblems:
    """The fast engine against the scalar one beyond the workloads' own ops."""

    def test_batch_equals_scalar_on_seeded_problems_and_datapaths(self, monkeypatch):
        ops, tensors = _synthetic_ops(seed=5, count=96)
        rounded = []
        original_round3 = mapper_module._round3

        def recording_round3(values):
            rounded.append(values)
            return original_round3(values)

        monkeypatch.setattr(mapper_module, "_round3", recording_round3)
        mismatches, failed = [], collections.Counter()
        for index, config in enumerate(_synthetic_configs(seed=11, count=16) + [TIGHT]):
            batched = Mapper(config).map_ops_batch(ops, tensors)
            scalar = Mapper(config)
            for op in ops:
                cost = scalar.map_op(op, tensors)
                failed[cost.schedule_failed] += 1
                if batched[op.name] != cost:
                    mismatches.append((index, op.name))
        assert mismatches == []
        assert failed[True] and failed[False]  # nothing fits, and winners
        scaled = np.concatenate(rounded) * 1000.0
        assert np.any(scaled - np.floor(scaled) == 0.5)  # ties reached the rounding

    def test_a_new_pe_count_shares_the_grids(self, monkeypatch):
        # The PE count enters only compute cycles and utilization: a datapath
        # that differs from a mapped one only in its PE grid builds no
        # candidate grid, and still equals the scalar engine.
        monkeypatch.setattr(mapper_module, "_GRID_MEMO", {})
        monkeypatch.setattr(mapper_module, "_PREP_MEMO", {})
        builds = []
        original = mapper_module.tiling_candidate_arrays

        def counting(*args, **kwargs):
            builds.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(mapper_module, "tiling_candidate_arrays", counting)
        ops, tensors = _synthetic_ops(seed=17, count=48)
        first = DatapathConfig(
            systolic_array_x=64, systolic_array_y=16, pes_x_dim=2, pes_y_dim=4, clock_ghz=3.5
        )
        Mapper(first).map_ops_batch(ops, tensors)
        assert builds
        builds.clear()
        second = replace(first, pes_x_dim=8, pes_y_dim=16)
        batched = Mapper(second).map_ops_batch(ops, tensors)
        assert builds == []
        scalar = Mapper(second)
        assert all(batched[op.name] == scalar.map_op(op, tensors) for op in ops)
        assert sum(not cost.schedule_failed for cost in batched.values()) > len(ops) // 2


class TestMapperCacheTraffic:
    def test_a_short_search_keeps_its_lookups_and_shares_grids(self, monkeypatch):
        # Every op- and region-cache get and put and every map_ops_batch
        # call of this search is pinned; they equal the counts of the
        # engine that built one candidate grid per PE count, which built
        # 312 grids here.  Sharing grids across PE counts builds fewer.  The
        # op cache holds mapped ops only: each of the 416 problems the
        # batches mapped is one get and one put (vector ops, priced from
        # their plans, made 1,322 gets and 982 puts of it before).
        monkeypatch.setattr(mapper_module, "_GRID_MEMO", {})
        monkeypatch.setattr(mapper_module, "_PREP_MEMO", {})
        counts = collections.Counter()

        def count(target, name, label, sized=None):
            original = getattr(target, name)

            def counted(*args, **kwargs):
                counts[label] += 1
                if sized is not None:
                    counts[sized] += len(args[1])
                return original(*args, **kwargs)

            monkeypatch.setattr(target, name, counted)

        count(OpCostCache, "get", "op_gets")
        count(OpCostCache, "put", "op_puts")
        count(RegionCostCache, "get", "region_gets")
        count(RegionCostCache, "put", "region_puts")
        count(Mapper, "map_ops_batch", "map_ops_batch", sized="ops")
        count(mapper_module, "tiling_candidate_arrays", "grids")
        problem = SearchProblem(["efficientnet-b0", "bert-seq128"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(
            problem, simulation_options=DEFAULT_ENGINE.to_simulation_options(fusion_solver="greedy")
        )
        FASTSearch(problem, optimizer="annealing", seed=0, evaluator=evaluator).run(
            num_trials=16, batch_size=4
        )
        assert counts.pop("grids") == 208 < 312
        assert counts == {
            "op_gets": 416,
            "op_puts": 416,
            "region_gets": 363,
            "region_puts": 323,
            "map_ops_batch": 16,
            "ops": 501,
        }


# ---------------------------------------------------------------------------
def _simulate(graph, config, engine: EngineSpec):
    simulator = Simulator(config, engine.to_simulation_options(fusion_solver="greedy"))
    return simulator.simulate(graph)


def _result_signature(result):
    return (
        result.schedule_failed,
        [
            (
                record.index,
                record.compute_cycles,
                record.vector_cycles,
                record.dram_input_bytes,
                record.dram_weight_bytes,
                record.dram_output_bytes,
                record.pre_fusion_cycles,
                post_fusion_cycles,
                record.matrix_utilization,
                fusion,
                record.op_busy_cycles,
            )
            for record, post_fusion_cycles, fusion in zip(
                result.regions,
                result.region_post_fusion_cycles,
                result.region_fusion_decisions,
                strict=True,
            )
        ],
        result.qps if not result.schedule_failed else None,
    )


FAST_UNCACHED = EngineSpec(op_cache=False, region_cache=False)


class TestSimulateEquivalence:
    @pytest.mark.parametrize("workload", sorted(available_workloads()))
    def test_engines_identical_per_workload(self, workload):
        graph = build_workload(workload, batch_size=1)
        config = DatapathConfig()
        reference = _result_signature(_simulate(graph, config, SCALAR))
        assert _result_signature(_simulate(graph, config, FAST_UNCACHED)) == reference
        assert _result_signature(_simulate(graph, config, DEFAULT_ENGINE)) == reference

    def test_random_datapaths_identical(self, efficientnet_b0):
        for config in _random_configs(4, seed=23) + [UNSCHEDULABLE]:
            scalar = _simulate(efficientnet_b0, config, SCALAR)
            fast = _simulate(efficientnet_b0, config, FAST_UNCACHED)
            assert _result_signature(fast) == _result_signature(scalar)

    def test_each_engine_calls_only_its_own_entry_point(self, efficientnet_b0, monkeypatch):
        calls = _spy_mapper_calls(monkeypatch)
        config = DatapathConfig()
        _simulate(efficientnet_b0, config, SCALAR)
        assert calls["map_op"] > 0 and calls["map_ops_batch"] == 0
        calls["map_op"] = 0
        _simulate(efficientnet_b0, config, FAST_UNCACHED)
        assert calls == {"map_op": 0, "map_ops_batch": 1}
        ops = _matrix_ops(efficientnet_b0)
        Mapper.map_trials_batch([(Mapper(config), ops, efficientnet_b0.tensors)])
        assert calls == {"map_op": 0, "map_ops_batch": 1}

    @pytest.mark.parametrize("warm_mapper", MAPPER_MODES)
    def test_region_cache_is_shared_across_engines(
        self, efficientnet_b0, warm_mapper, monkeypatch
    ):
        # Region keys carry no engine, so regions priced by one engine serve
        # the other without running its mapper.
        config = DatapathConfig()
        cold_mapper = next(mapper for mapper in MAPPER_MODES if mapper != warm_mapper)
        reference = _result_signature(_simulate(efficientnet_b0, config, SCALAR))
        _simulate(efficientnet_b0, config, EngineSpec(warm_mapper, op_cache=False))
        simulator = Simulator(
            config,
            EngineSpec(cold_mapper, op_cache=False).to_simulation_options(fusion_solver="greedy"),
        )
        misses = simulator.region_cache.stats.misses
        calls = _spy_mapper_calls(monkeypatch)
        result = simulator.simulate(efficientnet_b0)
        assert simulator.region_cache.stats.misses == misses
        assert calls == {"map_op": 0, "map_ops_batch": 0}
        assert _result_signature(result) == reference


# ---------------------------------------------------------------------------
def _history(workload, engine: EngineSpec, executor=None):
    problem = SearchProblem([workload], ObjectiveKind.PERF_PER_TDP)
    evaluator = TrialEvaluator(
        problem, simulation_options=engine.to_simulation_options(fusion_solver="greedy")
    )
    search = FASTSearch(
        problem, optimizer="lcs", seed=3, evaluator=evaluator, executor=executor
    )
    result = search.run(num_trials=8, batch_size=4)
    return [trial_metrics_to_dict(m) for m in result.history], result


class TestSearchEquivalence:
    @pytest.mark.parametrize("workload", sorted(available_workloads()))
    def test_search_history_identical_across_engines(self, workload):
        reference, _ = _history(workload, SCALAR)
        reset_op_caches()
        fast, result = _history(workload, DEFAULT_ENGINE)
        assert fast == reference
        assert result.runtime.engine == "graph-batched"

    def test_two_worker_searches_match_serial_scalar(self):
        reference, _ = _history("efficientnet-b0", SCALAR)
        for engine in (DEFAULT_ENGINE, SCALAR):
            reset_op_caches()
            with ParallelExecutor(num_workers=2) as executor:
                history, result = _history("efficientnet-b0", engine, executor)
                counters = executor.runtime_counters()
            assert history == reference
            # The workers report the engine they resolved: proof the pool
            # inherited the parent's spec rather than a silent default.
            assert counters["engine"] == str(engine)
            assert result.runtime.engine == str(engine)

    def test_evaluate_params_batch_equals_per_trial(self):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(
            problem, simulation_options=SimulationOptions(fusion_solver="greedy")
        )
        space = DatapathSearchSpace()
        rng = np.random.default_rng(7)
        params = [
            {
                spec.name: spec.choices[int(rng.integers(len(spec.choices)))]
                for spec in space.specs
            }
            for _ in range(3)
        ]
        batch = evaluator.evaluate_params_batch(params, space)
        per_trial = [evaluator.evaluate_params(p, space) for p in params]
        assert [trial_metrics_to_dict(m) for m in batch] == [
            trial_metrics_to_dict(m) for m in per_trial
        ]


# ---------------------------------------------------------------------------
class TestEngineSpec:
    def test_default(self):
        spec = EngineSpec()
        assert spec.mapper == "graph-batched"
        assert spec.op_cache and spec.region_cache
        assert spec == DEFAULT_ENGINE
        assert str(spec) == "graph-batched"
        assert MAPPER_MODES == ("scalar", "graph-batched")

    @pytest.mark.parametrize("mapper", MAPPER_MODES)
    def test_parse_bare_mapper(self, mapper):
        assert EngineSpec.parse(mapper).mapper == mapper

    def test_parse_options(self):
        spec = EngineSpec.parse("scalar:op_cache=off,region_store=runs/r.jsonl")
        assert spec.mapper == "scalar"
        assert spec.op_cache is False
        assert spec.region_cache is True
        assert spec.region_store == "runs/r.jsonl"

    def test_parse_bare_options_default_mapper(self):
        spec = EngineSpec.parse("region_cache=no")
        assert spec.mapper == "graph-batched"
        assert spec.region_cache is False

    def test_parse_empty_is_default(self):
        assert EngineSpec.parse("") == EngineSpec()
        assert EngineSpec.parse("  ") == EngineSpec()
        assert EngineSpec.parse(None) == EngineSpec()

    def test_parse_dash_keys_and_bool_words(self):
        spec = EngineSpec.parse("graph-batched:op-cache=0,region-cache=true")
        assert spec.op_cache is False and spec.region_cache is True

    @pytest.mark.parametrize(
        "text",
        [
            "warp-speed",
            "graph-batched:op_cache=maybe",
            "graph-batched:flux_capacitor=on",
            "graph-batched:op_cache",
            "graph-batched:region_store=",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            EngineSpec.parse(text)

    @pytest.mark.parametrize("text", ["vectorized", "trial-batched", "trial-batched:op_cache=off"])
    def test_parse_rejects_retired_mappers_naming_the_choices(self, text):
        with pytest.raises(ValueError, match="expected one of: scalar, graph-batched"):
            EngineSpec.parse(text)

    @pytest.mark.parametrize(
        "text",
        ["backend=numpy", "graph-batched:backend=torch", "graph-batched:cache_service=http://h:1"],
    )
    def test_parse_rejects_backend_naming_the_choices(self, text):
        with pytest.raises(
            ValueError, match=r"expected one of: op_cache, region_cache, region_store\)"
        ):
            EngineSpec.parse(text)

    @pytest.mark.parametrize(
        "spec",
        [
            EngineSpec(),
            EngineSpec(mapper="scalar"),
            EngineSpec(mapper="scalar", op_cache=False, region_cache=False),
            EngineSpec(op_cache=False, region_store="r.jsonl"),
        ],
    )
    def test_str_round_trips(self, spec):
        assert EngineSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize("mapper", MAPPER_MODES)
    def test_simulation_options_round_trip(self, mapper):
        spec = EngineSpec(mapper=mapper, op_cache=(mapper != "scalar"))
        options = spec.to_simulation_options(fusion_solver="greedy")
        assert options.mapper_engine == mapper
        assert EngineSpec.from_simulation_options(options) == spec

    def test_from_default_simulation_options(self):
        options = SimulationOptions(fusion_solver="greedy")
        assert EngineSpec.from_simulation_options(options) == EngineSpec()

    def test_simulation_options_reject_unknown_engine(self):
        with pytest.raises(ValueError, match="scalar, graph-batched"):
            SimulationOptions(mapper_engine="trial-batched")

    def test_serialization_preserves_engine_fields(self):
        spec = EngineSpec(mapper="scalar", op_cache=False, region_store="r.jsonl")
        options = spec.to_simulation_options(fusion_solver="greedy")
        rebuilt = simulation_options_from_dict(simulation_options_to_dict(options))
        assert EngineSpec.from_simulation_options(rebuilt) == spec

    def test_old_serialized_options_still_load(self):
        old = {
            "enable_fast_fusion": None,
            "fusion_solver": "greedy",
            "vectorized_mapper": False,
            "graph_batched_mapper": True,
            "trial_batched_mapper": True,
            "backend": "torch",
            "region_cache_enabled": False,
            "op_cache_enabled": True,
            "op_cache_path": None,
            "region_store_path": None,
            "region_cache_service": None,
            "mapper_options": {
                "dataflows": ["weight_stationary"],
                "max_tiling_candidates": 24,
                "padding_max_overhead": 0.1,
                "vectorize": False,
                "backend": "cupy",
            },
        }
        options = simulation_options_from_dict(old)
        assert options.mapper_options == MapperOptions(
            dataflows=(Dataflow.WEIGHT_STATIONARY,),
            max_tiling_candidates=24,
            padding_max_overhead=0.1,
        )
        assert options.region_cache_enabled is False
        assert EngineSpec.from_simulation_options(options).mapper == "graph-batched"

    @pytest.mark.parametrize(
        "flags",
        [
            {"vectorized_mapper": False, "graph_batched_mapper": False, "trial_batched_mapper": False},
            {"vectorized_mapper": True, "graph_batched_mapper": False, "trial_batched_mapper": False},
            {"vectorized_mapper": True, "graph_batched_mapper": True, "trial_batched_mapper": False},
            {"vectorized_mapper": True, "graph_batched_mapper": True, "trial_batched_mapper": True},
        ],
        ids=["scalar", "vectorized", "graph-batched", "trial-batched"],
    )
    def test_options_written_by_every_retired_engine_keep_the_fingerprint(self, flags):
        # The shape the four-engine options serializer wrote, engine by engine.
        # Every engine fingerprinted this problem 716a9ba83acf7807, so the
        # trial caches and checkpoints they left behind must still match.
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        old = {
            key: value
            for key, value in simulation_options_to_dict(
                SimulationOptions(fusion_solver="greedy")
            ).items()
            if key != "mapper_engine"
        }
        options = simulation_options_from_dict({**old, **flags, "backend": "numpy"})
        assert EngineSpec.from_simulation_options(options) == EngineSpec()
        evaluator = TrialEvaluator(problem, simulation_options=options)
        assert problem_fingerprint(problem, evaluator) == "716a9ba83acf7807"

    def test_engine_choice_never_moves_the_fingerprint(self):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)

        def fingerprint(engine):
            evaluator = TrialEvaluator(
                problem,
                simulation_options=engine.to_simulation_options(fusion_solver="greedy"),
            )
            return problem_fingerprint(problem, evaluator)

        reference = fingerprint(DEFAULT_ENGINE)
        assert fingerprint(SCALAR) == reference
        assert fingerprint(EngineSpec(region_store="r.jsonl")) == reference
