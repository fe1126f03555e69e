"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.runtime.telemetry import get_tracer


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--workload", "resnet50"])
        assert args.design == "tpu-v3"
        assert args.batch_size is None

    def test_search_accepts_repeated_workloads(self):
        args = build_parser().parse_args(
            ["search", "--workload", "resnet50", "--workload", "bert-seq128"]
        )
        assert args.workload == ["resnet50", "bert-seq128"]

    def test_search_runtime_defaults(self):
        args = build_parser().parse_args(["search", "--workload", "resnet50"])
        assert args.workers == 1
        assert args.batch_size == 8
        assert args.cache is None
        assert args.checkpoint is None
        assert args.resume is None
        assert not args.progress

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "--workload", "resnet50"])
        assert args.shards == 4
        assert args.trials == 48
        assert args.shard_index is None
        assert args.merge is None
        assert args.mode == "seed"

    def test_cache_compact_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "compact"])
        args = build_parser().parse_args(["cache", "compact", "--cache", "x.jsonl"])
        assert args.cache == "x.jsonl"
        assert args.max_entries is None


class TestCommands:
    def test_list_designs(self, capsys):
        assert main(["list-designs"]) == 0
        out = capsys.readouterr().out
        assert "fast-large" in out and "tpu-v3" in out

    def test_simulate_small_workload(self, capsys):
        code = main(
            ["simulate", "--design", "fast-small", "--workload", "efficientnet-b0",
             "--batch-size", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput (QPS)" in out
        assert "Perf/TDP" in out

    def test_simulate_unknown_design_fails(self, capsys):
        assert main(["simulate", "--design", "gpu-v100", "--workload", "resnet50"]) == 1
        assert "unknown design" in capsys.readouterr().out

    def test_characterize(self, capsys):
        assert main(["characterize", "--workload", "efficientnet-b0"]) == 0
        out = capsys.readouterr().out
        assert "op intensity (no fusion)" in out
        assert "max working set" in out

    def test_roi(self, capsys):
        assert main(["roi", "--speedup", "3.9", "--volume", "4000"]) == 0
        out = capsys.readouterr().out
        assert "break-even volume" in out

    def test_reproduce_list(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig13" in out

    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        assert "efficientnet-b0" in capsys.readouterr().out

    def test_reproduce_bad_option_format(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "table1", "--option", "badoption"])

    def test_reproduce_unknown_option_is_an_error(self, capsys):
        assert main(["reproduce", "fig11", "--option", "trails=8"]) != 0
        err = capsys.readouterr().err
        assert "'trails'" in err
        for name in ("workload", "trials"):
            assert f"{name}=" in err

    def test_reproduce_unknown_experiment_is_an_error(self, capsys):
        assert main(["reproduce", "fig99"]) != 0
        assert "fig99" in capsys.readouterr().err

    @pytest.mark.parametrize("value, batches", [("1,64", ["1", "64"]), ("8", ["8"])])
    def test_reproduce_sequence_options(self, capsys, value, batches):
        assert main(["reproduce", "fig3", "--option", f"batch_sizes={value}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split()[:2] for line in lines if line.startswith("efficientnet-b0")]
        assert rows == [["efficientnet-b0", batch] for batch in batches]

    def test_search_writes_outputs(self, tmp_path, capsys):
        result_path = tmp_path / "result.json"
        config_path = tmp_path / "design.json"
        code = main(
            [
                "search",
                "--workload", "efficientnet-b0",
                "--trials", "4",
                "--optimizer", "random",
                "--output", str(result_path),
                "--save-config", str(config_path),
            ]
        )
        out = capsys.readouterr().out
        # A 4-trial random search may find nothing feasible; both outcomes are
        # valid CLI behaviour, but the process must not crash.
        assert code in (0, 1)
        if code == 0:
            assert "Best design found" in out
            assert json.loads(result_path.read_text())["num_trials"] == 4
            assert config_path.exists()

    def test_search_op_cache_and_scalar_engine(self, tmp_path, capsys):
        store = tmp_path / "opcache.jsonl"
        code = main(
            [
                "search",
                "--workload", "mobilenet-v2",
                "--trials", "4",
                "--optimizer", "random",
                "--op-cache", str(store),
            ]
        )
        assert code in (0, 1)
        capsys.readouterr()
        code = main(
            [
                "search",
                "--workload", "mobilenet-v2",
                "--trials", "4",
                "--optimizer", "random",
                "--engine", "scalar:op_cache=off,region_cache=off",
            ]
        )
        assert code in (0, 1)
        capsys.readouterr()

    def test_search_region_cache_off_engine_matches_default(self, tmp_path, capsys):
        payloads = {}
        for engine in ("graph-batched", "graph-batched:region_cache=off"):
            output = tmp_path / "result.json"
            code = main(
                [
                    "search",
                    "--workload", "mobilenet-v2",
                    "--trials", "4",
                    "--optimizer", "random",
                    "--engine", engine,
                    "--output", str(output),
                ]
            )
            assert code == 0
            capsys.readouterr()
            payloads[engine] = json.loads(output.read_text())
        off = payloads.pop("graph-batched:region_cache=off")
        default = payloads.pop("graph-batched")
        assert off.pop("runtime")["engine"] == "graph-batched:region_cache=off"
        assert default.pop("runtime")["engine"] == "graph-batched"
        assert off == default

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--scalar-mapper"],
            ["search", "--per-op-mapper"],
            ["search", "--no-op-cache"],
            ["search", "--no-region-cache"],
            ["sweep", "--no-op-cache"],
            ["profile", "--check-backends"],
        ],
    )
    def test_removed_engine_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workload", "mobilenet-v2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_search_rejects_retired_engine_spec(self, capsys):
        for spec, choices in (
            ("trial-batched", "scalar, graph-batched"),
            ("graph-batched:cache_service=http://h:1", "op_cache, region_cache, region_store"),
        ):
            code = main(["search", "--workload", "mobilenet-v2", "--engine", spec])
            assert code == 1
            assert f"expected one of: {choices}" in capsys.readouterr().out

    def test_sweep_shared_op_cache_flag(self, tmp_path, capsys):
        store = tmp_path / "sweep-opcache.jsonl"
        code = main(
            [
                "sweep",
                "--workload", "mobilenet-v2",
                "--trials", "4",
                "--shards", "2",
                "--optimizer", "random",
                "--batch-size", "2",
                "--op-cache", str(store),
            ]
        )
        assert code in (0, 1)
        assert store.exists()
        capsys.readouterr()

    def test_profile_smoke_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        caller_tracer = get_tracer()
        code = main(
            [
                "profile",
                "--workload", "mobilenet-v2",
                "--trials", "4",
                "--batch-size", "2",
                "--output", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "vs scalar" in out
        assert "equivalence: all modes reproduced" in out
        payload = json.loads(out_path.read_text())
        assert payload["histories_match"] is True
        modes = [record["mode"] for record in payload["records"]]
        assert modes == [
            "scalar",
            "graph-batched",
            "graph-batched+region-cache",
            "graph-batched+op-cache",
            "graph-batched+caches",
            "parallel-2",
        ]
        engines = {record["mode"]: record["engine"] for record in payload["records"]}
        assert engines["scalar"] == "scalar:op_cache=off,region_cache=off"
        assert engines["parallel-2"] == "graph-batched"
        # Stage columns are span totals; the pool row's come from its workers.
        stages = {record["mode"]: record["stage_seconds"] for record in payload["records"]}
        assert all(stage["evaluate"] > 0 for stage in stages.values())
        assert stages["scalar"]["mapper"] > 0
        assert get_tracer() is caller_tracer

    def test_sweep_smoke_golden_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--workload", "efficientnet-b0",
                "--trials", "8",
                "--shards", "2",
                "--optimizer", "random",
                "--batch-size", "4",
                "--cache", str(tmp_path / "cache.jsonl"),
                "--output", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        # A tiny random sweep may find nothing feasible; either way the
        # per-shard table and merged summary must render.
        assert code in (0, 1)
        assert "Shard" in out and "Best score" in out
        assert "Merged sweep" in out
        assert "unique trials       8" in out
        assert "duplicates removed" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["shards"]) == 2
        assert payload["num_trials"] == 8
        # the shared cache produced one sidecar per shard
        assert sorted(p.name for p in tmp_path.glob("cache.jsonl.shard-*")) == [
            "cache.jsonl.shard-0", "cache.jsonl.shard-1",
        ]

    def test_sweep_shard_index_then_merge(self, tmp_path, capsys):
        shard_files = []
        for k in range(2):
            path = tmp_path / f"shard-{k}.json"
            code = main(
                [
                    "sweep",
                    "--workload", "efficientnet-b0",
                    "--trials", "8",
                    "--shards", "2",
                    "--shard-index", str(k),
                    "--optimizer", "random",
                    "--batch-size", "4",
                    "--output", str(path),
                ]
            )
            assert code == 0
            assert path.exists()
            shard_files.append(str(path))
        out = capsys.readouterr().out
        assert "Shard complete" in out

        code = main(["sweep", "--merge"] + shard_files)
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "Merged sweep" in out
        assert "unique trials       8" in out

    def test_sweep_requires_workload_or_merge(self, capsys):
        assert main(["sweep", "--trials", "4"]) == 1
        assert "--workload is required" in capsys.readouterr().out

    def test_sweep_rejects_bad_space_partition(self, capsys):
        base = ["sweep", "--workload", "efficientnet-b0", "--trials", "4",
                "--mode", "space"]
        assert main(base + ["--shards", "2", "--partition-axis", "nope"]) == 1
        assert "unknown partition axis" in capsys.readouterr().out
        assert main(base + ["--shards", "99", "--partition-axis", "l1_buffer_config"]) == 1
        assert "cannot split axis" in capsys.readouterr().out

    def test_cache_compact_golden_output(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.jsonl"
        code = main(
            [
                "search",
                "--workload", "efficientnet-b0",
                "--trials", "4",
                "--optimizer", "random",
                "--batch-size", "2",
                "--cache", str(cache_path),
            ]
        )
        assert code in (0, 1)
        capsys.readouterr()
        code = main(["cache", "compact", "--cache", str(cache_path), "--max-entries", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cache compaction" in out
        assert "entries kept        2" in out
        assert "entries evicted     2" in out
        assert len(cache_path.read_text().splitlines()) == 2

    def test_cache_compact_refuses_op_and_region_stores(self, tmp_path, capsys):
        from repro.runtime.opcache import reset_op_caches

        ops, regions = tmp_path / "ops.jsonl", tmp_path / "regions.jsonl"
        reset_op_caches()  # the stores load, and are written, by this process
        try:
            code = main(
                [
                    "search",
                    "--workload", "efficientnet-b0",
                    "--trials", "4",
                    "--optimizer", "random",
                    "--batch-size", "2",
                    "--op-cache", str(ops),
                    "--engine", f"graph-batched:region_store={regions}",
                ]
            )
        finally:
            reset_op_caches()
        assert code in (0, 1)
        capsys.readouterr()
        for store in (ops, regions):
            before = store.read_bytes()
            assert before  # the search wrote records
            assert main(["cache", "compact", "--cache", str(store)]) == 1
            assert "another kind of store" in capsys.readouterr().out
            assert store.read_bytes() == before

    def test_cache_compact_missing_store_fails(self, tmp_path, capsys):
        code = main(["cache", "compact", "--cache", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "no cache store" in capsys.readouterr().out

    def test_search_parallel_cache_and_resume(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.jsonl"
        ckpt_path = tmp_path / "search.ckpt"
        base = [
            "search",
            "--workload", "efficientnet-b0",
            "--optimizer", "lcs",
            "--seed", "0",
            "--workers", "2",
            "--batch-size", "4",
            "--cache", str(cache_path),
        ]
        code = main(base + ["--trials", "8", "--checkpoint", str(ckpt_path), "--progress"])
        assert code in (0, 1)
        assert ckpt_path.exists()
        capsys.readouterr()
        # Resume to a larger budget; earlier trials are restored, later ones
        # come from the checkpointed optimizer state (and hit the cache only
        # if re-proposed).
        code = main(base + ["--trials", "12", "--resume", str(ckpt_path)])
        assert code in (0, 1)
        out = capsys.readouterr().out
        if code == 0:
            assert "trials/sec" in out
            assert "resumed trials" in out
