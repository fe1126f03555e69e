#!/usr/bin/env bash
# CI smoke suite — the exact invocations CI runs, runnable locally:
#
#   scripts/ci_smoke.sh [all|search|sweep|profile|mapper-equiv|figures|remote|telemetry|chaos|cache-tier|coverage]
#
# `all` (the default) runs every smoke except `coverage`, which is its own
# CI job.  Artifacts land in $SMOKE_DIR (default: a fresh temp dir); CI sets
# SMOKE_DIR to a fixed path and uploads the JSON artifacts from there.
#
# Smokes fail on crashes, non-zero exits, and equivalence breaks — never on
# timing, so they stay reliable on loaded CI runners.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
SMOKE_DIR="${SMOKE_DIR:-$(mktemp -d /tmp/repro-smoke.XXXXXX)}"
mkdir -p "$SMOKE_DIR"

log() { printf '\n=== %s ===\n' "$*"; }

# --------------------------------------------------------------------------
# 1. Parallel search smoke (runtime subsystem: workers, cache, checkpoint):
#    48 LCS trials at batch 8 run past LCS's 24 random trials into breeding,
#    on a 2-worker pool and serially; proposals and history must be equal.
# --------------------------------------------------------------------------
smoke_search() {
    log "search smoke: LCS breeding on 2 workers (cache, checkpoint, progress) == serial"
    local common=(--workload efficientnet-b0 --optimizer lcs --trials 48 --batch-size 8
                  --seed 0 --history)
    python -m repro search "${common[@]}" \
        --workers 2 \
        --cache "$SMOKE_DIR/trials.jsonl" --checkpoint "$SMOKE_DIR/search.ckpt" \
        --progress --output "$SMOKE_DIR/search-pool.json"
    python -m repro search "${common[@]}" \
        --workers 1 --output "$SMOKE_DIR/search-serial.json"

    python - "$SMOKE_DIR/search-serial.json" "$SMOKE_DIR/search-pool.json" <<'PY'
import json, sys
serial, pool = (json.load(open(path)) for path in sys.argv[1:3])
feasible = sum(bool(trial.get("feasible")) for trial in serial["history"][:24])
if feasible < 2:
    raise SystemExit(f"only {feasible} of the 24 random trials were feasible: LCS never bred")
for key in ("proposals", "history", "best_score_curve", "best_score"):
    if serial.get(key) != pool.get(key):
        raise SystemExit(f"the 2-worker search diverged from the serial one on {key!r}")
print("2 workers == serial bit-for-bit over", len(serial["history"]), "trials,",
      len(serial["history"]) - 24, "of them bred by LCS from", feasible, "feasible random trials")
PY
}

# --------------------------------------------------------------------------
# 2. Sharded sweep smoke (2 shards, shared cache, compaction read back)
# --------------------------------------------------------------------------
smoke_sweep() {
    log "sweep smoke: 2 shards, shared cache, exchange, compaction"
    local store="$SMOKE_DIR/sweep-trials.jsonl"
    rm -f "$store" "$store".shard-*
    python -m repro sweep \
        --workload efficientnet-b0 --trials 16 --shards 2 \
        --optimizer random --batch-size 4 \
        --cache "$store" \
        --exchange "$SMOKE_DIR/sweep-scores.json" \
        --output "$SMOKE_DIR/sweep.json"
    python -m repro cache compact --cache "$store" --max-entries 12

    python - "$store" <<'PY'
import glob, sys
from repro.runtime.cache import TrialCache
store = TrialCache(sys.argv[1])
assert len(store) == 12, len(store)
assert store.stats.corrupt_records == 0, vars(store.stats)
leftover = glob.glob(sys.argv[1] + ".shard-*")
assert not leftover, leftover
print("compacted store reads back", len(store), "entries, no torn lines, no sidecars")
PY
}

# --------------------------------------------------------------------------
# 3. Mapper profile smoke (fails on crash, equivalence break, or a stage
#    column the span tracer left empty; never on how long a stage took)
# --------------------------------------------------------------------------
smoke_profile() {
    log "profile smoke: scalar vs graph-batched vs cached vs pooled equivalence, span-built stages"
    python -m repro profile \
        --workload mobilenet-v2 --trials 8 --batch-size 4 \
        --warm-op-cache --output "$SMOKE_DIR/mapper-profile.json"

    python - "$SMOKE_DIR/mapper-profile.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
records = report["records"]
if len(records) != 6:
    raise SystemExit(f"expected the six-row profile ladder, got {len(records)} rows")
if report["histories_match"] is not True:
    raise SystemExit("profile modes diverged from the reference history")
stages = {record["mode"]: record["stage_seconds"] for record in records}
empty = [mode for mode, stage in stages.items() if not stage["evaluate"] > 0]
if empty:
    raise SystemExit(f"no trial spans behind the evaluate column of {empty}")
if not stages["scalar"]["mapper"] > 0:
    raise SystemExit("no map_op spans behind the scalar row's mapper column")
print("profile ladder:", len(records), "rows, histories match, every stage column span-built")
PY
}

# --------------------------------------------------------------------------
# 3b. Mapper equivalence smoke: the same fixed-seed search under the default
#     engine (graph-batched, both caches on) and the scalar reference with
#     both caches off must produce bit-for-bit identical histories, on
#     efficientnet-b0, on bert-seq128, whose softmax and layernorm regions
#     (and its many two-pass-softmax proposals) no CNN reaches, and on the
#     benchmark's suite-anneal shape: both models under annealing, whose
#     one-parameter moves revisit an array shape under a new PE count.
# --------------------------------------------------------------------------
# The default engine and the scalar engine with both caches on (the op
# cache is its only memo of mapped costs) must each reproduce the uncached
# scalar reference's history.
#   mapper_equiv_case NAME OPTIMIZER TRIALS BATCH WORKLOAD...
mapper_equiv_case() {
    local name="$1" optimizer="$2" trials="$3" batch="$4"
    shift 4
    local common=(--optimizer "$optimizer" --trials "$trials" --batch-size "$batch"
                  --seed 0 --history)
    local workload
    for workload in "$@"; do common+=(--workload "$workload"); done
    python -m repro search "${common[@]}" \
        --engine scalar:op_cache=off,region_cache=off \
        --output "$SMOKE_DIR/search-reference-$name.json"
    python -m repro search "${common[@]}" \
        --output "$SMOKE_DIR/search-default-$name.json"
    python -m repro search "${common[@]}" \
        --engine scalar \
        --output "$SMOKE_DIR/search-scalar-$name.json"

    python - "$SMOKE_DIR/search-reference-$name.json" "$name" \
        "graph-batched=$SMOKE_DIR/search-default-$name.json" \
        "scalar=$SMOKE_DIR/search-scalar-$name.json" <<'PY'
import json, sys
reference = json.load(open(sys.argv[1]))
for leg in sys.argv[3:]:
    engine, _, path = leg.partition("=")
    other = json.load(open(path))
    for key in ("proposals", "history", "best_score_curve", "best_score"):
        if reference.get(key) != other.get(key):
            raise SystemExit(
                f"{sys.argv[2]}: {engine} diverged from the uncached scalar reference on {key!r}"
            )
    print(f"{sys.argv[2]}: {engine} == uncached scalar bit-for-bit over",
          len(reference.get("history") or []), "trials")
PY
}

smoke_mapper_equiv() {
    log "mapper equivalence smoke: default and cached scalar engines vs uncached scalar reference history"
    mapper_equiv_case efficientnet-b0 lcs 12 4 efficientnet-b0
    mapper_equiv_case bert-seq128 lcs 32 4 bert-seq128
    mapper_equiv_case suite-anneal annealing 96 8 efficientnet-b0 bert-seq128
}

# --------------------------------------------------------------------------
# 5. Remote-executor smoke: serve in the background with a region store,
#    search against it twice, assert both histories equal the serial run
#    bit-for-bit and that the repeat is served from the regions the first
#    run left on the service (region-cache hits rise, misses do not), and
#    export the RuntimeStats JSON as a CI artifact.
# --------------------------------------------------------------------------
smoke_remote() {
    log "remote smoke: repro serve + --executor remote, history equivalence, shared regions"
    local serve_log="$SMOKE_DIR/serve.log"
    local store="$SMOKE_DIR/serve-regions.jsonl"
    rm -f "$store"
    python -m repro serve --port 0 --workers 1 \
        --engine "graph-batched:region_store=$store" >"$serve_log" 2>&1 &
    local serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' RETURN

    local url=""
    for _ in $(seq 1 60); do
        url=$(sed -n 's/.*\(http:\/\/[0-9.]*:[0-9]*\).*/\1/p' "$serve_log" | head -1)
        if [ -n "$url" ] && python - "$url" <<'PY'
import json, sys, urllib.request
with urllib.request.urlopen(sys.argv[1] + "/health", timeout=2) as r:
    assert json.loads(r.read())["status"] == "ok"
PY
        then break; fi
        url=""
        sleep 0.5
    done
    [ -n "$url" ] || { echo "repro serve never became healthy"; cat "$serve_log"; exit 1; }
    echo "service healthy at $url"

    local common=(--workload efficientnet-b0 --trials 16 --batch-size 4 --seed 0 --history)
    python -m repro search "${common[@]}" \
        --output "$SMOKE_DIR/serial-search.json"
    python -m repro search "${common[@]}" \
        --executor remote --endpoints "$url" \
        --output "$SMOKE_DIR/remote-search.json" --progress
    [ -s "$store" ] || { echo "the service never wrote its region store"; exit 1; }

    # The service's region-cache lookups, read from /metrics.
    region_lookups() {
        python - "$url" <<'PY'
import re, sys, urllib.request
with urllib.request.urlopen(sys.argv[1] + "/metrics", timeout=5) as reply:
    body = reply.read().decode()
counts = dict.fromkeys(("hit", "miss"), 0)
for outcome, value in re.findall(
    r'^repro_cache_lookups\{cache="region",outcome="(hit|miss)"\} (\S+)$', body, re.M
):
    counts[outcome] = int(float(value))
print(counts["hit"], counts["miss"])
PY
    }
    local before after
    before=$(region_lookups)
    python -m repro search "${common[@]}" \
        --executor remote --endpoints "$url" \
        --output "$SMOKE_DIR/remote-search-repeat.json"
    after=$(region_lookups)

    python - "$SMOKE_DIR/serial-search.json" "$SMOKE_DIR/remote-search.json" \
        "$SMOKE_DIR/remote-search-repeat.json" "$SMOKE_DIR/remote-runtime-stats.json" \
        "$before" "$after" <<'PY'
import json, sys
serial = json.load(open(sys.argv[1]))
for path in sys.argv[2:4]:
    remote = json.load(open(path))
    for key in ("proposals", "history", "best_score_curve", "best_score"):
        if serial.get(key) != remote.get(key):
            raise SystemExit(f"{path} diverged from the serial run on {key!r}")
stats = json.load(open(sys.argv[2])).get("runtime") or {}
json.dump(stats, open(sys.argv[4], "w"), indent=2)
(hits0, misses0), (hits1, misses1) = (map(int, arg.split()) for arg in sys.argv[5:7])
if not (hits1 > hits0 and misses1 == misses0):
    raise SystemExit(
        f"the repeat search was not served from the service's regions: "
        f"region hits {hits0} -> {hits1}, misses {misses0} -> {misses1}"
    )
print("remote == serial bit-for-bit over", len(serial.get("history") or []),
      "trials, twice; service region hits", hits0, "->", hits1,
      "with misses flat at", misses1)
print("remote runtime stats:",
      {k: v for k, v in stats.items() if k.startswith("remote_")})
PY

    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    trap - RETURN
}

# --------------------------------------------------------------------------
# 6. Telemetry smoke: traced search -> valid Chrome trace + `repro trace`
#    summary; background `repro serve` -> /metrics Prometheus exposition.
# --------------------------------------------------------------------------
smoke_telemetry() {
    log "telemetry smoke: traced search, trace summary, /metrics exposition"
    python -m repro search \
        --workload efficientnet-b0 --trials 8 --batch-size 4 --seed 0 \
        --trace "$SMOKE_DIR/search-trace.json"

    python - "$SMOKE_DIR/search-trace.json" <<'PY'
import json, sys
payload = json.load(open(sys.argv[1]))
events = payload["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete (ph=X) span events in the trace"
for event in spans:
    assert event["ts"] >= 0 and event["dur"] >= 0, event
    assert "trace_id" in event["args"] and "span_id" in event["args"], event
names = {e["name"] for e in spans}
for expected in ("search", "trial", "simulate"):
    assert expected in names, f"missing {expected!r} spans; have {sorted(names)}"
print("valid Chrome trace:", len(spans), "spans,", len(names), "span names")
PY

    python -m repro trace "$SMOKE_DIR/search-trace.json" --top 5

    local serve_log="$SMOKE_DIR/telemetry-serve.log"
    python -m repro serve --port 0 --workers 1 >"$serve_log" 2>&1 &
    local serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true' RETURN

    local url=""
    for _ in $(seq 1 60); do
        url=$(sed -n 's/.*\(http:\/\/[0-9.]*:[0-9]*\).*/\1/p' "$serve_log" | head -1)
        if [ -n "$url" ] && python - "$url" <<'PY'
import json, sys, urllib.request
with urllib.request.urlopen(sys.argv[1] + "/health", timeout=2) as r:
    assert json.loads(r.read())["status"] == "ok"
PY
        then break; fi
        url=""
        sleep 0.5
    done
    [ -n "$url" ] || { echo "repro serve never became healthy"; cat "$serve_log"; exit 1; }
    echo "service healthy at $url"

    python - "$url" <<'PY'
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1] + "/metrics", timeout=5) as reply:
    content_type = reply.headers["Content-Type"]
    body = reply.read().decode()
assert content_type.startswith("text/plain"), content_type
assert "# TYPE repro_service_requests_total counter" in body, body
assert "repro_service_uptime_seconds" in body, body
samples = 0
for line in body.splitlines():
    if not line or line.startswith("#"):
        continue
    name_part, value = line.rsplit(" ", 1)
    assert name_part, line
    float(value)  # every sample value must parse
    samples += 1
print("valid Prometheus exposition:", samples, "samples")
PY

    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    trap - RETURN
}

# --------------------------------------------------------------------------
# 7. Chaos smoke: seeded fault injection (worker SIGKILL + torn cache write)
#    must leave the history bit-for-bit equal to a clean run, and a search
#    SIGKILLed mid-run (after its third checkpoint save) must reproduce the
#    uninterrupted history on --resume.
# --------------------------------------------------------------------------
smoke_chaos() {
    log "chaos smoke: fault-injected history equivalence"
    local common=(--workload efficientnet-b0 --trials 16 --batch-size 4 --seed 0 --history)
    python -m repro search "${common[@]}" \
        --output "$SMOKE_DIR/chaos-clean.json"
    python -m repro search "${common[@]}" \
        --workers 2 \
        --inject-faults "worker-crash:n=1,torn-write:n=1" --fault-seed 7 \
        --cache "$SMOKE_DIR/chaos-trials.jsonl" \
        --output "$SMOKE_DIR/chaos-faulted.json"

    python - "$SMOKE_DIR/chaos-clean.json" "$SMOKE_DIR/chaos-faulted.json" \
        "$SMOKE_DIR/chaos-trials.jsonl" <<'PY'
import json, sys
clean = json.load(open(sys.argv[1]))
faulted = json.load(open(sys.argv[2]))
for key in ("proposals", "history", "best_score_curve", "best_score"):
    if clean.get(key) != faulted.get(key):
        raise SystemExit(f"fault-injected run diverged from the clean run on {key!r}")
stats = faulted.get("runtime") or {}
assert stats.get("faults_injected", 0) >= 2, stats
assert stats.get("worker_restarts", 0) >= 1, stats
from repro.runtime.cache import TrialCache
reopened = TrialCache(sys.argv[3])
assert reopened.stats.corrupt_records == 1, vars(reopened.stats)
print("fault-injected == clean bit-for-bit over",
      len(faulted.get("history") or []), "trials;",
      stats.get("faults_injected"), "faults injected,",
      stats.get("worker_restarts"), "worker restart(s),",
      reopened.stats.corrupt_records, "torn record quarantined")
PY

    log "chaos smoke: SIGKILL mid-run + --resume round-trip"
    local long=(--workload efficientnet-b0 --trials 64 --batch-size 4 --seed 0 --history)
    local ckpt="$SMOKE_DIR/chaos-resume.ckpt"
    local progress="$SMOKE_DIR/chaos-interrupted.log"
    rm -f "$ckpt" "$progress"
    python -m repro search "${long[@]}" \
        --output "$SMOKE_DIR/chaos-clean-64.json"
    python -m repro search "${long[@]}" \
        --checkpoint "$ckpt" --checkpoint-every 4 --progress \
        --output "$SMOKE_DIR/chaos-interrupted.json" > "$progress" &
    local search_pid=$!
    # Kill after the third checkpoint line, so the journal holds a snapshot
    # and two deltas (12 trials) and the run is far from its 64.
    for _ in $(seq 1 1200); do
        [ "$(grep -c '^checkpoint:' "$progress" || true)" -ge 3 ] && break
        kill -0 "$search_pid" 2>/dev/null || break
        sleep 0.05
    done
    # SIGKILL, not TERM: no cleanup handlers, exactly like an OOM kill.
    kill -9 "$search_pid" 2>/dev/null || true
    wait "$search_pid" 2>/dev/null || true
    [ -f "$ckpt" ] || { echo "no checkpoint was written before the kill"; exit 1; }

    python -m repro search "${long[@]}" \
        --resume "$ckpt" --checkpoint-every 4 \
        --output "$SMOKE_DIR/chaos-resumed.json"

    python - "$SMOKE_DIR/chaos-clean-64.json" "$SMOKE_DIR/chaos-resumed.json" <<'PY'
import json, sys
clean = json.load(open(sys.argv[1]))
resumed = json.load(open(sys.argv[2]))
restored = (resumed.get("runtime") or {}).get("resumed_trials", 0)
if not 12 <= restored < 64:
    raise SystemExit(f"the kill did not land mid-run: {restored} of 64 trials restored")
for key in ("proposals", "history", "best_score_curve", "best_score"):
    if clean.get(key) != resumed.get(key):
        raise SystemExit(f"resumed run diverged from the uninterrupted run on {key!r}")
print(f"kill -9 after {restored} trials + --resume reproduced the uninterrupted "
      f"history bit-for-bit over {len(resumed.get('history') or [])} trials")
PY
}

# --------------------------------------------------------------------------
# 8. Cache-tier smoke: a search writes the persistent region and op stores,
#    one line per key, and a second cold run into fresh paths writes the
#    same bytes; `repro cache compact` refuses to touch the region store; a
#    cold process warm-loads it (every region from disk, none recomputed),
#    and a 2-worker run's workers, forked from the warm parent, serve every
#    region from the store too — all with histories bit-for-bit equal to
#    the private-cache baseline.
# --------------------------------------------------------------------------
smoke_cache_tier() {
    log "cache-tier smoke: cold stores one line per key and repeatable, region + op store warm-load + warm-pool equivalence, twin regions"
    local common=(--workload efficientnet-b0 --trials 12 --batch-size 4 --seed 0 --history)
    local store="$SMOKE_DIR/region-store.jsonl"
    local op_store="$SMOKE_DIR/op-store.jsonl"
    rm -f "$store" "$op_store"
    python -m repro search "${common[@]}" \
        --output "$SMOKE_DIR/cache-private.json"
    python -m repro search "${common[@]}" \
        --engine "graph-batched:region_store=$store" --op-cache "$op_store" \
        --output "$SMOKE_DIR/cache-store-cold.json"
    [ -s "$store" ] || { echo "region store was never written"; exit 1; }
    [ -s "$op_store" ] || { echo "op store was never written"; exit 1; }
    python - "$store" "$op_store" <<'PY'
import json, sys
for path in sys.argv[1:]:
    keys = [json.loads(line)["key"] for line in open(path)]
    if len(set(keys)) != len(keys):
        raise SystemExit(f"{path}: {len(keys)} lines for {len(set(keys))} keys")
    print(path, "holds one line per key:", len(keys), "lines")
PY
    # A second serial cold run, into fresh store paths, writes the same bytes.
    local store2="$SMOKE_DIR/region-store-2.jsonl"
    local op_store2="$SMOKE_DIR/op-store-2.jsonl"
    rm -f "$store2" "$op_store2"
    python -m repro search "${common[@]}" \
        --engine "graph-batched:region_store=$store2" --op-cache "$op_store2" \
        --output "$SMOKE_DIR/cache-store-cold-2.json"
    cmp "$store" "$store2" || { echo "a second cold run wrote another region store"; exit 1; }
    cmp "$op_store" "$op_store2" || { echo "a second cold run wrote another op store"; exit 1; }
    # The trial-cache compactor must refuse a region store, not empty it.
    local digest
    digest=$(sha256sum "$store")
    if python -m repro cache compact --cache "$store"; then
        echo "cache compact accepted a region store"; exit 1
    fi
    [ "$(sha256sum "$store")" = "$digest" ] \
        || { echo "cache compact changed the region store"; exit 1; }
    # Fresh processes: one serial warm-load, one 2-worker run.
    python -m repro search "${common[@]}" \
        --engine "graph-batched:region_store=$store" \
        --output "$SMOKE_DIR/cache-store-warm.json"
    python -m repro search "${common[@]}" \
        --workers 2 \
        --engine "graph-batched:region_store=$store" \
        --output "$SMOKE_DIR/cache-pool.json"
    # Op costs alone: no region cache, so every matrix op is an op-store lookup.
    python -m repro search "${common[@]}" \
        --engine "graph-batched:region_cache=off" --op-cache "$op_store" \
        --output "$SMOKE_DIR/cache-op-store-warm.json"

    python - "$SMOKE_DIR/cache-private.json" "$SMOKE_DIR/cache-store-cold.json" \
        "$SMOKE_DIR/cache-store-warm.json" "$SMOKE_DIR/cache-pool.json" \
        "$SMOKE_DIR/cache-op-store-warm.json" "$store" "$op_store" <<'PY'
import json, sys
results, stores = sys.argv[1:6], sys.argv[6:]
private = json.load(open(results[0]))
for path in results[1:]:
    other = json.load(open(path))
    for key in ("proposals", "history", "best_score_curve", "best_score"):
        if private.get(key) != other.get(key):
            raise SystemExit(f"{path} diverged from the private-cache run on {key!r}")
warm = json.load(open(results[2]))["runtime"]
assert warm["region_cache_disk_hits"] > 0, warm
assert warm["region_cache_misses"] == 0, warm
pool = json.load(open(results[3]))["runtime"]
assert pool["region_cache_disk_hits"] > 0, pool
assert pool["region_cache_misses"] == 0, pool
ops = json.load(open(results[4]))["runtime"]
assert ops["op_cache_disk_hits"] > 0, ops
assert ops["op_cache_misses"] == 0, ops
# Both stores hold format 2 only: every payload is a positional JSON array.
for path, field in zip(stores, ("entry", "cost")):
    for line in open(path):
        if not isinstance(json.loads(line)[field], list):
            raise SystemExit(f"{path} holds a line that is not a format-2 row: {line[:120]}")
print("stores + warm pool == private bit-for-bit over",
      len(private.get("history") or []), "trials;",
      warm["region_cache_disk_hits"], "warm disk hits,",
      pool["region_cache_disk_hits"], "pool disk hits,",
      ops["op_cache_disk_hits"], "op-store disk hits")
PY

    # Twin regions: bert-seq128's 97 regions have 7 distinct shapes, and
    # only those 7 first-of-shape regions are looked up and stored per
    # simulated trial (seed 3 simulates 7 of its 16 trials).
    local bert=(--workload bert-seq128 --trials 16 --batch-size 4 --seed 3 --history)
    local bert_store="$SMOKE_DIR/bert-region-store.jsonl"
    rm -f "$bert_store"
    python -m repro search "${bert[@]}" --output "$SMOKE_DIR/bert-private.json"
    python -m repro search "${bert[@]}" \
        --engine "graph-batched:region_store=$bert_store" \
        --output "$SMOKE_DIR/bert-store-cold.json"
    python -m repro search "${bert[@]}" \
        --engine "graph-batched:region_store=$bert_store" \
        --output "$SMOKE_DIR/bert-store-warm.json"
    python - "$SMOKE_DIR/bert-private.json" "$SMOKE_DIR/bert-store-cold.json" \
        "$SMOKE_DIR/bert-store-warm.json" 16 <<'PY'
import json, sys
private, cold, warm = (json.load(open(path)) for path in sys.argv[1:4])
trials = int(sys.argv[4])
for path, other in zip(sys.argv[2:4], (cold, warm)):
    for key in ("proposals", "history", "best_score_curve", "best_score"):
        if private.get(key) != other.get(key):
            raise SystemExit(f"{path} diverged from the private-cache run on {key!r}")
lookups = cold["runtime"]["region_cache_hits"] + cold["runtime"]["region_cache_misses"]
assert 0 < lookups <= 7 * trials, cold["runtime"]  # 97 per simulated trial without twins
assert warm["runtime"]["region_cache_misses"] == 0, warm["runtime"]
assert warm["runtime"]["region_cache_disk_hits"] > 0, warm["runtime"]
print("bert-seq128 store runs == private bit-for-bit;", lookups, "cold region lookups over",
      trials, "trials,", warm["runtime"]["region_cache_disk_hits"], "warm disk hits")
PY
}

# --------------------------------------------------------------------------
# Paper-figure smoke: every registered figure's paper-shape check
# (benchmarks/, at the paper's inputs), then the search-driven figures
# (9-12, Table 4) at trials=8, compared exactly with their pins in
# tests/golden_figures.json.  Tier-1 pins the other figures.
# --------------------------------------------------------------------------
smoke_figures() {
    log "figures smoke: every figure's paper-shape check, search-driven figures vs their pins"
    python -m pytest -q benchmarks/bench_*.py
    python tests/test_golden_figures.py --check
}

# --------------------------------------------------------------------------
# Coverage job: ratcheted floor + drift check.  The floor lives in ci.yml
# (COV_FLOOR env of the coverage job); raise it as coverage grows, never
# lower it.  The drift check fails the job when the floor lags measured
# coverage by more than 5 points — i.e. when someone forgot the ratchet.
# --------------------------------------------------------------------------
smoke_coverage() {
    log "coverage: branch coverage with ratcheted floor"
    if ! python -c "import pytest_cov" 2>/dev/null; then
        echo "pytest-cov is not installed; skipping the coverage smoke"
        return 0
    fi
    local floor="${COV_FLOOR:-$(sed -n 's/.*COV_FLOOR: "\([0-9]*\)".*/\1/p' .github/workflows/ci.yml | head -1)}"
    [ -n "$floor" ] || { echo "no COV_FLOOR found (env or ci.yml)"; exit 1; }
    local report="$SMOKE_DIR/coverage.txt"
    python -m pytest -q \
        --cov=repro --cov-branch \
        --cov-report=term-missing:skip-covered \
        --cov-fail-under="$floor" | tee "$report"
    local measured
    measured=$(grep -E '^TOTAL' "$report" | awk '{print $NF}' | tr -d '%' | cut -d. -f1)
    echo "coverage floor: ${floor}%, measured: ${measured}%"
    if [ "$((measured - floor))" -gt 5 ]; then
        echo "ratchet drift: measured coverage (${measured}%) exceeds the floor" \
             "(${floor}%) by more than 5 points — raise COV_FLOOR in ci.yml"
        exit 1
    fi
}

# --------------------------------------------------------------------------
case "${1:-all}" in
    search)       smoke_search ;;
    sweep)        smoke_sweep ;;
    profile)      smoke_profile ;;
    mapper-equiv) smoke_mapper_equiv ;;
    figures)      smoke_figures ;;
    remote)       smoke_remote ;;
    telemetry)    smoke_telemetry ;;
    chaos)        smoke_chaos ;;
    cache-tier)   smoke_cache_tier ;;
    coverage)     smoke_coverage ;;
    all)
        smoke_search
        smoke_sweep
        smoke_profile
        smoke_mapper_equiv
        smoke_figures
        smoke_remote
        smoke_telemetry
        smoke_chaos
        smoke_cache_tier
        log "all smokes passed; artifacts in $SMOKE_DIR"
        ;;
    *)
        echo "usage: $0 [all|search|sweep|profile|mapper-equiv|figures|remote|telemetry|chaos|cache-tier|coverage]" >&2
        exit 2
        ;;
esac
