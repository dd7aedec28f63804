#!/usr/bin/env sh
# Full local CI: build, test, lint, and a chaos smoke test.
#
#   scripts/ci.sh            (from the repo root)
#
# Steps (one "== ... ==" section each):
#   1. cargo build --release              — everything compiles optimized
#   2. cargo test -q                      — tier-1: the root package's suites
#                                           (paper_claims, resilience, chaos)
#   3. cargo test --workspace -q          — every crate's suites
#   4. cargo clippy ... -- -D warnings    — lint our crates only; vendor/*
#                                           are workspace members (vendored
#                                           rand/bytes/proptest/criterion),
#                                           so they must be excluded rather
#                                           than linted to their authors'
#                                           standards
#   5. cargo doc (-D warnings)            — rustdoc on our crates must be
#                                           warning-free (vendor/* excluded,
#                                           as in clippy)
#   6. punch-lint                         — the workspace's own determinism
#                                           & wire-safety analyzer (LINTS.md)
#                                           must report zero violations, and
#                                           its text/JSON reports must be
#                                           byte-identical across runs
#   7. punch-lint registry drift gate     — the emitted registries must
#                                           match the pinned
#                                           results/LINT_*.json (no
#                                           unexplained drift)
#   8. punch-lint seeded violations       — a seeded violation per rule
#                                           family (P001 + S001–S004) must
#                                           make it fail
#   9. chaos smoke test                   — 2 trials per fault class, must
#                                           report zero failures
#  10. metrics determinism smoke          — the chaos bin's metrics export
#                                           is byte-identical for the same
#                                           seeds at 1 vs 2 workers
#  11. million-scale shard smoke          — a capped ShardedWorld run's
#                                           per-session outcome report is
#                                           byte-identical at 1 vs 2
#                                           workers, every session
#                                           resolves, and events/sec gets
#                                           a soft (warn-only) floor
#  12. rendezvous-fleet smoke             — an n=4 mini flash crowd with a
#                                           mid-crowd server restart: the
#                                           fleet JSON is byte-identical
#                                           at 1 vs 2 workers, zero
#                                           pending, zero forward errors
#  13. decoder fuzz suites                — the wire-codec and TCP segment
#                                           property tests, run explicitly
#  14. chaos search smoke                 — 20 sampled fault schedules,
#                                           zero invariant violations
#  15. pinned chaos results               — a default chaos run reproduces
#                                           results/chaos.txt byte for byte
#  16. strategy-matrix smoke              — byte-identical at 1 vs 2
#                                           workers, and sequential-delta
#                                           prediction beats Basic on the
#                                           symmetric x symmetric cell
#  17. attack-suite smoke                 — every attack disrupts the
#                                           undefended victim and none the
#                                           defended one, byte-identical
#                                           at 1 vs 2 workers
#  18. adversarial chaos search smoke     — 20 sampled attack schedules,
#                                           zero invariant violations
#  19. benchmark smoke                    — perfbench is its own Cargo
#                                           workspace, so nothing above
#                                           builds it: run.py builds it
#                                           and runs each workload (crowd,
#                                           fleet, survey) for 1 s, plus a
#                                           traced fleet run; every result
#                                           line must say "correct": true,
#                                           and peak RSS must stay at or
#                                           under 260 MB on crowd and
#                                           40 MB on fleet
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== build (release) =="
cargo build --release --quiet

echo "== test (tier-1: root package) =="
cargo test -q

echo "== test (workspace) =="
cargo test --workspace -q

echo "== clippy (-D warnings, vendor/* excluded) =="
cargo clippy --workspace \
    --exclude rand --exclude bytes --exclude proptest --exclude criterion \
    --all-targets -- -D warnings

echo "== rustdoc (-D warnings, vendor/* excluded) =="
RUSTDOCFLAGS="-D warnings" cargo doc --quiet --no-deps --workspace \
    --exclude rand --exclude bytes --exclude proptest --exclude criterion

echo "== punch-lint (determinism & wire-safety, LINTS.md) =="
cargo run --release --quiet -p punch-lint | tee "$tmpdir/lint1.txt"
cargo run --release --quiet -p punch-lint > "$tmpdir/lint2.txt"
if ! cmp -s "$tmpdir/lint1.txt" "$tmpdir/lint2.txt"; then
    echo "FAIL: punch-lint report is not byte-identical across runs" >&2
    diff "$tmpdir/lint1.txt" "$tmpdir/lint2.txt" >&2 || true
    exit 1
fi
cargo run --release --quiet -p punch-lint -- --json > "$tmpdir/lint.json"
cargo run --release --quiet -p punch-lint -- --json > "$tmpdir/lint2.json"
if ! cmp -s "$tmpdir/lint.json" "$tmpdir/lint2.json"; then
    echo "FAIL: punch-lint --json report is not byte-identical across runs" >&2
    diff "$tmpdir/lint.json" "$tmpdir/lint2.json" >&2 || true
    exit 1
fi
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmpdir/lint.json"
echo "OK: tree is clean, text/JSON reports deterministic, --json well-formed"

echo "== punch-lint registry drift gate (results/LINT_*.json) =="
cargo run --release --quiet -p punch-lint -- --emit-registries "$tmpdir/registries" \
    > /dev/null
for reg in LINT_wire_registry.json LINT_rng_inventory.json LINT_metric_registry.json; do
    if ! cmp -s "results/$reg" "$tmpdir/registries/$reg"; then
        echo "FAIL: results/$reg drifted from the tree; re-emit with" >&2
        echo "      cargo run -p punch-lint -- --emit-registries results" >&2
        echo "      and review the diff (reasons survive re-emission)" >&2
        diff "results/$reg" "$tmpdir/registries/$reg" >&2 || true
        exit 1
    fi
done
echo "OK: pinned registries match the tree byte-for-byte"

echo "== punch-lint seeded-violation smoke (the gate actually gates) =="
mkdir -p "$tmpdir/seeded/src"
cp crates/lint/tests/fixtures/p001_panic.rs "$tmpdir/seeded/src/lib.rs"
if cargo run --release --quiet -p punch-lint -- --root "$tmpdir/seeded" \
    > "$tmpdir/seeded.txt" 2>&1; then
    echo "FAIL: punch-lint exited 0 on a tree with seeded violations" >&2
    cat "$tmpdir/seeded.txt" >&2
    exit 1
fi
if ! grep -q "P001" "$tmpdir/seeded.txt"; then
    echo "FAIL: seeded P001 violation not reported" >&2
    cat "$tmpdir/seeded.txt" >&2
    exit 1
fi
for srule in S001 S002 S003 S004; do
    tree="crates/lint/tests/fixtures/semantic/$(echo "$srule" | tr 'A-Z' 'a-z')_bad"
    if cargo run --release --quiet -p punch-lint -- --root "$tree" \
        > "$tmpdir/seeded_$srule.txt" 2>&1; then
        echo "FAIL: punch-lint exited 0 on the $srule violating fixture tree" >&2
        cat "$tmpdir/seeded_$srule.txt" >&2
        exit 1
    fi
    if ! grep -q "$srule" "$tmpdir/seeded_$srule.txt"; then
        echo "FAIL: seeded $srule violation not reported" >&2
        cat "$tmpdir/seeded_$srule.txt" >&2
        exit 1
    fi
done
echo "OK: seeded violations (P001 + S001-S004) detected, exit status nonzero"

echo "== chaos smoke test (2 trials per fault class) =="
out=$(cargo run --release --quiet -p punch-bench --bin chaos -- --trials 2 --no-write)
echo "$out"
if echo "$out" | grep -q "[1-9][0-9]*/2\b"; then
    echo "FAIL: chaos smoke test reported recovery failures" >&2
    exit 1
fi
echo "OK: all chaos smoke trials recovered"

echo "== metrics determinism smoke (1 vs 2 workers) =="
PUNCH_JOBS=1 cargo run --release --quiet -p punch-bench --bin chaos -- \
    --trials 2 --no-write --metrics-out "$tmpdir/m1.json" > /dev/null
PUNCH_JOBS=2 cargo run --release --quiet -p punch-bench --bin chaos -- \
    --trials 2 --no-write --metrics-out "$tmpdir/m2.json" > /dev/null
if ! cmp -s "$tmpdir/m1.json" "$tmpdir/m2.json"; then
    echo "FAIL: metrics export differs between 1 and 2 workers" >&2
    diff "$tmpdir/m1.json" "$tmpdir/m2.json" >&2 || true
    exit 1
fi
echo "OK: metrics export byte-identical across worker counts"

echo "== million-scale shard smoke (sharded-world determinism, 1 vs 2 workers) =="
PUNCH_JOBS=1 cargo run --release --quiet -p punch-bench --bin million -- \
    --sessions 400 --shards 4 --out "$tmpdir/million.json" \
    --report-out "$tmpdir/shard1.txt" > /dev/null
PUNCH_JOBS=2 cargo run --release --quiet -p punch-bench --bin million -- \
    --sessions 400 --shards 4 --no-write \
    --report-out "$tmpdir/shard2.txt" > /dev/null
if ! cmp -s "$tmpdir/shard1.txt" "$tmpdir/shard2.txt"; then
    echo "FAIL: sharded-world per-session outcomes differ between 1 and 2 workers" >&2
    diff "$tmpdir/shard1.txt" "$tmpdir/shard2.txt" >&2 || true
    exit 1
fi
python3 - "$tmpdir/million.json" <<'PYEOF'
import json, sys
j = json.load(open(sys.argv[1]))
if j["pending"] or j["failed"]:
    sys.exit(f"FAIL: shard smoke left sessions unresolved: {j['failed']} failed, {j['pending']} pending")
# Soft floor only: the tracked metric lives in results/BENCH_million.json;
# this guards against order-of-magnitude regressions without flaking on
# noisy or slow CI hosts.
rate = j["events_per_sec_per_core"]
if rate < 100_000:
    print(f"WARN: events/sec/core {rate} below the 100k soft floor", file=sys.stderr)
PYEOF
echo "OK: shard outcomes byte-identical across worker counts, all sessions resolved"

echo "== rendezvous-fleet smoke (n=4 mini flash crowd, 1 vs 2 workers) =="
PUNCH_JOBS=1 cargo run --release --quiet -p punch-bench --bin fleet -- \
    --sessions 200 --shards 4 --fleets 4 --out "$tmpdir/fleet1.json" > /dev/null
PUNCH_JOBS=2 cargo run --release --quiet -p punch-bench --bin fleet -- \
    --sessions 200 --shards 4 --fleets 4 --out "$tmpdir/fleet2.json" > /dev/null
if ! cmp -s "$tmpdir/fleet1.json" "$tmpdir/fleet2.json"; then
    echo "FAIL: fleet report differs between 1 and 2 workers" >&2
    diff "$tmpdir/fleet1.json" "$tmpdir/fleet2.json" >&2 || true
    exit 1
fi
python3 - "$tmpdir/fleet1.json" <<'PYEOF'
import json, sys
j = json.load(open(sys.argv[1]))
for leg in j["fleets"]:
    if leg["pending"]:
        sys.exit(f"FAIL: fleet smoke left {leg['pending']} sessions pending at n={leg['servers']}")
    if leg["forward_errors"]:
        sys.exit(f"FAIL: fleet smoke hit {leg['forward_errors']} forward errors at n={leg['servers']}")
PYEOF
echo "OK: fleet report byte-identical across worker counts, zero pending"

echo "== decoder fuzz suites (wire codecs + TCP segment storms) =="
cargo test -q -p punch-rendezvous --test proptest_wire
cargo test -q -p punch-natcheck --test proptest_check_wire
cargo test -q -p punch-transport --test proptest_tcp

echo "== chaos search smoke (sampled schedules, zero violations) =="
out=$(cargo run --release --quiet -p punch-bench --bin chaos_search -- \
    --schedules 20 --no-write)
echo "$out"
if ! echo "$out" | grep -q "violations: 0"; then
    echo "FAIL: chaos search found invariant violations" >&2
    exit 1
fi
echo "OK: no invariant violations in sampled schedules"

echo "== pinned chaos results (fault knobs cost nothing when disabled) =="
cargo run --release --quiet -p punch-bench --bin chaos -- --no-write \
    > "$tmpdir/chaos_pinned.txt"
if ! cmp -s results/chaos.txt "$tmpdir/chaos_pinned.txt"; then
    echo "FAIL: results/chaos.txt drifted from a fresh default run" >&2
    diff results/chaos.txt "$tmpdir/chaos_pinned.txt" >&2 || true
    exit 1
fi
echo "OK: results/chaos.txt reproduced byte-identically"

echo "== strategy-matrix smoke (racing engine, 1 vs 2 workers) =="
PUNCH_JOBS=1 cargo run --release --quiet -p punch-bench --bin strategies -- \
    --trials 4 --out "$tmpdir/strat1.json" > /dev/null
PUNCH_JOBS=2 cargo run --release --quiet -p punch-bench --bin strategies -- \
    --trials 4 --out "$tmpdir/strat2.json" > /dev/null
if ! cmp -s "$tmpdir/strat1.json" "$tmpdir/strat2.json"; then
    echo "FAIL: strategy matrix differs between 1 and 2 workers" >&2
    diff "$tmpdir/strat1.json" "$tmpdir/strat2.json" >&2 || true
    exit 1
fi
python3 - "$tmpdir/strat1.json" <<'PYEOF'
import json, sys
j = json.load(open(sys.argv[1]))
cell = "sym_seqxsym_seq"
basic = j["matrix"]["basic"][cell]["direct"]
predict = j["matrix"]["predict_seq"][cell]["direct"]
if predict <= basic:
    sys.exit(
        f"FAIL: sequential-delta prediction must beat Basic on the "
        f"symmetric(sequential) x symmetric(sequential) cell: "
        f"predict_seq={predict} vs basic={basic}"
    )
PYEOF
echo "OK: strategy matrix byte-identical across worker counts, prediction beats Basic on symmetric x symmetric"

echo "== attack-suite smoke (adversary legs, defense flips, 1 vs 2 workers) =="
PUNCH_JOBS=1 cargo run --release --quiet -p punch-bench --bin attacks -- \
    --trials 2 --out "$tmpdir/atk1.json" > /dev/null
PUNCH_JOBS=2 cargo run --release --quiet -p punch-bench --bin attacks -- \
    --trials 2 --out "$tmpdir/atk2.json" > /dev/null
if ! cmp -s "$tmpdir/atk1.json" "$tmpdir/atk2.json"; then
    echo "FAIL: attack suite differs between 1 and 2 workers" >&2
    diff "$tmpdir/atk1.json" "$tmpdir/atk2.json" >&2 || true
    exit 1
fi
python3 - "$tmpdir/atk1.json" <<'PYEOF'
import json, sys
j = json.load(open(sys.argv[1]))
trials = j["trials"]
for leg, arms in j["attacks"].items():
    off, on = arms["off"], arms["on"]
    if not off["disrupted"]:
        sys.exit(f"FAIL: {leg} with defenses off never disrupted the victim")
    if off["defense_events"]:
        sys.exit(f"FAIL: {leg} counted defense events with defenses off")
    if on["disrupted"]:
        sys.exit(f"FAIL: {leg} disrupted the victim despite its defense")
    if on["recovered"] != trials:
        sys.exit(f"FAIL: {leg} victim not healthy in every defended trial")
    if not on["defense_events"]:
        sys.exit(f"FAIL: {leg} defense never fired")
PYEOF
echo "OK: every attack bites undefended, every defense rides through, byte-identical across worker counts"

echo "== adversarial chaos search smoke (attack schedules, zero violations) =="
out=$(cargo run --release --quiet -p punch-bench --bin chaos_search -- \
    --profile adversarial --schedules 20 --no-write)
echo "$out"
if ! echo "$out" | grep -q "violations: 0"; then
    echo "FAIL: adversarial chaos search found invariant violations" >&2
    exit 1
fi
echo "OK: no invariant violations under sampled attack schedules"

echo "== benchmark smoke (perfbench/run.py, every workload + a traced run) =="
bench_smoke() {
    python3 perfbench/run.py --workload "$1" --seed 1 --seconds 1 --trace "$2" \
        > "$tmpdir/bench_$1_$2.txt"
    tail -n 1 "$tmpdir/bench_$1_$2.txt" | python3 -c '
import json, sys
line = json.loads(sys.stdin.read())
ok = line.get("correct")
if ok is not True:
    sys.exit(f"FAIL: benchmark {sys.argv[1]} --trace {sys.argv[2]} reported correct={ok}")
# Memory ratchet: per-endpoint state must stay sized by what is live.
cap = {"crowd": 260, "fleet": 40}.get(sys.argv[1])
if cap is not None and sys.argv[2] == "0":
    rss = line["metrics"]["peak_rss_mb"]["value"]
    if rss > cap:
        sys.exit(f"FAIL: benchmark {sys.argv[1]} peak_rss_mb {rss:.1f} is above {cap}")
' "$1" "$2"
    echo "OK: $1 --trace $2 correct"
}
for w in crowd fleet survey; do
    bench_smoke "$w" 0
done
bench_smoke fleet 1
