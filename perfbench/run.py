#!/usr/bin/env python3
"""Runs the repository benchmark for one workload and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload crowd|fleet|survey --seed N \
        --seconds S --trace 0|1

It builds the `perfbench` binary from source (release profile, offline,
into $CARGO_TARGET_DIR or `.bench_build/`), runs it once, and prints:

* a host fingerprint line (nproc, CPU model, rustc, kernel, git
  revision, worker count),
* the binary's own report (every metric by name, with its unit),
* as the last line, one JSON object with exactly the keys `correct`,
  `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
  the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are its
  per-layer metrics.

Peak resident memory (`peak_rss_mb`) is the kernel's rusage peak of a
separate process that builds and runs the workload once (`--once`), so
it is the footprint of one world, not of the allocator's leftovers from
the timed rounds. Every result, with its fingerprint, is also
written under `perfbench/out/`. The exit code is nonzero, with no result
line, when the build fails, the binary fails, a metric is missing, or a
run's output digest differs from an earlier run of the same binary and
seed (the determinism gate).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["crowd", "fleet", "survey"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    """Builds the benchmark binary; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"no repository workspace around {HERE}; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no binary at {binary}")
    return binary


def run_child(argv):
    """Runs the binary; returns (exit code, stdout, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, out, usage.ru_maxrss


def run_checked(argv):
    """Runs the binary; returns (report lines, parsed result line, peak RSS in KiB)."""
    code, out, maxrss_kib = run_child(argv)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark binary exited with code {code}")
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark binary printed no result line")
    return lines, raw, maxrss_kib


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    """The checkout's commit, read from its own `.git` only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def rustc_version():
    try:
        r = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fingerprint(workers):
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": rustc_version(),
        "kernel": platform.release(),
        "git_rev": git_revision(),
        "workers": workers,
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_digest(args, binary, digest):
    """Determinism gate across runs: one digest per (binary, workload, seed)."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = f"{build_id}:{args.workload}:{args.seed}"
    if known.setdefault(key, digest) != digest:
        fail(f"determinism gate: {args.workload} seed {args.seed} produced digest {digest}, "
             f"an earlier run of the same binary produced {known[key]}")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(known, f, indent=1, sort_keys=True)


def main():
    args = parse_args()
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR]
    if not args.trace:
        _, once, maxrss_kib = run_checked(argv + ["--once"])
    lines, raw, _ = run_checked(argv)
    if not args.trace and once["digest"] != raw["digest"]:
        fail(f"determinism gate: the single-round process produced digest {once['digest']}, "
             f"the timed rounds {raw['digest']}")

    metrics = dict(raw["metrics"])
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": maxrss_kib / 1024.0, "unit": "MB"}
    wanted = expected_metrics(args.trace)
    missing = [m for m in wanted if m not in metrics]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}")
    check_digest(args, binary, raw["digest"])

    host = fingerprint(raw["workers"])
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: metrics[name] for name in wanted},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
        json.dump({"host": host, "digest": raw["digest"], "result": result}, f, indent=1)
        f.write("\n")

    print("host: " + " ".join(f"{k}={json.dumps(v)}" for k, v in host.items()))
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(f"  peak_rss_mb      {maxrss_kib / 1024.0:>12.1f} MB   (peak resident, one world alive)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
