#!/usr/bin/env python3
"""Same-host benchmark of the Phantom simulator.

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/, runs one workload and prints its metrics by name and
unit, the output check and the run manifest. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0, and
its per-layer metrics with --trace 1.

Usage, from the repository root:

    python3 perfbench/run.py --workload abr_scale --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("abr_scale", "chaos_armored", "tcp_mechanisms")
# A run measures for --seconds, plus warm-up and its last pass; the
# limit keeps a stuck run inside the 180 s a run may take.
RUN_SLACK_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures and builds perfbench (both incremental); build output
    goes to stderr."""
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j4"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out / "perfbench"


def source_digest():
    """SHA-256 over the simulator sources and this benchmark."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        log("perfbench: the benchmark overran its time limit")
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    manifest = dict(result["manifest"])
    manifest["commit"] = commit()
    manifest["source_sha256"] = source_digest()
    e2e = result["end_to_end"]
    layers = result.get("per_layer", {})
    check = "PASS" if result["correct"] else "FAIL"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['passes']} passes, {result['attempted']} operations, "
          f"{result['failed']} failed; output check {check}")
    for err in result["errors"]:
        print(f"  error: {err}")
    print("end-to-end:")
    for name, m in e2e.items():
        spread = ""
        if "q1" in m:
            spread = (f"  (q1 {fmt(m['q1'])}, q3 {fmt(m['q3'])}, "
                      f"{int(m['n'])} passes)")
        print(f"  {name:<16} {fmt(m['value']):>14} {m['unit']}{spread}")
    print(f"  {'sim_digest':<16} {result['sim_digest']:>14}")
    if layers:
        print("per-layer:")
        for name, m in layers.items():
            print(f"  {name:<38} {fmt(m['value']):>14} {m['unit']}")
    print("manifest: " + json.dumps(manifest, sort_keys=True))

    source = layers if args.trace else e2e
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if source.get(name, {}).get("unit") != entry["unit"]:
            log(f"perfbench: the benchmark did not report {name} "
                f"in {entry['unit']}")
            return 3
        metrics[name] = {"value": source[name]["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
