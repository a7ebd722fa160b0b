#!/usr/bin/env python3
"""The repo benchmark: builds memq_perfbench from this checkout, runs one
workload for a fixed time, checks every iteration against the dense oracle,
and prints the medians as one JSON object on the last line of stdout.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

--trace 0 reports the end-to-end metrics of BENCHMARK.json: one process
repeats the workload for S seconds after a warm-up and reports medians.
--trace 1 reports the per-layer metrics of a separate traced run (spans
written as Chrome trace JSON under .bench_build/traces/). --smoke runs every
workload at ~12 qubits once in each mode, checks the emitted names against
BENCHMARK.json and the correctness gate, and validates the trace with
tools/check_trace.py.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "memq_perfbench"
TRACE_DIR = BUILD_ROOT / "traces"
TMP_DIR = BUILD_ROOT / "tmp"  # FileBlobStore spill files
SPEC = ROOT / "BENCHMARK.json"

# The process is killed at the deadline, so a run ends inside three minutes
# even if an iteration hangs.
RUN_DEADLINE_S = 170.0

# Printed with the bounded metrics but not bounded themselves. The wall
# times swing with a shared host's speed (run_ref divides that out);
# query_ref does not track it on the storage-bound reads of rqc20-spill
# (over ten seeds its middle half spanned 13% of the median); the dense
# baseline is one sample per run; fidelity is 0 on null codecs. The traced
# run reports some of them as engine.query_s, engine.traced_run_s,
# oracle.dense_run_s and oracle.fidelity_loss.
INFO_METRICS = {"run_s": "s", "run_p90_s": "s", "run_cpu_s": "s",
                "query_s": "s", "query_ref": "ref", "ref_s": "s",
                "dense_run_s": "s", "fidelity_loss": "ratio"}

# Which end-to-end metric, on which workloads, each layer's metrics should
# move (the per-layer metric names start with the layer).
LAYER_TARGETS = {
    "planner": ("run_ref", ["rqc18-szq"]),
    "kernels": ("run_ref", ["rqc20-spill"]),
    "frame": ("run_ref", ["rqc20-spill"]),
    "codec": ("run_ref", ["rqc18-szq"]),
    "store": ("run_ref", ["rqc20-spill", "qft21-const"]),
    "blob": ("run_ref", ["rqc20-spill"]),
    "cache": ("query_ref", ["rqc20-spill"]),
    "pager": ("query_ref", ["rqc18-szq", "qft21-const", "rqc20-spill"]),
    "device": ("run_ref", ["qft21-const"]),
    "engine": ("run_ref", ["qft21-const"]),
    "trace": ("run_ref", []),
    "oracle": ("run_ref", []),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets cmake rebuild whatever changed."""
    BUILD_ROOT.mkdir(exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def measure(workload, seed, mode, seconds, smoke=False, trace_out=None):
    """One benchmark process; returns (env stamp, result dict)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP_DIR))
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, env=env, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        return {}, {"ok": False, "error": "run timed out"}
    stamp, result = {}, None
    for line in p.stdout.splitlines():
        if line.startswith('{"env"'):
            stamp = json.loads(line)["env"]
        elif line.startswith('{"result"'):
            result = json.loads(line)["result"]
    if p.returncode != 0 or result is None:
        if p.returncode == 2:  # bad arguments: not a failed iteration
            fail(p.stderr.strip())
        return stamp, {"ok": False, "error": f"exit {p.returncode}: "
                                             f"{p.stderr.strip()[-300:]}"}
    return stamp, result


def load_spec():
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)


def run(args, spec):
    mode = "trace" if args.trace else "e2e"
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    trace_out = None
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        trace_out = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"

    stamp, result = measure(args.workload, args.seed, mode, args.seconds,
                            trace_out=trace_out)
    if "attempted" not in result:  # crashed or timed out: no numbers
        fail(f"{args.workload}: {result.get('error')}")
    if not result.get("ok"):
        print(f"FAILED: {result.get('error')}")
    attempted, failed = int(result["attempted"]), int(result["failed"])
    values = dict(result.get("metrics", {}) if args.trace else result)
    error_rate = failed / attempted
    values["oracle.error_rate"] = error_rate

    stamp["heldout_seed"] = args.heldout_seed
    stamp["seed_is_heldout"] = args.seed == args.heldout_seed
    stamp["iterations"] = result.get("iterations", 1)
    print(json.dumps({"env": stamp}))
    metrics = {}
    for m in metric_specs:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(f"{args.workload} did not emit metric {m['name']}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{args.workload:12s} {m['name']:30s} {v:.6g} {m['unit']}")
    for name, unit in INFO_METRICS.items():
        if isinstance(values.get(name), (int, float)) and name not in metrics:
            print(f"{args.workload:12s} {name:30s} {values[name]:.6g} {unit}"
                  " (info)")
    print(f"{args.workload:12s} {'error_rate':30s} {error_rate:.6g} ratio")
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))


def smoke(spec):
    """Every workload at ~12 qubits, both modes; names and gates checked."""
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in layer_names:
        target = LAYER_TARGETS.get(name.split(".")[0])
        if target is None or target[0] not in e2e_names | set(INFO_METRICS):
            problems.append(f"per-layer metric {name} has no target")
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    checker = ROOT / "tools" / "check_trace.py"
    for w in spec["workloads"]:
        name = w["name"]
        _, e2e = measure(name, 1, "e2e", 0, smoke=True)
        trace_file = TRACE_DIR / f"smoke-{name}.json"
        _, traced = measure(name, 1, "trace", 0, smoke=True,
                            trace_out=trace_file)
        for mode, r in (("e2e", e2e), ("trace", traced)):
            if not r.get("ok"):
                problems.append(f"{name} {mode}: {r.get('error')}")
        missing = e2e_names - set(e2e)
        emitted = set(traced.get("metrics", {})) | {"oracle.error_rate"}
        if missing:
            problems.append(f"{name} e2e lacks {sorted(missing)}")
        if emitted != layer_names:
            problems.append(f"{name} trace names differ from BENCHMARK.json: "
                            f"{sorted(emitted ^ layer_names)}")
        if checker.exists():
            c = subprocess.run([sys.executable, str(checker), str(trace_file)],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if c.returncode != 0:
                problems.append(f"{name} trace: {c.stdout.strip()}")
        print(f"smoke {name}: run_s {e2e.get('run_s', 0):.4g} s, "
              f"fidelity_loss {e2e.get('fidelity_loss', 0):.3g}")
    if problems:
        fail("smoke failed:\n  " + "\n  ".join(problems))
    print("smoke: OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout-seed", type=int, default=None,
                    help="seed reserved for checking performance claims; "
                         "recorded in the result stamp")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.smoke:
        smoke(spec)
        return
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    run(args, spec)


if __name__ == "__main__":
    main()
