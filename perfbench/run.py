#!/usr/bin/env python3
"""Repository benchmark: builds the KShot libraries and the workload driver
from source, runs one workload, and prints its metrics.

    python3 perfbench/run.py --workload patch-small --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; traced runs also export their spans and
rollup to <build>/out/. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 every
end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer one.
Exits 0 only when every op of the run passed its checks.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Program spans (the <c>.<n> of span.<c>.<n>.*) a workload's traced run may
# lack: its ops never reach that code, or only some inputs do. Patch sets are
# built during set-up, so no timed patch op compiles; a retry (backoff) only
# happens when an attacker forces one; attacked patches are never rolled
# back. Every other span BENCHMARK.json lists must appear, or the program
# stopped emitting it and the run fails rather than reading 0.
OPTIONAL_SPANS = {
    "patch-small": {"kshot.backoff", "netsim.compile"},
    "patch-large": {"kshot.backoff", "netsim.compile"},
    "adversary-campaign": {"kshot.backoff", "enclave.set_mem_x_map",
                           "smm.rollback"},
    "synth-campaign": {"kshot.backoff"},
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark targets; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_workload",
           "perfbench_selftest", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def select(spec, workload, reported, traced):
    """The metrics BENCHMARK.json names for this mode, with their units.

    A span in the workload's OPTIONAL_SPANS that the run did not emit has
    no rollup entry; it reads 0."""
    out = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        got = reported.get(m["name"])
        span = m["name"][len("span."):].rsplit(".", 1)[0]
        if (got is None and m["name"].startswith("span.")
                and span in OPTIONAL_SPANS[workload]):
            got = {"value": 0, "unit": m["unit"]}
        if got is None:
            raise ValueError(f"metric {m['name']} was not reported")
        if got["unit"] != m["unit"]:
            raise ValueError(f"metric {m['name']} reported in {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="prove the failure counting and span rollup")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 3
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_workload"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"workload printed no result (exit {proc.returncode})")
        return 4
    res = json.loads(lines[-1])
    try:
        metrics = select(spec, args.workload, res["metrics"], args.trace == 1)
    except ValueError as e:
        log(str(e))
        return 4
    correct = bool(res["correct"]) and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
