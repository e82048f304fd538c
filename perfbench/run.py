#!/usr/bin/env python3
"""Build and run the simulator benchmark; print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator libraries and the perfbench binary under .bench_build/ (Release);
later runs only rebuild what changed. The binary measures the workload and
checks every cell's invariants; this script adds the checks against the
committed default-seed digests (digests/), derives paper_err from the paper
reference values (paper_refs.json), and prints:

  - one line {"context": ...}: host, compiler, build type, engine knobs;
  - one line per metric, "name value unit";
  - last, {"correct", "attempted", "failed", "metrics"}.

--update-digests rewrites digests/<workload>.jsonl from a default-seed run
instead of comparing against it (only after an intended model change).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 1
WORKLOADS = ("paper_sweep", "miss_storm", "tenant_serving")
END_TO_END = (("accesses_per_s", "1/s"), ("wall_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("paper_err", "ln"))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the perfbench target; output to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A failed configure must not be mistaken for a finished one.
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return BUILD / "perfbench"


def paper_err(cells, refs):
    """Mean |ln(sim / paper)| over the reference values (paper_refs.json)."""
    makespan = {(c["app"], c["system"]): c["makespan_ns"] for c in cells}
    apps = list(dict.fromkeys(c["app"] for c in cells))

    def speedup(app, system, base):
        return makespan[app, base] / makespan[app, system]

    errs = []
    for ref in refs:
        if ref["app"] == "*":  # geometric mean over the nine apps
            logs = [math.log(speedup(a, ref["system"], ref["base"]))
                    for a in apps]
            sim = math.exp(sum(logs) / len(logs))
        else:
            sim = speedup(ref["app"], ref["system"], ref["base"])
        errs.append(abs(math.log(sim / ref["value"])))
    return sum(errs) / len(errs)


def check_digests(workload, cells, failures):
    """Compare each cell's full result with the committed default-seed one."""
    path = HERE / "digests" / f"{workload}.jsonl"
    expected = {}
    if path.exists():
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            expected[rec["cell"]] = rec["result"]
    for c in cells:
        want = expected.pop(c["cell"], None)
        if want is None:
            failures.setdefault(c["cell"], []).append("no committed digest")
        elif want != c["result"]:
            failures.setdefault(c["cell"], []).append(
                "differs from the committed default-seed digest")
    for cell in expected:
        failures.setdefault(cell, []).append("digested cell was not run")


def write_digests(workload, cells):
    path = HERE / "digests" / f"{workload}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as f:
        for c in cells:
            f.write(json.dumps({"cell": c["cell"], "result": c["result"]},
                               separators=(",", ":")) + "\n")
    log(f"wrote {path.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-digests", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.update_digests and args.seed != DEFAULT_SEED:
        ap.error(f"digests are taken at the default seed {DEFAULT_SEED}")

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0:
        if "aborted" not in last:
            sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
        log(f"cell {last['aborted']} aborted the run")
        print(json.dumps({"correct": False, "attempted": last["attempted"],
                          "failed": 1, "metrics": {}}))
        sys.exit(1)

    failures = {c["cell"]: list(c["failures"])
                for c in last["cells"] if c["failures"]}
    if args.update_digests:
        write_digests(args.workload, last["cells"])
    elif args.seed == DEFAULT_SEED:
        check_digests(args.workload, last["cells"], failures)

    metrics = last["metrics"]
    if not args.trace:
        refs = json.loads((HERE / "paper_refs.json").read_text())
        metrics["paper_err"] = {"value": paper_err(last["paper"],
                                                   refs["references"]),
                                "unit": "ln"}
        metrics = {name: metrics[name] for name, _ in END_TO_END}

    attempted = len(last["cells"])
    failed = len(failures)
    context = {
        "nproc": os.cpu_count(),
        "compiler": last["build"]["compiler"],
        "build_type": last["build"]["build_type"],
        "knobs": last["knobs"],
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": last["passes"],
        "pass_wall_s": last["pass_wall_s"],
        "gauge_ns": last["gauge_ns"],
        "failed_frac": failed / attempted,
        "failures": failures,
    }
    print(json.dumps({"context": context}))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
