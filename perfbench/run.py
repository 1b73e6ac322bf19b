"""Benchmark of the phototact CLI verbs.

    python3 perfbench/run.py --workload calibrate|characterize|detection \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(worker.py) against the checkout's ``src``, so its peak memory is its own.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json declares for the trace mode, each with its unit.  The
full record of the run (machine, samples, artifact hashes, output facts and,
traced, the spans) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170  # a run must end within 180 s


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = declared()
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True, help="every verb seed derives from it; 0 gives the README seeds")
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed runs go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is the self-test's size")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "phototact" / "__init__.py").is_file():
        print(f"error: no phototact sources under {src}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--work", str(work), "--src", str(src),
    ]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if child.returncode != 0:
        print(f"error: worker exited with code {child.returncode}", file=sys.stderr)
        return 1

    result = json.loads(child.stdout.splitlines()[-1])
    values = result["values"]
    # Linux reports ru_maxrss in KiB; the one child waited for is the workload.
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: the run produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    record = dict(result["record"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, peak_rss_mb=values["peak_rss_mb"])
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    record_path.write_text(json.dumps(record) + "\n")
    for problem in result["record"]["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(f"record: {record_path}", file=sys.stderr)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
