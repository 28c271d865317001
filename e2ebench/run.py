"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload tenant_mix --seed 1 --seconds 12 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``: ``SETUP_SAMPLES - 1`` fresh processes
only set up, one more sets up and measures, and ``setup_s`` is the
median of all of them. ``--trace 1`` runs one process that attributes
host time to the program's layers and prints the per-layer metrics.
The last stdout line is one JSON object; the exit code is 0 only when
every checked answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import schema  # noqa: E402

SETUP_SAMPLES = 3
#: Every process of one run must finish within this many seconds.
DEADLINE_S = 170.0
#: Where traced runs leave their span logs.
OUT_DIR = os.path.join(HERE, "out")


def child(args, mode: str, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh single-threaded interpreter."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--out-dir", OUT_DIR,
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float):
    setups = [child(args, "setup", deadline)["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = child(args, "measure", deadline)
    if "setup" in res:
        setups.append(res["setup"])
    samples = [s["setup_s"] for s in setups]
    res["setup_s"] = statistics.median(samples)
    metrics = {name: (res[name], unit)
               for name, unit in schema.END_TO_END_UNITS.items()}
    notes = {
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in samples),
        "host_qps": f"median of {len(res.get('rep_seconds', []))} replays",
        "modelled_tail_ms": (f"p{res['tail_pct']:.2f} of "
                             f"{res['tail_samples']} samples"),
        "modelled_interactive_tail_ms": (
            f"p{res['interactive_tail_pct']:.2f} of "
            f"{res['interactive_tail_samples']} samples"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {res['attempted']} "
          f"queries attempted, {res['failed']} failed "
          f"(failed_frac {res['failed_frac']:.6g})")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {value:>14.6g} {unit}{note}")
    return res, metrics


def per_layer(args, deadline: float):
    res = child(args, "trace", deadline)
    layers = res.get("layers", {})
    print(f"workload {args.workload}, seed {args.seed}: per-layer metrics "
          f"(traced run; spans in {os.path.relpath(OUT_DIR, ROOT)})")
    for name in sorted(layers):
        print(f"  {name:<44} {layers[name]:>14.6g}")
    if set(layers) != set(schema.PER_LAYER_UNITS):
        raise RuntimeError("traced run reported other metrics than the schema: "
                           f"{sorted(set(layers) ^ set(schema.PER_LAYER_UNITS))}")
    return res, {name: (layers[name], unit) for name, unit in
                 schema.PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w for w, _ in schema.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"no program to measure: {ROOT}/src/repro is missing\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res, metrics = per_layer(args, deadline)
        else:
            res, metrics = end_to_end(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    correct = bool(res.get("correct"))
    if correct:
        print(f"checked {res.get('checked', 0)} answers against "
              f"bfs_levels_reference ({res.get('versions', 0)} graph versions served)")
    else:
        print(f"WRONG ANSWER: {res.get('why')}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(res.get("attempted", 0)),
        "failed": int(res.get("failed", 0)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
