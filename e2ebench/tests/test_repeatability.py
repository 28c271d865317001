"""Two fresh processes on one seed report bit-identical modelled figures."""

import json
import os
import subprocess
import sys
import time

import schema

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def measure(seed):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "pod_2d",
         "--seed", str(seed), "--seconds", "0", "--mode", "measure",
         "--spawned-at", repr(time.monotonic())],
        cwd=os.path.dirname(BENCH), capture_output=True, text=True, timeout=300,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_modelled_figures_repeat_bit_exactly():
    one, two = measure(7), measure(7)
    assert one["correct"] and two["correct"]
    keys = [n for n, *_ in schema.END_TO_END if n.startswith("modelled_")]
    keys += ["failed_frac", "attempted", "failed", "checked"]
    assert {k: one[k] for k in keys} == {k: two[k] for k in keys}
    assert one["host_qps"] > 0 and one["setup"]["setup_s"] > 0
