"""Delta-size benchmark: incremental BFS repair vs full recompute.

A versioned graph mutation invalidates every cached level array — but
an *insert-only* delta can only lower levels, so the pre-mutation
array is a valid repair basis (:mod:`repro.xbfs.repair`). Repair pays
per *relaxed* edge, which tracks the size of the affected region, not
the graph; a fresh adaptive traversal pays for the whole graph every
time. Somewhere between "one edge" and "ten percent of the graph" the
affected region stops being small and recompute wins — the executor's
:data:`~repro.service.execution.DEFAULT_REPAIR_MAX_FRACTION` is exactly
a bet on where that crossover sits.

This bench sweeps insert-only deltas from a single edge up to 10% of
the base edge count on one R-MAT graph and reports, per delta size:

* **modelled ms** for repair (:func:`repair_cost_ms` over relaxed
  edges) vs a fresh solo :class:`~repro.xbfs.driver.XBFS` traversal of
  the mutated graph — the figures the scheduler's virtual clock would
  charge;
* **host ms** for both paths (best of N wall-clock);
* the repaired region (affected vertices, relaxed edges, rounds);
* a bit-identical check of repaired levels against the from-scratch
  run — the correctness contract the differential tests pin.

Results land in ``BENCH_mutation.json`` at the repo root, including
the measured crossover fraction.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_mutation.py

or under the bench harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_mutation.py -s
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.graph.delta import apply_delta, random_delta
from repro.graph.generators import rmat
from repro.graph.stats import pick_sources
from repro.metrics.results_io import save_results
from repro.metrics.tables import render_table
from repro.xbfs.driver import XBFS
from repro.xbfs.repair import repair_levels

SCALE = 13
EDGE_FACTOR = 8
#: Insert counts as fractions of the base edge count (0 → one edge).
FRACTIONS = (0.0, 0.0005, 0.002, 0.01, 0.03, 0.1)
REPEATS = 3
SEED = 29

_OUT = Path(__file__).resolve().parents[1] / "BENCH_mutation.json"


def _best_of(fn, repeats: int = REPEATS):
    """Best host wall-clock of ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_mutation_bench() -> list[dict]:
    base = rmat(SCALE, EDGE_FACTOR, seed=SEED)
    source = int(pick_sources(base, 1, seed=SEED)[0])
    basis = XBFS(base).run(source).levels

    summaries = []
    for i, frac in enumerate(FRACTIONS):
        k = max(1, int(frac * base.num_edges))
        delta = random_delta(base, num_inserts=k, seed=SEED + i)
        mutated = apply_delta(base, delta)

        host_rep, rep = _best_of(
            lambda: repair_levels(mutated, basis, delta.inserts)
        )
        engine = XBFS(mutated)
        host_full, full = _best_of(lambda: engine.run(source))

        identical = bool(np.array_equal(rep.levels, full.levels))
        summaries.append({
            "name": f"ins{k}",
            "inserts": k,
            "fraction": k / base.num_edges,
            "modelled_ms_repair": rep.elapsed_ms,
            "modelled_ms_recompute": full.elapsed_ms,
            "modelled_speedup": (
                full.elapsed_ms / rep.elapsed_ms if rep.elapsed_ms else 0.0
            ),
            "host_ms_repair": host_rep * 1e3,
            "host_ms_recompute": host_full * 1e3,
            "affected_vertices": rep.affected_vertices,
            "relaxed_edges": rep.relaxed_edges,
            "rounds": rep.rounds,
            "bit_identical": int(identical),
        })

    crossover = next(
        (s["fraction"] for s in summaries if s["modelled_speedup"] <= 1.0),
        None,
    )
    summaries.append({
        "name": "crossover",
        "graph": f"rmat:{SCALE}:{EDGE_FACTOR}",
        "base_edges": base.num_edges,
        "crossover_fraction": crossover,
    })
    save_results(summaries, _OUT)
    return summaries


def _render(summaries: list[dict]) -> str:
    rows = []
    for s in summaries:
        if s["name"] == "crossover":
            continue
        rows.append([
            s["name"],
            f"{s['fraction'] * 100:.3f}%",
            f"{s['modelled_ms_repair']:.3f}",
            f"{s['modelled_ms_recompute']:.3f}",
            f"{s['modelled_speedup']:.2f}x",
            f"{s['relaxed_edges']}",
            f"{s['affected_vertices']}",
            "yes" if s["bit_identical"] else "NO",
        ])
    return render_table(
        ["delta", "of edges", "repair ms", "recompute ms", "speedup",
         "relaxed", "affected", "identical"],
        rows,
        title=(
            f"repair vs recompute on rmat:{SCALE}:{EDGE_FACTOR} "
            f"(modelled clock; host best of {REPEATS})"
        ),
    )


def test_mutation_bench():
    summaries = run_mutation_bench()
    print()
    print(_render(summaries))
    print(f"wrote {_OUT.name}")
    sweep = [s for s in summaries if s["name"] != "crossover"]
    # Repaired levels must match a from-scratch traversal everywhere...
    assert all(s["bit_identical"] for s in sweep)
    # ...repair must win clearly for a one-edge delta...
    assert sweep[0]["modelled_speedup"] > 2.0
    # ...and lose by the top of the sweep (a crossover exists).
    assert sweep[-1]["modelled_speedup"] < 1.0, (
        "no repair/recompute crossover within the sweep"
    )


def main() -> int:
    summaries = run_mutation_bench()
    print(_render(summaries))
    print(f"wrote {_OUT.name}")
    sweep = [s for s in summaries if s["name"] != "crossover"]
    ok = (
        all(s["bit_identical"] for s in sweep)
        and sweep[0]["modelled_speedup"] > 1.0
        and sweep[-1]["modelled_speedup"] < 1.0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
