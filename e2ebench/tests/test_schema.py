"""The metric schema and the BENCHMARK.json generated from it."""

import json
import os
import re

import schema

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def all_names():
    return ([n for n, _ in schema.WORKLOADS]
            + [row[0] for row in schema.END_TO_END]
            + [row[0] for row in schema.PER_LAYER])


def test_every_name_is_well_formed_and_unique():
    names = all_names()
    assert all(NAME.fullmatch(n) for n in names), [
        n for n in names if not NAME.fullmatch(n)]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))


def test_units_bounds_and_directions():
    for name, unit, better, bound in schema.END_TO_END:
        assert UNIT.fullmatch(unit), name
        assert better in ("lower", "higher"), name
        assert 0 < bound <= 0.25, name
    bounds = {row[0]: row[3] for row in schema.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
    for name, unit, better in schema.PER_LAYER:
        assert UNIT.fullmatch(unit), name
        assert better in ("lower", "higher"), name
    assert 1 <= len(schema.PER_LAYER) <= 128
    assert 1 <= len(schema.END_TO_END) <= 16
    assert 2 <= len(schema.WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why for _, why in schema.WORKLOADS)


def test_benchmark_json_is_generated_from_the_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == schema.benchmark_json()


def test_workload_list_matches_the_generators():
    import workloads

    assert tuple(n for n, _ in schema.WORKLOADS) == workloads.WORKLOADS
