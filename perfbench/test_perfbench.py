"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

They cover the metric declarations, seeded input generation, and that a
wrong golden value is counted as a failed op without ending the run.
"""
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from harness import OpLog, Tracer, latency_stats, tail_percentile  # noqa: E402
from selberg3.arithmetic_group import PICARD, build_group_data  # noqa: E402
from workloads import (WORKLOADS, Checks, LatticeSums,  # noqa: E402
                       check_classes, class_fingerprint)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_and_units():
    spec = _spec()
    declared = {"end_to_end": run.END_TO_END,
                "per_layer": {k: u for k, (u, _) in run.PER_LAYER.items()}}
    for kind, table in declared.items():
        entries = {m["name"]: m["unit"] for m in spec[kind]}
        assert entries == table, kind
        for name, unit in entries.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert UNIT.fullmatch(unit), (name, unit)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = WORKLOADS[name]
    first = [wl.inputs(7, k) for k in range(4)]
    assert first == [wl.inputs(7, k) for k in range(4)]
    assert first != [wl.inputs(8, k) for k in range(4)]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) == (100.0, 0)
    assert tail_percentile(100) == (90.0, 10)
    stats = latency_stats([float(i) for i in range(1, 101)])
    assert stats["tail"] == 90.0 and stats["p50"] == 50.5


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.enabled, tr.pass_id = True, 0
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    times = tr.self_times({})[0]
    outer, inner = tr.spans
    assert times["inner"] == pytest.approx(inner.end - inner.start)
    assert times["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))


def test_wrong_tolerance_is_counted_and_the_run_goes_on():
    tr = Tracer()
    log = OpLog(tr)
    wrong = Checks(kappa_exact={"square": 0.0, "hex": 0.9454972808716807})
    wl = LatticeSums(1, wrong, tr, log, ROOT)
    wl.log.run("kappa", lambda: wl.run_op(("kappa",), False))
    wl.checks = Checks()
    wl.log.run("kappa", lambda: wl.run_op(("kappa",), False))
    assert (log.attempted, log.failed) == (2, 1)
    assert "kappa(square)" in log.failures[0]


def test_wrong_fingerprint_is_counted():
    gd = build_group_data(PICARD, 2, 6.0)
    counts = (len(gd.elements), len(gd.cuspidal_elliptic), len(gd.loxodromic),
              len(gd.non_cuspidal_elliptic))
    right = Checks(fingerprints={"picard": class_fingerprint(gd)},
                   class_counts={"picard": counts})
    wrong = Checks(fingerprints={"picard": "0" * 64},
                   class_counts={"picard": counts})
    log = OpLog(Tracer())
    log.run("build", lambda: check_classes(wrong, "picard", gd))
    log.run("build", lambda: check_classes(right, "picard", gd))
    assert (log.attempted, log.failed) == (2, 1)
    assert "fingerprint" in log.failures[0]
