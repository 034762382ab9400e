"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted output fails the checks, and that the command refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import NodalDeficiency, Rep, SpectrumBox, VerdictsTriangle  # noqa: E402


def tiny(name: str, seed: int = 0):
    if name == "verdicts-triangle":
        return VerdictsTriangle(seed, cutoff=300)
    if name == "spectrum-box":
        return SpectrumBox(seed, sizes=((3, 20), (4, 12)))
    return NodalDeficiency(
        seed, sizes=(("triangle", 2, 40), ("box", 2, 40), ("box", 3, 12)), frame_ks=(3, 4)
    )


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, spec):
    result, report = run.measure(tiny(name, seed=3), seconds=0, trace=trace,
                                 setup=([0.5], [0.5]))
    assert result["correct"], report["check_failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    json.dumps(result, allow_nan=False)


def _corrupt(text: str, edit) -> str:
    rows = json.loads(text)
    edit(rows)
    return json.dumps(rows)


def test_corrupted_verdicts_fail_the_check():
    w = tiny("verdicts-triangle")
    rc, text = workloads.call_cli(w.argv)
    assert rc == 0 and w.check(text, Rep()) == []

    def unsharp(rows):
        rows[5]["sharp"] = False
        rows[5]["witness"] = {}

    def drop_level(rows):
        del rows[-1]

    for edit in (unsharp, drop_level):
        assert w.check(_corrupt(text, edit), Rep())


def test_corrupted_spectrum_fails_the_check():
    w = tiny("spectrum-box")
    n, argv, expect = w.calls[1]
    rc, text = workloads.call_cli(argv)
    assert rc == 0 and w.check(n, argv, expect, text) == []

    def move_member(rows):
        rows[3]["members"][0][0] += 1

    def swap_levels(rows):
        rows[2]["value"], rows[3]["value"] = rows[3]["value"], rows[2]["value"]

    for edit in (move_member, swap_levels):
        assert w.check(n, argv, expect, _corrupt(text, edit))


def test_digest_guards_the_default_outputs():
    argv = list(next(iter(workloads.DIGESTS)))
    assert workloads._digest_problem(argv, "[]\n")


def test_failed_check_makes_the_run_incorrect(monkeypatch):
    w = tiny("nodal-deficiency")
    real = workloads.nodal.deficiency_bound

    def inflated(si, value):
        report = real(si, value)
        return type(report)(**{**report.__dict__, "bound": 10**6})

    monkeypatch.setattr(workloads.nodal, "deficiency_bound", inflated)
    result, report = run.measure(w, seconds=0, trace=False, setup=([0.5], [0.5]))
    assert not result["correct"]
    assert result["failed"] >= len(report["check_failures"]) > 0


def test_tail_keeps_ten_cases_beyond():
    cases = [float(i) for i in range(396)]
    value, percentile = run.tail(cases)
    assert sum(c > value for c in cases) == 10
    assert percentile == pytest.approx(100 * 386 / 396)
    assert run.tail([3.0, 1.0, math.inf]) == (math.inf, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum-box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
