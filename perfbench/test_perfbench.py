"""Tests of the benchmark's own machinery: python -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.TRACE_ROUNDS) == set(run.ROUND_S) == set(run.WORKLOADS)


def test_tracer_patches_every_binding_and_restores_them():
    from iwasawa_kit import exact, fitting, linalg

    original_howell = linalg.howell_form
    original_mul = vars(exact.CyclotomicInt)["__mul__"]
    tracer = Tracer()
    tracer.install()
    checks = None
    try:
        assert linalg.howell_form is not original_howell
        assert fitting.howell_form is linalg.howell_form  # the from-import binding
        assert vars(exact.CyclotomicInt)["__rmul__"] is vars(exact.CyclotomicInt)["__mul__"]
        z = exact.CyclotomicInt.zeta(3)
        assert z * z == z.galois(2)
        alg = fitting.zmod_algebra(3, 2)
        assert fitting.IdealHandle(alg, [(3,)]).howell == [[3]]
    finally:
        checks = tracer.uninstall()
    assert checks == {"bindings_restored": True, "spans_closed": True}
    assert linalg.howell_form is original_howell and fitting.howell_form is original_howell
    assert vars(exact.CyclotomicInt)["__mul__"] is original_mul
    assert vars(exact.CyclotomicInt)["__rmul__"] is original_mul
    assert tracer.missing == []
    spans = tracer.summary()
    assert spans["exact.cyclotomic"]["calls"] >= 4
    assert spans["linalg.howell"]["calls"] == 1
    assert tracer.counts["linalg.howell.cells"] == 1


def test_self_time_excludes_children():
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    a = tracer.begin(outer)
    b = tracer.begin(inner)
    tracer.end(b)
    tracer.end(a)
    s = tracer.summary()
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])
    assert s["inner"]["self_s"] == s["inner"]["total_s"]


def test_missing_target_is_reported_not_raised():
    tracer = Tracer()
    tracer.install([("x", "linalg", "no_such_function", None)])
    assert tracer.missing == ["linalg.no_such_function"]
    assert all(tracer.uninstall().values())


def test_self_checks_can_fail():
    tracer = Tracer()
    tracer.install([("linalg.howell", "linalg", "howell_form", None)])
    patches = list(tracer._patches)
    tracer._patches.clear()  # uninstall now leaves the wrappers in place
    tracer.begin(tracer.name_id("op"))  # and this span is never ended
    try:
        assert tracer.uninstall() == {"bindings_restored": False, "spans_closed": False}
    finally:
        for owner, attr, original in patches:
            setattr(owner, attr, original)


def test_rounds_are_seeded_and_keep_their_mix(tmp_path):
    a = workloads.make("fitting", 1, ROOT, tmp_path)
    b = workloads.make("fitting", 1, ROOT, tmp_path)
    c = workloads.make("fitting", 2, ROOT, tmp_path)
    assert a.round(0) == b.round(0)
    assert a.round(0) != c.round(0)
    kinds = [sorted(op[:2] for op in w.round(3)) for w in (a, c)]
    assert kinds[0] == kinds[1]


def test_cli_judge():
    judge = workloads.CliCommands.judge
    with pytest.raises(workloads.Crash):
        judge("bad_spec", [], 1, "", "Traceback (most recent call last):\n ZeroDivisionError")
    assert judge("bad_places", [], 4, "", '{"error": "bad place", "exit": 4}') == (("error", 4), True)
    # a README command must not be refused
    assert judge("theta", [], 2, "", '{"error": "x", "exit": 2}')[1] is False
    # a malformed input must not be accepted
    assert judge("missing_file", [], 0, '{"result": {}}', "")[1] is False
    out = json.dumps({"result": {"cohomology_sizes": {"0": 3, "1": 3}, "acyclic": False}})
    assert judge("complex", [3], 0, out, "")[1] is True
    assert judge("complex", [1], 0, out, "")[1] is False


def test_run_refuses_a_tree_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fitting", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_timings_rescale_each_op_to_reference_speed():
    ref = run.CAL_REF_S
    # the machine slows down by half after the first op of the slow worker
    slow = {"setup_s": 0.4, "cal_s": [2 * ref, 2 * ref, 2 * ref], "cal_at": [0, 1, 2],
            "latencies": [0.02, 0.04]}
    fast = {"setup_s": 0.2, "cal_s": [ref, ref], "cal_at": [0, 2], "latencies": [0.01, 0.02]}
    assert run.op_scales(slow) == [0.5, 0.5]
    scaled = run.timings([slow, fast], 90)
    assert scaled["setup_s"] == pytest.approx(0.2)
    assert scaled["ops_per_s"] == pytest.approx(2 / 0.03)
    assert scaled["op_p50_ms"] == pytest.approx(15.0)
    raw = run.timings([slow, fast], 90, scaled=False)
    assert raw["setup_s"] == pytest.approx(0.3)
    drift = dict(slow, cal_s=[ref, ref, 3 * ref])
    assert run.op_scales(drift) == [1.0, 0.5]
