"""CLI tests: exit codes, certificate emission, replay, and round trips."""

import contextlib
import gc
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from algebra_helpers import algebra_json
from cli_refusals import (
    BUILT_TOWER_REFUSALS,
    UNBUILT_VERIFY_REFUSALS,
    place_refusals,
    refusals,
    verify_refusals,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

import iwasawa_kit
from iwasawa_kit import wire
from iwasawa_kit.abelian import FiniteAbelianGroup, check_hyp
from iwasawa_kit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    field_config,
    main,
    parse_places,
    parse_spec,
)
from iwasawa_kit.fitting import GroupAlgebra
from iwasawa_kit.numutil import is_prime

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    cert = json.loads(captured.out) if captured.out.strip() else None
    return code, cert


def run_refused(capsys, *argv):
    """Exit code and the single JSON error object a refused command prints."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)


def test_theta_certificate(capsys):
    code, cert = run(capsys, "theta", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "0")
    assert code == EXIT_OK
    assert cert["result"]["hyp"] is True
    assert cert["result"]["integral"] is True
    # theta = sigma_2 - 1: coefficients {identity: -1, sigma: 1}
    assert cert["result"]["coefficients"] == {"0": "-1", "1": "1"}


def test_theta_hyp_false_still_reports(capsys):
    code, cert = run(capsys, "theta", "--spec", "zeta3", "--S", "3,oo", "--T", "2", "--r", "0")
    assert code == EXIT_OK
    assert cert["result"]["hyp"] is False
    assert cert["result"]["integral"] is False
    assert cert["result"]["coefficients"] == {"0": "1/2", "1": "-1/2"}


def test_theta_empty_t_makes_no_claim(capsys):
    code, cert = run(capsys, "theta", "--spec", "zeta3", "--S", "3,oo", "--r", "0")
    assert code == EXIT_OK
    assert cert["result"]["integrality_asserted"] is False


def test_theta_precondition_error(capsys):
    code, cert = run(capsys, "theta", "--spec", "zeta3", "--S", "oo", "--r", "0")
    assert code == EXIT_PRECONDITION


def test_tower_command_and_recheck(tmp_path, capsys):
    out = tmp_path / "tower.json"
    code, cert = run(
        capsys, "tower", "--spec", "zeta5", "--S", "5,oo", "--T", "2",
        "--r", "-1", "--p", "5", "--N", "2", "--levels", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    assert cert["result"]["coherent"] is True
    assert cert["result"]["twist_congruent"] is True
    code2, report = run(capsys, "recheck", str(out))
    assert code2 == EXIT_OK
    assert report["result"]["matches"] is True


def test_tower_replay_detects_corruption(tmp_path, capsys):
    out = tmp_path / "tower.json"
    code, cert = run(
        capsys, "tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7",
        "--r", "0", "--p", "3", "--N", "2", "--levels", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    tower_json = cert["result"]["tower"]
    key = next(iter(tower_json["levels"][0]["coeffs"]))
    tower_json["levels"][0]["coeffs"][key] = (
        tower_json["levels"][0]["coeffs"][key] + 1
    ) % 9
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(tower_json))
    code2, cert2 = run(
        capsys, "tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7",
        "--r", "0", "--p", "3", "--N", "2", "--levels", "1", "--data", str(replay),
    )
    assert code2 == EXIT_CHECK_FAILED
    assert cert2["result"]["coherent"] is False
    assert cert2["witness"]["failing_layer"] == 0


TOWER_Z3 = ("tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "0",
            "--p", "3", "--N", "2", "--levels", "1")


@pytest.mark.parametrize(
    "key, coeff",
    [("0,0", "1/2"), ("0,0", [1]), ("9,9,9,9", 1)],
    ids=["rational-coefficient", "list-coefficient", "unknown-element"],
)
def test_tower_replay_rejects_malformed_entries(tmp_path, capsys, key, coeff):
    code, cert = run(capsys, *TOWER_Z3)
    assert code == EXIT_OK
    tower_json = cert["result"]["tower"]
    tower_json["levels"][0]["coeffs"][key] = coeff
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(tower_json))
    code2, err = run_refused(capsys, *TOWER_Z3, "--data", str(replay))
    assert code2 == EXIT_IO
    assert err["exit"] == EXIT_IO and "bad tower file" in err["error"]


@pytest.mark.parametrize(
    "changes, fields",
    [({"--p": "5", "--S": "3,5,oo"}, "S, p"), ({"--N": "1"}, "N"), ({"--spec": "Q"}, "spec"),
     ({"--S": "3,5,oo"}, "S"), ({"--T": "5"}, "T"), ({"--r": "-1"}, "r"),
     ({"--levels": "0"}, "levels")],
    ids=["p", "N", "spec", "S", "T", "r", "levels"],
)
def test_tower_replay_rejects_other_configuration(tmp_path, capsys, changes, fields):
    # the replayed tower must be the one the command line describes, or the
    # certificate's input would disagree with its result; each command line
    # is admissible, so the file's header is compared with it
    code, cert = run(capsys, *TOWER_Z3)
    assert code == EXIT_OK
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(cert["result"]["tower"]))
    argv = list(TOWER_Z3)
    for flag, value in changes.items():
        argv[argv.index(flag) + 1] = value
    code2, err = run_refused(capsys, *argv, "--data", str(replay))
    assert code2 == EXIT_IO
    assert err["exit"] == EXIT_IO
    assert err["error"] == f"tower file does not match the command line in {fields}"


@pytest.mark.parametrize(
    "path, value, N",
    [(("p",), 5.9, 2), (("N",), "2", 2), (("levels", 1, "n"), "1", 2), (("meta", "r"), 0.7, 2),
     (("N",), True, 1), (("meta", "hyp", 0), 0, 2), (("meta", "S", 0), 5.9, 2),
     (("meta", "S", 0), 5, 2), (("meta", "T", 0), 2.5, 2), (("meta", "spec", "modulus"), 5.0, 2),
     (("meta", "hyp"), [False], 2)],
    ids=["float-p", "string-N", "string-level-n", "float-r", "bool-N", "int-hyp", "float-S",
         "int-S", "float-T", "float-modulus", "short-hyp"],
)
def test_tower_replay_rejects_non_json_integer_scalars(tmp_path, capsys, path, value, N):
    # p, N, each level's n, meta.r and the spec's modulus are JSON integers,
    # meta.S and meta.T places stored as strings, and hyp one JSON boolean per
    # level; int() or bool() would read each of these as a valid tower
    argv = ("tower", "--spec", "zeta5", "--S", "5,oo", "--T", "2", "--r", "0",
            "--p", "5", "--N", str(N), "--levels", "1")
    code, cert = run(capsys, *argv)
    assert code == EXIT_OK
    tower_json = cert["result"]["tower"]
    *parents, last = path
    target = tower_json
    for key in parents:
        target = target[key]
    target[last] = value
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(tower_json))
    code2, err = run_refused(capsys, *argv, "--data", str(replay))
    assert code2 == EXIT_IO
    assert err["exit"] == EXIT_IO and "bad tower file" in err["error"]


def test_tower_certificate_is_wire_compatible(tmp_path, capsys):
    # a stored certificate locks the tower wire format: recheck and replay
    # must both reproduce it
    path = FIXTURES / "tower_zeta3_cert.json"
    stored = json.loads(path.read_text())
    code, report = run(capsys, "recheck", str(path))
    assert code == EXIT_OK and report["result"]["matches"] is True
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(stored["result"]["tower"]))
    code2, cert = run(
        capsys, "tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "-1",
        "--p", "3", "--N", "2", "--levels", "2", "--data", str(replay),
    )
    assert code2 == EXIT_OK
    assert cert["result"] == stored["result"]


@pytest.mark.parametrize("name", ["theta_zeta12_cert.json", "verify_z23_cert.json"])
def test_theta_certificate_is_wire_compatible(capsys, name):
    # stored certificates lock the theta wire format ("g1,g2" keys over
    # C2 x C2, single-coordinate keys over C22): recheck and a fresh run
    # must both reproduce them
    path = FIXTURES / name
    stored = json.loads(path.read_text())
    code, report = run(capsys, "recheck", str(path))
    assert code == EXIT_OK and report["result"]["matches"] is True
    cfg = stored["input"]
    argv = [
        stored["command"], "--spec", json.dumps(cfg["spec"]), "--S", ",".join(cfg["S"]),
        "--T", ",".join(cfg["T"]), "--r", str(cfg["r"]),
    ]
    if stored["command"] == "verify":
        argv += ["--p", str(cfg["p"]), "--N", str(cfg["N"]),
                 "--data", str(DATA / "table_z23_minus.json")]
    code2, cert = run(capsys, *argv)
    assert code2 == EXIT_OK
    assert cert["result"] == stored["result"]


def test_recheck_detects_flipped_verdict(tmp_path, capsys):
    out = tmp_path / "theta.json"
    code, cert = run(
        capsys, "theta", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "0",
        "--out", str(out),
    )
    assert code == EXIT_OK
    cert["result"]["integral"] = not cert["result"]["integral"]
    out.write_text(json.dumps(cert))
    code2, report = run(capsys, "recheck", str(out))
    assert code2 == EXIT_CHECK_FAILED
    assert report["result"]["matches"] is False


@pytest.mark.parametrize(
    "name, mutate",
    [
        ("theta_zeta12_cert.json", lambda c: []),
        ("theta_zeta12_cert.json", lambda c: {**c, "input": []}),
        ("theta_zeta12_cert.json", lambda c: {**c, "input": {**c["input"], "spec": "zeta5"}}),
        ("theta_zeta12_cert.json", lambda c: {**c, "input": {**c["input"], "S": [5, "oo"]}}),
        ("theta_zeta12_cert.json", lambda c: {**c, "command": []}),
        ("verify_z23_cert.json", lambda c: {**c, "input": {**c["input"], "p": [3]}}),
        ("theta_zeta12_cert.json", lambda c: {**c, "command": "selftest", "input": {
            "seed": 0, "max_conductor": 3, "trials": 1, "complex_trials": 1, "data_dir": []}}),
        ("theta_zeta12_cert.json", lambda c: with_field(c, ("input", "spec", "modulus"), 12.0)),
        ("theta_zeta12_cert.json", lambda c: with_field(c, ("input", "spec", "label"), 1)),
        ("verify_z23_cert.json", lambda c: with_field(c, ("input", "class_data", "provenance"), 1)),
        ("tower_zeta3_cert.json", lambda c: with_field(c, ("input", "strict_hyp"), "no")),
    ],
    ids=["list", "input-list", "spec-string", "S-int", "command-list", "p-list", "data-dir-list",
         "float-modulus", "int-label", "int-provenance", "string-strict-hyp"],
)
def test_recheck_rejects_malformed_certificate(tmp_path, capsys, name, mutate):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.loads((FIXTURES / name).read_text()))))
    code, err = run_refused(capsys, "recheck", str(bad))
    assert code == EXIT_IO and err["exit"] == EXIT_IO


def nested_witness_certificate(levels):
    """The theta fixture with its witness replaced by `levels` nested lists,
    spliced in as text (json.dumps itself recurses once per level)."""
    cert = json.loads((FIXTURES / "theta_zeta12_cert.json").read_text())
    text = json.dumps({**cert, "witness": "WITNESS"})
    return text.replace('"WITNESS"', "[" * levels + "0" + "]" * levels)


@pytest.mark.parametrize("levels", [900, 990])
def test_recheck_refuses_a_deeply_nested_certificate(tmp_path, capsys, levels):
    bad = tmp_path / "deep.json"
    bad.write_text(nested_witness_certificate(levels))
    code, err = run_refused(capsys, "recheck", str(bad))
    assert code == EXIT_IO and err["exit"] == EXIT_IO
    assert str(bad) in err["error"]


def test_wire_depth_bound():
    cert = json.loads((FIXTURES / "tower_zeta3_cert.json").read_text())
    assert wire.depth(cert) < wire.MAX_DEPTH
    # the fixture's object holds the witness: one level for it
    fits = nested_witness_certificate(wire.MAX_DEPTH - 1)
    assert wire.depth(wire.parse(fits, "certificate").value) == wire.MAX_DEPTH
    with pytest.raises(wire.SchemaError, match="bad certificate: nested deeper than 64"):
        wire.parse(nested_witness_certificate(wire.MAX_DEPTH), "certificate")


def test_tower_precision_budget(capsys):
    code, _ = run(
        capsys, "tower", "--spec", "zeta5", "--S", "5,oo", "--T", "2",
        "--r", "-1", "--p", "5", "--N", "3", "--levels", "1",
    )
    assert code == EXIT_PRECONDITION


def test_tower_nonintegral_layer(capsys):
    # T empty: theta not 5-integral at layer 0
    code, _ = run(
        capsys, "tower", "--spec", "zeta5", "--S", "5,oo",
        "--r", "0", "--p", "5", "--N", "2", "--levels", "1",
    )
    assert code == EXIT_PRECONDITION


def test_verify_table_data(capsys):
    code, cert = run(
        capsys, "verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5",
        "--r", "0", "--p", "3", "--N", "2", "--data", str(DATA / "table_z23_minus.json"),
    )
    assert code == EXIT_OK
    assert cert["result"]["annihilation"] is True
    assert cert["result"]["fitting_membership"] is True


def test_verify_synthetic_fails_checks(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code, cert = run(
        capsys, "verify", "--spec", "zeta3", "--S", "3,oo", "--T", "7",
        "--r", "0", "--p", "3", "--N", "2",
        "--data", str(DATA / "synthetic_z3_quadratic.json"), "--out", str(out),
    )
    assert code == EXIT_CHECK_FAILED
    assert cert["result"]["annihilation"] is False
    assert cert["result"]["fitting_membership"] is False
    assert any(any(row) for row in cert["witness"]["acting_matrix"])
    assert any(cert["witness"]["fitting_residual"])
    # certificates re-validate even when the verdicts are negative
    code2, report = run(capsys, "recheck", str(out))
    assert code2 == EXIT_OK and report["result"]["matches"] is True


def test_verify_group_mismatch(capsys):
    code, _ = run(
        capsys, "verify", "--spec", "zeta5", "--S", "5,oo", "--T", "3",
        "--r", "0", "--p", "3", "--N", "2", "--data", str(DATA / "synthetic_z3_quadratic.json"),
    )
    assert code == EXIT_PRECONDITION


def test_invalid_class_data_is_precondition(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "orders": [3], "group_orders": [2], "action": {"g0": [[0]]},
        "provenance": "broken",
    }))
    code, _ = run(
        capsys, "verify", "--spec", "zeta3", "--S", "3,oo", "--T", "7",
        "--r", "0", "--p", "3", "--N", "2", "--data", str(bad),
    )
    assert code == EXIT_PRECONDITION


def test_theta_spec_zeta0_is_schema_error(capsys):
    code, err = run_refused(capsys, "theta", "--spec", "zeta0", "--S", "oo")
    assert code == EXIT_IO and err["exit"] == EXIT_IO


def test_verify_class_data_list_is_schema_error(capsys, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([1, 2, 3]))
    code, err = run_refused(
        capsys, "verify", "--spec", "zeta3", "--S", "3,oo", "--T", "7",
        "--r", "0", "--p", "3", "--N", "2", "--data", str(bad),
    )
    assert code == EXIT_IO and err["exit"] == EXIT_IO


@pytest.mark.parametrize(
    "action", [{"g0": [["x"]]}, {"gx": [[2]]}], ids=["entry", "key"],
)
def test_verify_malformed_action_is_schema_error(capsys, tmp_path, action):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"orders": [3], "group_orders": [2], "action": action}))
    code, err = run_refused(
        capsys, "verify", "--spec", "zeta3", "--S", "3,oo", "--T", "7",
        "--r", "0", "--p", "3", "--N", "2", "--data", str(bad),
    )
    assert code == EXIT_IO and err["exit"] == EXIT_IO


@pytest.mark.parametrize("p", ["0", "4"])
def test_verify_non_odd_prime_is_precondition(capsys, p):
    code, err = run_refused(
        capsys, "verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
        "--p", p, "--N", "2", "--data", str(DATA / "table_z23_minus.json"),
    )
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION


def test_verify_refuses_class_data_whose_action_is_not_well_defined(tmp_path, capsys):
    """g0 sends e_0 (order 3) to e_1 (order 9), and 3 * 1 is not 0 mod 9:
    the class data is refused at ingestion (exit 2, one JSON error), so no
    dual of an ill-defined action is ever presented."""
    data = json.loads((DATA / "table_z23_minus.json").read_text())
    data.update(orders=[3, 9], action={"g0": [[0, 1], [1, 0]]})
    path = tmp_path / "ill_defined.json"
    path.write_text(json.dumps(data))
    code, err = run_refused(
        capsys, "verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
        "--p", "3", "--N", "2", "--data", str(path),
    )
    assert code == EXIT_PRECONDITION and err == {
        "error": "action matrix g0 is not well defined mod orders", "exit": EXIT_PRECONDITION}


def test_missing_files_are_io_errors(capsys):
    code, _ = run(capsys, "theta", "--spec", "nosuch.json", "--S", "oo")
    assert code == EXIT_IO
    code, _ = run(
        capsys, "verify", "--spec", "zeta3", "--S", "3,oo", "--T", "7",
        "--r", "0", "--p", "3", "--N", "2", "--data", "nosuch.json",
    )
    assert code == EXIT_IO


def test_fitting_command(tmp_path, capsys):
    out = tmp_path / "fitting.json"
    code, cert = run(capsys, "fitting", "--seed", "1", "--trials", "6", "--out", str(out))
    assert code == EXIT_OK
    assert cert["result"]["ok"] is True
    code2, report = run(capsys, "recheck", str(out))
    assert code2 == EXIT_OK and report["result"]["matches"] is True


@pytest.mark.parametrize(
    "argv, field",
    [
        (["fitting", "--trials", "-3"], "trials"),
        (["complex", "--trials", "-1"], "trials"),
        (["complex", "--trials", "-1", "--data", "{complex}"], "trials"),
        (["selftest", "--trials", "-1"], "trials"),
        (["selftest", "--complex-trials", "-1"], "complex_trials"),
        (["selftest", "--max-conductor", "-5"], "max_conductor"),
    ],
    ids=["fitting-trials", "complex-trials", "complex-data-trials", "selftest-trials",
         "selftest-complex-trials", "selftest-max-conductor"],
)
def test_negative_counts_are_refused(tmp_path, capsys, monkeypatch, argv, field):
    from iwasawa_kit import cli

    def campaign(*args, **kwargs):
        pytest.fail("a campaign ran with a negative count")

    for name in ("fitting_campaigns", "complex_campaigns", "run_all", "_run_complex_file"):
        monkeypatch.setattr(cli, name, campaign)
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_payload()))
    code, err = run_refused(capsys, *(a.format(complex=path) for a in argv))
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
    assert f"{field}: expected a non-negative integer" in err["error"]


def test_a_certificate_past_the_int_str_limit_is_refused(capsys):
    # the tower entries mod 3^10000 have more than 4,300 digits, past
    # sys.get_int_max_str_digits(), so json could neither write nor reread them
    argv = ["tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--p", "3", "--N", "10000",
            "--levels", "1"]
    code, err = run_refused(capsys, *argv)
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
    assert f"limit ({sys.get_int_max_str_digits()} digits)" in err["error"]


def test_a_run_out_of_memory_is_refused(capsys, monkeypatch):
    from iwasawa_kit import cli

    def exhausted(config):
        raise MemoryError

    monkeypatch.setitem(cli.RUNNERS, "fitting", exhausted)
    code, err = run_refused(capsys, "fitting", "--trials", "1")
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
    assert err["error"].startswith("out of memory")


def test_recheck_refuses_a_negative_count(tmp_path, capsys):
    out = tmp_path / "fitting.json"
    code, _ = run(capsys, "fitting", "--seed", "1", "--trials", "1", "--out", str(out))
    assert code == EXIT_OK
    cert = json.loads(out.read_text())
    cert["input"]["trials"] = -1
    out.write_text(json.dumps(cert))
    code, err = run_refused(capsys, "recheck", str(out))
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
    assert "input.trials: expected a non-negative integer, got -1" in err["error"]


def test_recheck_refuses_an_empty_data_dir(tmp_path, capsys, monkeypatch):
    # a stored selftest input naming the empty data directory is refused
    # before any suite runs, as on the command line
    from iwasawa_kit import cli

    monkeypatch.setattr(cli, "run_all", lambda **kw: pytest.fail("the suites ran"))
    config = {"seed": 0, "max_conductor": 3, "trials": 1, "complex_trials": 1, "data_dir": ""}
    out = tmp_path / "selftest.json"
    out.write_text(json.dumps({"command": "selftest", "input": config, "result": {}}))
    code, err = run_refused(capsys, "recheck", str(out))
    assert code == EXIT_IO and err["exit"] == EXIT_IO
    assert "input.data_dir: expected a directory name" in err["error"]


def test_closed_stdout_exits_4_without_a_traceback():
    # the read end of stdout is closed before the child writes its certificate
    read_end, write_end = os.pipe()
    os.close(read_end)
    paths = [str(Path(iwasawa_kit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "iwasawa_kit.cli", "fitting", "--trials", "0"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["exit"] == EXIT_IO


def test_zero_trials_run_the_campaigns(capsys):
    # zero trials are a count: the campaigns run, and the suites that need
    # trials report no checks
    code, cert = run(capsys, "fitting", "--seed", "1", "--trials", "0")
    assert code != EXIT_PRECONDITION and cert["input"]["trials"] == 0


def test_complex_command_campaign(capsys):
    code, cert = run(capsys, "complex", "--seed", "1", "--trials", "6")
    assert code == EXIT_OK
    assert cert["result"]["ok"] is True


def complex_payload(differential=(3,), one=(1,)):
    """The one-term complex Z/9 --3--> Z/9 of the ingestion test, with its
    differential entry and unit vector replaceable."""
    from iwasawa_kit.fitting import zmod_algebra

    alg = algebra_json(zmod_algebra(3, 2))
    alg["one"] = list(one)
    return {
        "algebra": alg,
        "degrees": [0, 1],
        "modules": [{"ngens": 1, "relations": []}, {"ngens": 1, "relations": []}],
        "differentials": [[[list(differential)]]],
    }


def test_complex_command_ingestion(tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_payload()))
    code, cert = run(capsys, "complex", "--data", str(path))
    assert code == EXIT_OK
    assert cert["result"]["cohomology_sizes"] == {"0": 3, "1": 3}
    assert cert["result"]["acyclic"] is False


def test_complex_data_on_a_free_module_of_rank_20_takes_under_a_second(tmp_path, capsys):
    """One free module of rank 20 over (Z/9)[C2], no differential: H^0 is
    free on 20 generators, not on its 40 Howell rows."""
    alg = GroupAlgebra(3, 2, FiniteAbelianGroup((2,)))
    payload = {"algebra": algebra_json(alg), "degrees": [0, 0],
               "modules": [{"ngens": 20, "relations": []}], "differentials": []}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, cert = run(capsys, "complex", "--data", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert cert["result"]["cohomology_sizes"] == {"0": 81**20}


def test_complex_data_certificate_rechecks(tmp_path, capsys):
    # the certificate's input carries the complex, so recheck re-runs it
    # rather than the seed-0 campaigns
    fixture = FIXTURES / "complex_z9.json"
    assert json.loads(fixture.read_text()) == complex_payload()
    out = tmp_path / "complex_cert.json"
    code, cert = run(capsys, "complex", "--data", str(fixture), "--out", str(out))
    assert code == EXIT_OK
    assert cert["input"]["complex_data"] == complex_payload()
    code, report = run(capsys, "recheck", str(out))
    assert code == EXIT_OK and report["result"]["matches"] is True


def test_complex_certificate_over_z9_c2xc2_is_wire_compatible(capsys):
    """A stored `complex --data` certificate over (Z/9)[C2 x C2] locks the
    canonical form: its Euler-Fitting numerator and denominator are Howell
    forms, so a fresh run must reproduce them entry by entry, and recheck
    must accept the stored file. The certificate carries no timing."""
    data, path = FIXTURES / "complex_z9_c2xc2.json", FIXTURES / "complex_z9_c2xc2_cert.json"
    stored = json.loads(path.read_text())
    assert stored["input"]["complex_data"] == json.loads(data.read_text())
    assert all(len(r) == 4 for pair in stored["result"]["euler_fitting"].values() for r in pair)
    code, cert = run(capsys, "complex", "--data", str(data))
    assert code == EXIT_OK
    assert cert == stored
    code, report = run(capsys, "recheck", str(path))
    assert code == EXIT_OK and report["result"]["matches"] is True


def test_fitting_certificate_at_seed_3_is_wire_compatible(capsys):
    """A stored `fitting --seed 3 --trials 60` certificate locks the verdicts
    and trial counts of every Fitting suite: recheck reruns the campaigns and
    must reproduce it, `seconds` aside."""
    path = FIXTURES / "fitting_seed3_cert.json"
    stored = json.loads(path.read_text())
    assert stored["input"] == {"seed": 3, "trials": 60} and stored["result"]["ok"] is True
    code, report = run(capsys, "recheck", str(path))
    assert code == EXIT_OK and report["result"]["matches"] is True


@pytest.mark.parametrize(
    "payload",
    [
        complex_payload(differential=(3, 4)),
        complex_payload(differential=(3.0,)),
        complex_payload(differential=()),
        complex_payload(one=(1, 0)),
        {**complex_payload(), "differentials": {}},
        {**complex_payload(), "degrees": [0, 0], "modules": [{"ngens": 1, "relations": []}],
         "differentials": {}},
        {**complex_payload(), "modules": {}},
    ],
    ids=["long-entry", "float-entry", "empty-entry", "long-one", "object-differentials",
         "one-module-object-differentials", "object-modules"],
)
def test_complex_data_refuses_malformed_vectors(tmp_path, capsys, payload):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(payload))
    code, err = run_refused(capsys, "complex", "--data", str(path))
    assert code == EXIT_IO and err["exit"] == EXIT_IO


def with_field(payload, path, value):
    """The payload with the leaf or sub-object at path (keys and indices)
    replaced by value."""
    out = json.loads(json.dumps(payload))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "path, value",
    [
        (("algebra", "p"), 3.7),
        (("algebra", "p"), True),
        (("algebra", "N"), "2"),
        (("modules", 0, "ngens"), 1.9),
        (("modules", 0, "ngens"), -1),
        (("degrees",), [0.5, "x"]),
        (("degrees",), [True, 1]),
        (("degrees",), [0, 5]),
        (("degrees",), [0]),
        (("degrees",), {}),
    ],
    ids=["float-p", "bool-p", "string-N", "float-ngens", "negative-ngens", "float-degrees",
         "bool-degrees", "degrees-past-modules", "one-degree", "object-degrees"],
)
def test_complex_data_refuses_malformed_scalars(tmp_path, capsys, path, value):
    file = tmp_path / "complex.json"
    file.write_text(json.dumps(with_field(complex_payload(), path, value)))
    code, err = run_refused(capsys, "complex", "--data", str(file))
    assert code == EXIT_IO and err["exit"] == EXIT_IO


def test_complex_data_refuses_a_differential_that_is_not_well_defined(tmp_path, capsys):
    """Z/9/(3) -1-> Z/9 sends the relation 3 to 3 != 0: refused at ingestion
    (exit 2), before any kernel span is read."""
    payload = with_field(complex_payload(differential=(1,)), ("modules", 0, "relations"), [[[3]]])
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(payload))
    code, err = run_refused(capsys, "complex", "--data", str(path))
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
    assert "differential in degree 0 is not well defined" in err["error"]


# The class names of the package, none of which a refusal of p or N names.
PACKAGE_CLASSES = {
    name
    for info in pkgutil.iter_modules(iwasawa_kit.__path__)
    for name, obj in vars(importlib.import_module(f"iwasawa_kit.{info.name}")).items()
    if inspect.isclass(obj) and obj.__module__.startswith("iwasawa_kit")
}


@pytest.mark.parametrize(
    "route, p, N",
    [("GroupAlgebra", 4, 2), ("GroupAlgebra", 3, 0), ("complex --data", 4, 2),
     ("complex --data", 3, 0), ("complex --data", 3, -1), ("verify", 3, 0)],
)
def test_a_bad_modulus_is_refused_by_its_p_or_N(tmp_path, capsys, route, p, N):
    """Every modulus is born in FiniteCommAlgebra._ring, which a group algebra
    and a complex file's algebra both reach: a p that is not prime or an
    N < 1 raises ValueError (exit 2 through the CLI) naming p or N and no
    class of the package."""
    if route == "GroupAlgebra":
        with pytest.raises(ValueError) as exc:
            GroupAlgebra(p, N, FiniteAbelianGroup((2,)))
        message = str(exc.value)
    else:
        if route == "verify":
            argv = ["verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
                    "--p", str(p), "--N", str(N), "--data", str(DATA / "table_z23_minus.json")]
        else:
            payload = with_field(with_field(complex_payload(), ("algebra", "p"), p), ("algebra", "N"), N)
            path = tmp_path / "complex.json"
            path.write_text(json.dumps(payload))
            argv = ["complex", "--data", str(path)]
        code, err = run_refused(capsys, *argv)
        assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
        message = err["error"]
    assert (f"N={N}" if is_prime(p) else f"p={p}") in message
    assert {"FiniteCommAlgebra", "GroupAlgebra"} <= PACKAGE_CLASSES
    assert not PACKAGE_CLASSES & set(re.findall(r"\w+", message)), message


def payload_paths(node, prefix=()):
    """Every key/index path below the root of a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from payload_paths(child, prefix + (key,))


def value_at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


TOWER_CERT = json.loads((FIXTURES / "tower_zeta3_cert.json").read_text())
# (payload, the command that reads it from the file appended to argv, and
# whether a value replaced by one of another JSON type must be refused)
FUZZED_PAYLOADS = [
    (complex_payload(), ["complex", "--data"], False),
    (json.loads((DATA / "table_z23_minus.json").read_text()),
     ["verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0", "--p", "3", "--N", "2",
      "--data"], True),
    (TOWER_CERT["result"]["tower"],
     ["tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "-1", "--p", "3", "--N", "2",
      "--levels", "2", "--data"], True),
    (json.loads((FIXTURES / "theta_zeta12_cert.json").read_text()), ["recheck"], False),
]


@settings(max_examples=400, deadline=None)
@given(
    target=st.sampled_from([
        (i, path) for i, (payload, _, _) in enumerate(FUZZED_PAYLOADS)
        for path in payload_paths(payload)
    ]),
    value=st.sampled_from([-1, 0, 1, 2, 1.5, True, None, "x", [], {}]),
)
def test_payload_fuzz(target, value):
    index, path = target
    payload, argv, strict = FUZZED_PAYLOADS[index]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "payload.json"
        file.write_text(json.dumps(with_field(payload, path, value)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(file)])
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_CHECK_FAILED, EXIT_IO)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():  # a certificate: success or a failed check
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    else:  # a refusal: one JSON error
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and error["exit"] == code != EXIT_OK
    if strict and type(value) is not type(value_at(payload, path)):
        assert code != EXIT_OK, (path, value)


def test_selftest_small_bounds(tmp_path, capsys):
    out = tmp_path / "selftest.json"
    code = main(
        [
            "selftest", "--seed", "7", "--max-conductor", "7", "--trials", "6",
            "--complex-trials", "4", "--data-dir", str(DATA), "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    cert = json.loads(out.read_text())
    assert cert["result"]["ok"] is True
    assert "[PASS]" in captured.err
    # determinism: the same seed reproduces identical verdicts
    code2 = main(
        [
            "selftest", "--seed", "7", "--max-conductor", "7", "--trials", "6",
            "--complex-trials", "4", "--data-dir", str(DATA), "--out", str(out),
        ]
    )
    capsys.readouterr()
    cert2 = json.loads(out.read_text())
    assert code2 == EXIT_OK
    strip = lambda c: [
        {k: v for k, v in s.items() if k != "seconds"} for s in c["result"]["suites"]
    ]
    assert strip(cert) == strip(cert2)


MANIFEST = json.loads((DATA / "manifest.json").read_text())


@pytest.mark.parametrize(
    "manifest, data_dir",
    [("[]", "."), (json.dumps(with_field(MANIFEST, ("entries", 0, "data"), "nosuch.json")), "."),
     ("{", "."), (json.dumps(with_field(MANIFEST, ("entries", 0, "p"), 3.0)), "."),
     (json.dumps(with_field(MANIFEST, ("entries", 1, "S"), [3, "oo"])), "."),
     (None, "nosuch"), (None, "."), (json.dumps(MANIFEST), "manifest.json"),
     (None, "")],
    ids=["list", "missing-data-file", "not-json", "float-p", "int-S",
         "missing-dir", "no-manifest", "regular-file", "empty"],
)
def test_selftest_refuses_bad_data_dir(tmp_path, capsys, monkeypatch, manifest, data_dir):
    # the manifest and every data file it names are read and checked before
    # the first campaign runs; a data directory that is missing, has no
    # manifest, is a file or is named by the empty string is refused, not
    # skipped
    from iwasawa_kit import campaigns

    def campaign(seed):
        pytest.fail("a campaign ran before the data directory was checked")

    monkeypatch.setattr(campaigns, "exact_arith_campaign", campaign)
    for entry in MANIFEST["entries"]:
        (tmp_path / entry["data"]).write_text((DATA / entry["data"]).read_text())
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(manifest)
    code, err = run_refused(
        capsys, "selftest", "--max-conductor", "3", "--trials", "1", "--complex-trials", "1",
        "--data-dir", str(tmp_path / data_dir) if data_dir else "",
    )
    assert code == EXIT_IO and err["exit"] == EXIT_IO


ZETA5 = {"modulus": 5, "fixing": [1], "label": "Q(zeta_5)"}


@pytest.mark.parametrize(
    "changes, message",
    [({"spec": ZETA5, "S": ["5", "oo"]}, "group mismatch"),
     ({"spec": ZETA5}, "S misses ramified primes"),
     ({"T": []}, "theta must have integer coefficients"),
     ({"p": 9}, "odd prime")],
    ids=["zeta5-groups", "zeta5-S", "non-integral-theta", "p-not-prime"],
)
def test_selftest_refuses_manifest_entries_off_their_preconditions(
    tmp_path, capsys, monkeypatch, changes, message
):
    # a well-typed entry whose spec, places or prime do not fit its class data
    # is a precondition refusal (exit 2) before the first campaign runs, not a
    # failed trial of the annihilation suite
    from iwasawa_kit import campaigns

    def campaign(seed):
        pytest.fail("a campaign ran before the manifest entries were checked")

    monkeypatch.setattr(campaigns, "exact_arith_campaign", campaign)
    manifest = MANIFEST
    for key, value in changes.items():
        manifest = with_field(manifest, ("entries", 0, key), value)
    for entry in MANIFEST["entries"]:
        (tmp_path / entry["data"]).write_text((DATA / entry["data"]).read_text())
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, err = run_refused(
        capsys, "selftest", "--max-conductor", "3", "--trials", "1", "--complex-trials", "1",
        "--data-dir", str(tmp_path),
    )
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
    assert err["error"].startswith("manifest entry trivial_z3.json: ") and message in err["error"]


SPECS = st.one_of(
    st.integers(0, 30).map(lambda n: f"zeta{n}"),
    st.sampled_from(["", ".", "Q", "zeta", "zetax", "zeta-3", "zeta 5", "-x", "--", "oo",
                     "{", "{}", '{"modulus": 5}', '{"modulus": 4, "fixing": [3]}',
                     "missing.json"]),
)
PLACES = st.lists(
    st.sampled_from(["oo", "inf", "x", "4", "", "1", "2", "3", "5", "7", "11", "13", "-2"]),
    max_size=5,
).map(",".join)


@settings(max_examples=150, deadline=None)
@given(spec=SPECS, S=PLACES, T=PLACES, r=st.integers(-8, 1))
def test_theta_argv_fuzz(spec, S, T, r):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["theta", "--spec", spec, "--S", S, "--T", T, "--r", str(r)])
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_CHECK_FAILED, EXIT_IO)
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and error["exit"] == code


@pytest.mark.parametrize(
    "spec",
    ["", ".", '{"modulus": 7.9, "fixing": [1]}', '{"modulus": "7", "fixing": [1]}',
     '{"modulus": true, "fixing": [1]}', '{"modulus": 7, "fixing": [1.5]}',
     '{"modulus": 7, "fixing": {"1": 0}}'],
    ids=["empty", "directory", "float-modulus", "string-modulus", "bool-modulus",
         "float-fixing", "object-fixing"],
)
def test_theta_spec_directory_is_io_error(capsys, spec):
    code, err = run_refused(capsys, "theta", "--spec", spec, "--S", "oo")
    assert code == EXIT_IO and err["exit"] == EXIT_IO


def test_usage_error_is_one_json_error(capsys):
    code, err = run_refused(capsys, "theta", "--spec", "-x")
    assert code == EXIT_PRECONDITION and "--spec" in err["error"]


def test_every_refusal_of_the_table_is_one_json_error_with_its_exit_code(tmp_path, capsys):
    # one refused command line for each way a command is refused; the
    # reachability guard runs the same table
    for name, (want, phrase, argv) in refusals(tmp_path).items():
        code, err = run_refused(capsys, *argv)
        assert code == want == err["exit"] and phrase in err["error"], (name, err)


def patch_every_binding(monkeypatch, originals, replacement):
    """Bind replacement wherever the package or one of its modules binds one
    of originals."""
    modules = [iwasawa_kit, *(importlib.import_module(f"iwasawa_kit.{info.name}")
                              for info in pkgutil.iter_modules(iwasawa_kit.__path__))]
    for module in modules:
        for name, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, name, replacement)


def test_place_refusals_build_no_galois_group(capsys, monkeypatch):
    """theta, tower and verify refuse every (S, T) fault with exit 2 in
    check_hyp's words, and theta and tower refuse r > 0, while galois_group
    and tower_level raise at every binding in the package: the rules are
    checked before any group is built."""
    from iwasawa_kit import abelian, tower

    def built(*args):
        raise AssertionError("a Galois group was built before the refusal")

    patch_every_binding(monkeypatch, (abelian.galois_group, tower.tower_level), built)
    cases = place_refusals()
    assert len(cases) == 15
    for name, (want, message, argv) in cases.items():
        code, err = run_refused(capsys, *argv)
        assert code == want == err["exit"] == EXIT_PRECONDITION, (name, err)
        spec, S, T, r = (argv[argv.index(flag) + 1] for flag in ("--spec", "--S", "--T", "--r"))
        config = {"spec": parse_spec(spec).to_json(), "S": parse_places(S),
                  "T": parse_places(T), "r": int(r)}
        spec, S, T, r = field_config(wire.Node(config, "configuration"))
        hyp, why = check_hyp(spec, S, T)
        # places that break a rule are refused in check_hyp's words, r > 0 in its own
        refusal = f"partial zeta values only at r <= 0, got {r}" if hyp else why
        assert err["error"] == message == refusal, name


def test_tower_refusals_build_no_level(tmp_path, capsys, monkeypatch):
    """Every tower row of the table but those refused by what a level holds
    (BUILT_TOWER_REFUSALS) is refused with its exit code and phrase while
    galois_group, tower_level and TowerLevelData.__init__ raise: a tower,
    fresh or replayed, is admitted before any Galois group or level is
    built, and a replay's command line and header before its levels."""
    from iwasawa_kit import abelian, tower

    def built(*args):
        raise AssertionError("a Galois group or a tower level was built before the refusal")

    cases = {name: case for name, case in refusals(tmp_path).items()
             if name.startswith("tower-") and name not in BUILT_TOWER_REFUSALS}
    assert len(cases) == 17
    patch_every_binding(monkeypatch, (abelian.galois_group, tower.tower_level), built)
    monkeypatch.setattr(abelian.TowerLevelData, "__init__", built)
    for name, (want, phrase, argv) in cases.items():
        code, err = run_refused(capsys, *argv)
        assert code == want == err["exit"] and phrase in err["error"], (name, err)


def test_verify_refuses_p_and_the_group_size_before_any_galois_group(capsys, monkeypatch):
    """verify refuses p = 2 and a module group of the wrong size with exit 2
    while galois_group and tower_level raise at every binding in the
    package: both rules read the spec, never its Galois group."""
    from iwasawa_kit import abelian, tower

    def built(*args):
        raise AssertionError("a Galois group was built before the refusal")

    patch_every_binding(monkeypatch, (abelian.galois_group, tower.tower_level), built)
    cases = verify_refusals()
    messages = {"verify-p-two": "fitting membership needs an odd prime",
                "verify-group-size": "group mismatch: the field's group has order 10006, "
                                     "the module's 2"}
    for name in UNBUILT_VERIFY_REFUSALS:
        want, _, argv = cases[name]
        code, err = run_refused(capsys, *argv)
        assert code == want == err["exit"] == EXIT_PRECONDITION, (name, err)
        assert err["error"] == messages[name], name


def test_places_are_admitted_once_per_theta_or_tower(tmp_path, capsys, monkeypatch):
    """admissible_places, wrapped at every binding in the package, runs once
    per theta_tower (n_max = 0..3), once per theta command, once for the
    README verify (its theta is built on the places verify_case admitted),
    twice for the README tower at r = -1: its tower and the r = 0 tower of
    its congruence, and three times for that tower replayed through --data:
    its command line, the file's header (TowerElement.from_json) and the
    r = 0 tower."""
    from iwasawa_kit import abelian
    from iwasawa_kit.tower import theta_tower

    calls = []
    original = abelian.admissible_places

    def counted(*args):
        calls.append(args)
        return original(*args)

    patch_every_binding(monkeypatch, (original,), counted)
    z3 = parse_spec("zeta3")
    for n_max in range(4):
        calls.clear()
        theta_tower(z3, [3, "oo"], [5, 7], 3, 2, n_max, -1)
        assert len(calls) == 1, n_max
    readme_theta = ("theta", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "0")
    readme_tower = ("tower", "--spec", "zeta5", "--S", "5,oo", "--T", "2", "--r", "-1",
                    "--p", "5", "--N", "2", "--levels", "2")
    readme_verify = ("verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
                     "--p", "3", "--N", "2", "--data", str(DATA / "table_z23_minus.json"))
    replay = tmp_path / "replay.json"
    replay_tower = (*readme_tower, "--data", str(replay))
    for argv, checks in ((readme_theta, 1), (readme_verify, 1), (readme_tower, 2),
                         (replay_tower, 3)):
        calls.clear()
        code, cert = run(capsys, *argv)
        assert (code, len(calls)) == (EXIT_OK, checks), argv
        if argv == readme_tower:
            replay.write_text(json.dumps(cert["result"]["tower"]))


def test_unwritable_out_is_an_io_error(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "nosuch" / "cert.json"):
        code, err = run_refused(capsys, "fitting", "--trials", "0", "--out", str(out))
        assert code == EXIT_IO and err["exit"] == EXIT_IO
        assert "cannot write the certificate" in err["error"]


# ---------------------------------------------------------------------------
# One parser per process: in-process calls share it, and nothing of one call
# reaches the next.

def call(argv):
    """Exit code, stdout and stderr of one in-process call (a help request
    exits through SystemExit, as argparse does)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


TOWER_ARGV = ["tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "-1",
              "--p", "3", "--N", "2", "--levels", "2"]
VERIFY_ARGV = ["verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
               "--p", "3", "--N", "2", "--data"]


def interleaved_calls(tmp_path):
    """A replayed tower, a fresh tower, verify, a usage error, a missing file
    and recheck, with their exit codes."""
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(TOWER_CERT["result"]["tower"]))
    return [
        ([*TOWER_ARGV, "--data", str(replay)], EXIT_OK),
        (TOWER_ARGV, EXIT_OK),
        ([*VERIFY_ARGV, str(DATA / "table_z23_minus.json")], EXIT_OK),
        (["tower", "--spec", "zeta3", "--levels", "x"], EXIT_PRECONDITION),
        ([*VERIFY_ARGV, str(tmp_path / "nosuch.json")], EXIT_IO),
        (["recheck", str(FIXTURES / "tower_zeta3_cert.json")], EXIT_OK),
    ]


def test_one_parser_serves_interleaved_calls(tmp_path, monkeypatch):
    from iwasawa_kit import cli

    assert cli.build_parser() is cli.build_parser()
    for argv, code in interleaved_calls(tmp_path):
        shared = call(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = call(argv)
        assert shared == fresh and shared[0] == code, argv


def test_calls_leave_no_argparse_garbage(tmp_path):
    calls = [argv for argv, _ in interleaved_calls(tmp_path)]
    call(calls[0])  # the parser of the process exists before the count starts
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for k in range(20):
            call(calls[k % len(calls)])
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


# Argv fuzz over every command but theta (test_theta_argv_fuzz), in this one
# process, so that the shared parser meets every kind of call in turn. Each
# value is drawn from well-formed choices, or in a wild example also from
# malformed ones; trial counts and conductor bounds are always given, and
# small.

def choice(valid, invalid=()):
    """(well-formed values, any value) as two strategies."""
    return st.sampled_from(valid), st.sampled_from([*valid, *invalid])


COUNT = choice(["0", "1", "2"], ["-1", "x", "1.5", "", "0x1"])
SEED = choice(["0", "1", "7", "-4", "99999999999999999999"], ["x", "2.0", ""])
SPEC = choice(["zeta3", "zeta4", "zeta5", "zeta7", "zeta12", "zeta23", "Q"],
              ["zeta0", "zetax", "{", '{"modulus": 5}', "missing.json"])
PRIME = choice(["3", "5", "7"], ["2", "4", "1", "0", "-3", "x"])
PRECISION = choice(["1", "2", "3"], ["0", "-2", "x"])
LEVELS = choice(["0", "1", "2"], ["-1", "x"])
R = choice(["0", "-1", "-2", "1"], ["x", "1.5"])
S_PLACES = choice(["oo", "3,oo", "5,oo", "7,oo", "2,3,oo", "3,23,oo", "2,3,5,7,oo"],
                  ["", "3", "x,oo", "oo,oo", "-3,oo", "4,oo"])
T_PLACES = choice(["", "2", "5", "7", "11", "11,13"], ["oo", "3,x", "1", "-2", ","])
FLAG = (st.just(None), st.just(None))  # a flag that takes no value
JUNK = st.lists(st.sampled_from(["--bogus", "-x", "--", "-h", "extra", "--seed", "--out="]),
                max_size=2)


@pytest.fixture(scope="module")
def fuzz_commands(tmp_path_factory):
    """Per command: its positional argument, its required flags and its
    optional flags, each with its (well-formed, any) value strategies; files
    are data files, certificates, a complex, a tower replay, directories, a
    missing file, non-JSON and an empty name."""
    tmp = tmp_path_factory.mktemp("argv_fuzz")
    (tmp / "replay.json").write_text(json.dumps(TOWER_CERT["result"]["tower"]))
    (tmp / "garbage.json").write_text("{not json")
    bad = [str(f) for f in (tmp / "garbage.json", tmp / "missing.json", tmp, "")]

    def files(*good):
        return choice([str(f) for f in good], bad + [str(DATA / "trivial_z3.json")])

    out = choice([str(tmp / "out.json")], [str(tmp), str(tmp / "nosuch" / "out.json"), ""])
    field = {"--spec": SPEC, "--p": PRIME, "--N": PRECISION, "--S": S_PLACES}
    field_options = {"--T": T_PLACES, "--r": R, "--out": out}
    class_data = files(DATA / "table_z23_minus.json", DATA / "trivial_z3.json")
    return {
        "verify": (None, {**field, "--data": class_data}, field_options),
        "tower": (None, {**field, "--levels": LEVELS},
                  {**field_options, "--data": files(tmp / "replay.json"), "--strict-hyp": FLAG}),
        "fitting": (None, {"--trials": COUNT}, {"--seed": SEED, "--out": out}),
        "complex": (None, {"--trials": COUNT},
                    {"--seed": SEED, "--data": files(FIXTURES / "complex_z9.json"), "--out": out}),
        "selftest": (None, {"--trials": COUNT, "--complex-trials": COUNT, "--max-conductor": COUNT},
                     {"--seed": SEED, "--data-dir": files(DATA), "--out": out}),
        "recheck": (files(*(FIXTURES / n for n in ("tower_zeta3_cert.json",
                                                  "theta_zeta12_cert.json",
                                                  "verify_z23_cert.json")), tmp / "out.json"),
                    {}, {"--out": out}),
    }


COUNT_FLAGS = {"--trials", "--complex-trials", "--max-conductor"}


def fuzz_argv(data, commands):
    """One argv: a command, its flags in a drawn order and, in a wild example,
    malformed values, left-out required flags (never a count) and junk."""
    # a selftest that parses runs every suite (0.1-0.2 s): one draw in 31
    others = sorted(set(commands) - {"selftest"})
    command = data.draw(st.sampled_from(["selftest"] + others * 6))
    positional, required, optional = commands[command]
    wild = data.draw(st.integers(0, 3)) == 0
    kept = [f for f in required if f in COUNT_FLAGS or not wild or data.draw(st.integers(0, 5))]
    kept += [f for f in optional if data.draw(st.booleans())]
    argv = [command]
    if positional and (not wild or data.draw(st.integers(0, 5))):
        argv.append(data.draw(positional[wild]))
    for flag in data.draw(st.permutations(kept)):
        value = data.draw({**required, **optional}[flag][wild])
        argv += [flag] if value is None else [flag, value]
    return argv + (data.draw(JUNK) if wild else [])


# derandomized: the same examples on every run, so that the test's time
# (most of it in the few examples that run a selftest) is the same too
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_argv_fuzz(fuzz_commands, data):
    argv = fuzz_argv(data, fuzz_commands)
    code, out, err = call(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_CHECK_FAILED, EXIT_IO), argv
    assert "Traceback" not in err, argv
    if out:  # a certificate (success or a failed check), or the help text
        assert code in (EXIT_OK, EXIT_CHECK_FAILED), argv
        if not out.startswith("usage:"):
            assert isinstance(json.loads(out), dict)
    else:  # a refusal: one JSON error
        error = json.loads(err)
        assert isinstance(error, dict) and error["exit"] == code != EXIT_OK, argv
