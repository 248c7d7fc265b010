"""CLI tests: exit codes, certificate emission, replay, and round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iwasawa_kit
from iwasawa_kit import wire
from iwasawa_kit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
)

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
    "flag, value",
    [("--p", "5"), ("--N", "1"), ("--spec", "zeta5"), ("--S", "3,7,oo"), ("--T", "5"),
     ("--r", "-1"), ("--levels", "0")],
)
def test_tower_replay_rejects_other_configuration(tmp_path, capsys, flag, value):
    # the replayed tower must be the one the command line describes, or the
    # certificate's input would disagree with its result
    code, cert = run(capsys, *TOWER_Z3)
    assert code == EXIT_OK
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(cert["result"]["tower"]))
    argv = list(TOWER_Z3)
    argv[argv.index(flag) + 1] = value
    code2, err = run_refused(capsys, *argv, "--data", str(replay))
    assert code2 == EXIT_IO
    assert err["exit"] == EXIT_IO and "does not match" in err["error"]


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


def test_non_integral_dual_action_is_check_failure(capsys, monkeypatch):
    """A DualActionError from the dual presenter ends in exit 3 and one JSON
    error carrying the witness, not a traceback."""
    from iwasawa_kit import lvalues
    from iwasawa_kit.fitting import DualActionError

    def presenter(alg, vals, actions):
        raise DualActionError(1, 0, 1)

    monkeypatch.setattr(lvalues, "contragredient_presentation", presenter)
    code, err = run_refused(
        capsys, "verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
        "--p", "3", "--N", "2", "--data", str(DATA / "table_z23_minus.json"),
    )
    assert code == EXIT_CHECK_FAILED and err["exit"] == EXIT_CHECK_FAILED
    assert err["witness"] == [1, 0, 1] and "not integral" in err["error"]


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

    alg = zmod_algebra(3, 2).to_json()
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
    "manifest",
    ["[]", json.dumps(with_field(MANIFEST, ("entries", 0, "data"), "nosuch.json")), "{",
     json.dumps(with_field(MANIFEST, ("entries", 0, "p"), 3.0)),
     json.dumps(with_field(MANIFEST, ("entries", 1, "S"), [3, "oo"]))],
    ids=["list", "missing-data-file", "not-json", "float-p", "int-S"],
)
def test_selftest_refuses_bad_data_dir(tmp_path, capsys, monkeypatch, manifest):
    # the manifest and every data file it names are read and checked before
    # the first campaign runs
    from iwasawa_kit import campaigns

    def campaign(seed):
        pytest.fail("a campaign ran before the data directory was checked")

    monkeypatch.setattr(campaigns, "exact_arith_campaign", campaign)
    for entry in MANIFEST["entries"]:
        (tmp_path / entry["data"]).write_text((DATA / entry["data"]).read_text())
    (tmp_path / "manifest.json").write_text(manifest)
    code, err = run_refused(
        capsys, "selftest", "--max-conductor", "3", "--trials", "1", "--complex-trials", "1",
        "--data-dir", str(tmp_path),
    )
    assert code == EXIT_IO and err["exit"] == EXIT_IO


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
