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
import sys
import tempfile
import time
from pathlib import Path

import pytest
from algebra_helpers import algebra_json, patch_every_binding
from cli_corpus import COMPLEX_FILES, ROOT, capped, closed_stdout, in_process, readme_lines, steps
from cli_refusals import (
    BUILT_TOWER_REFUSALS,
    CAMPAIGN_REFUSALS,
    UNBUILT_VERIFY_REFUSALS,
    edit,
    matches,
    place_refusals,
    refusals,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

import iwasawa_kit
from iwasawa_kit import cli, wire
from iwasawa_kit.abelian import FiniteAbelianGroup, admissible_places
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


# The command corpus (tests/cli_corpus.py), one case per step; the
# reachability guard runs every step too, and CI through the console script.
STEPS = steps()


def test_the_readme_block_shows_each_command_once_and_parses():
    """README's CLI block, as the corpus reads it, has one line per command
    but recheck (a placeholder there: the corpus rechecks every certificate
    it writes), and the parser takes each line."""
    lines = readme_lines()
    assert sorted(argv[0] for argv in lines) == sorted(cli.RUNNERS)
    for argv in lines:
        assert cli.build_parser().parse_args(argv).command == argv[0]


@pytest.mark.parametrize("name", STEPS)
def test_corpus_step(monkeypatch, tmp_path, name):
    monkeypatch.chdir(ROOT)  # README's paths are relative to it
    STEPS[name](in_process, tmp_path)


@pytest.mark.parametrize("argv, result", [
    (("--spec", "zeta3", "--S", "3,oo", "--T", "2", "--r", "0"), ({"0": "1/2", "1": "-1/2"}, False)),
    (("--spec", "zeta3", "--S", "3,oo", "--r", "0"), ({"0": "1/6", "1": "-1/6"}, False)),
])
def test_theta_asserts_no_integrality_without_hyp_or_t(capsys, argv, result):
    code, cert = run(capsys, "theta", *argv)
    assert code == EXIT_OK
    assert (cert["result"]["coefficients"], cert["result"]["hyp"]) == result
    assert cert["result"]["integral"] is cert["result"]["integrality_asserted"] is False


def without_seconds_reference(result):
    """The former recheck's walk: every "seconds" key dropped, at any depth."""
    if isinstance(result, dict):
        return {k: without_seconds_reference(v) for k, v in result.items() if k != "seconds"}
    if isinstance(result, list):
        return [without_seconds_reference(v) for v in result]
    return result


def seconds_paths(node, path=()):
    """The paths of the "seconds" keys of a certificate."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from [path + (k,)] if k == "seconds" else seconds_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from seconds_paths(v, path + (i,))


def flip_first_verdict(node) -> bool:
    """Negate the first boolean of node in sorted key order; whether one was found."""
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        if isinstance(v, bool):
            node[k] = not v
            return True
        if isinstance(v, (dict, list)) and flip_first_verdict(v):
            return True
    return False


def test_recheck_agrees_with_the_walk_on_the_readme_and_fixture_certificates(
        tmp_path, capsys, monkeypatch):
    """recheck compares a certificate with its rerun as they are and walks
    both to drop "seconds" only when they differ. On every README and
    fixture certificate, as stored, with every "seconds" rewritten and with
    its first verdict flipped, it gives the verdict of the walk on the same
    rerun: a match, a match and a mismatch. Only suite certificates carry
    "seconds"."""
    monkeypatch.chdir(ROOT)  # README's paths are relative to it
    paths = []
    for i, argv in enumerate([*readme_lines(), *(["complex", "--data", f] for f in COMPLEX_FILES)]):
        paths.append(tmp_path / f"{i}_cert.json")
        assert run(capsys, *capped(argv), "--out", str(paths[-1]))[0] == EXIT_OK, argv
    paths += sorted(FIXTURES.glob("*_cert.json"))
    reruns = {}

    def remembered(runner):
        def rerun(config):  # each certificate's command runs once
            key = json.dumps(config.value, sort_keys=True)
            if key not in reruns:
                reruns[key] = runner(config)
            return reruns[key]
        return rerun

    for command, runner in cli.RUNNERS.items():
        monkeypatch.setitem(cli.RUNNERS, command, remembered(runner))
    suites = 0
    for path in paths:
        stored = json.loads(path.read_text())
        timed = list(seconds_paths(stored))
        assert bool(timed) == ("suites" in stored["result"]), path.name
        suites += bool(timed)
        edited, flipped = json.loads(path.read_text()), json.loads(path.read_text())
        for *head, last in timed:
            node = edited
            for k in head:
                node = node[k]
            node[last] = 12345.678
        assert flip_first_verdict(flipped["result"]), path.name
        for variant, cert, want in (("stored", stored, True), ("seconds", edited, True),
                                    ("flipped", flipped, False)):
            copy = tmp_path / f"{variant}_{path.name}"
            copy.write_text(json.dumps(cert))
            code, report = run(capsys, "recheck", str(copy))
            fresh, _ = reruns[json.dumps(cert["input"], sort_keys=True)]
            walked = all(without_seconds_reference(cert.get(k)) ==
                         without_seconds_reference(fresh.get(k)) for k in ("result", "witness"))
            assert report["result"]["matches"] is walked is want, (variant, path.name)
            assert code == (EXIT_OK if want else EXIT_CHECK_FAILED)
    assert suites == 4 and len(paths) == 13


def nested_witness_certificate(levels):
    """The theta fixture with its witness replaced by `levels` nested lists,
    spliced in as text (json.dumps itself recurses once per level)."""
    cert = json.loads((FIXTURES / "theta_zeta12_cert.json").read_text())
    text = json.dumps({**cert, "witness": "WITNESS"})
    return text.replace('"WITNESS"', "[" * levels + "0" + "]" * levels)


def test_wire_depth_bound():
    """The depth is counted on the text, brackets inside strings left out: the
    tower fixture and a witness nested to depth MAX_DEPTH parse, one level
    more is refused, however deep."""
    tower = (FIXTURES / "tower_zeta3_cert.json").read_text()
    assert wire.parse(tower, "certificate").value["command"] == "tower"
    strings = json.dumps({"witness": ["[" * 99, {"b": '\\"' + "{" * 99}], "c": "\\"})
    assert wire.parse(strings, "certificate").value["c"] == "\\"
    # the fixture's object holds the witness: one level for it
    fits = nested_witness_certificate(wire.MAX_DEPTH - 1)
    assert wire.parse(fits, "certificate").value["command"] == "theta"
    for levels in (wire.MAX_DEPTH, 990, 100_000):
        with pytest.raises(wire.SchemaError,
                           match="^bad certificate: nested deeper than 64 arrays and objects$"):
            wire.parse(nested_witness_certificate(levels), "certificate")


def test_a_run_out_of_memory_is_refused(capsys, monkeypatch):
    from iwasawa_kit import cli

    def exhausted(config):
        raise MemoryError

    monkeypatch.setitem(cli.RUNNERS, "fitting", exhausted)
    code, err = run_refused(capsys, "fitting", "--trials", "1")
    assert code == EXIT_PRECONDITION and err["exit"] == EXIT_PRECONDITION
    assert err["error"].startswith("out of memory")


def test_closed_stdout_exits_4_without_a_traceback():
    # as CI runs it through the console script
    paths = [str(Path(iwasawa_kit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    closed_stdout([sys.executable, "-m", "iwasawa_kit.cli"], env=env)


def test_fitting_command(tmp_path, capsys):
    out = tmp_path / "fitting.json"
    code, cert = run(capsys, "fitting", "--seed", "1", "--trials", "6", "--out", str(out))
    assert code == EXIT_OK
    assert cert["result"]["ok"] is True
    code2, report = run(capsys, "recheck", str(out))
    assert code2 == EXIT_OK and report["result"]["matches"] is True


def test_zero_trials_run_the_campaigns(capsys):
    # zero trials are a count: the campaigns run, and the suites that need
    # trials report no checks
    code, cert = run(capsys, "fitting", "--seed", "1", "--trials", "0")
    assert code != EXIT_PRECONDITION and cert["input"]["trials"] == 0


def test_complex_command_campaign(capsys):
    code, cert = run(capsys, "complex", "--seed", "1", "--trials", "6")
    assert code == EXIT_OK
    assert cert["result"]["ok"] is True


def complex_payload():
    """The one-term complex Z/9 --3--> Z/9 of the ingestion test."""
    from iwasawa_kit.fitting import zmod_algebra

    return {
        "algebra": algebra_json(zmod_algebra(3, 2)),
        "degrees": [0, 1],
        "modules": [{"ngens": 1, "relations": []}, {"ngens": 1, "relations": []}],
        "differentials": [[[[3]]]],
    }


def test_complex_command_ingestion(tmp_path, capsys):
    assert json.loads((FIXTURES / "complex_z9.json").read_text()) == complex_payload()
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


def test_fitting_certificate_at_seed_3_is_wire_compatible():
    """A stored `fitting --seed 3 --trials 60` certificate locks the verdicts
    and trial counts of every Fitting suite: the corpus rechecks it, and
    recheck must reproduce it, `seconds` aside."""
    stored = json.loads((FIXTURES / "fitting_seed3_cert.json").read_text())
    assert stored["input"] == {"seed": 3, "trials": 60} and stored["result"]["ok"] is True


# The class names of the package, none of which a refusal names.
PACKAGE_CLASSES = {
    name
    for info in pkgutil.iter_modules(iwasawa_kit.__path__)
    for name, obj in vars(importlib.import_module(f"iwasawa_kit.{info.name}")).items()
    if inspect.isclass(obj) and obj.__module__.startswith("iwasawa_kit")
}


@pytest.mark.parametrize("p, N", [(4, 2), (3, 0)])
def test_a_bad_modulus_is_refused_by_its_p_or_N(p, N):
    """Every modulus is born in FiniteCommAlgebra._ring, which a group algebra
    and a complex file's algebra both reach: a p that is not prime or an
    N < 1 raises ValueError naming p or N and no class of the package (the
    complex file's routes are rows of the refusal table)."""
    with pytest.raises(ValueError) as exc:
        GroupAlgebra(p, N, FiniteAbelianGroup((2,)))
    message = str(exc.value)
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


FUZZ_VALUES = (-1, 0, 1, 2, 1.5, True, None, "x", [], {})


@pytest.mark.parametrize("index, path", [
    pytest.param(i, path, id=f"{argv[0]}:{'.'.join(map(str, path))}")
    for i, (payload, argv, _) in enumerate(FUZZED_PAYLOADS) for path in payload_paths(payload)
])
def test_payload_fuzz(index, path):
    """Each value of FUZZ_VALUES at the path, in a copy of the payload: a
    certificate only with exit 0 or 3, else one JSON error whose exit is the
    code; in a strict payload a value of another JSON type is refused."""
    payload, argv, strict = FUZZED_PAYLOADS[index]
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "payload.json"
        for value in FUZZ_VALUES:
            file.write_text(json.dumps(edit(payload, (path, value))))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, str(file)])
            assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_CHECK_FAILED, EXIT_IO), value
            assert "Traceback" not in err.getvalue(), value
            if out.getvalue():  # a certificate: success or a failed check
                assert code in (EXIT_OK, EXIT_CHECK_FAILED), value
            else:  # a refusal: one JSON error
                error = json.loads(err.getvalue())
                assert isinstance(error, dict) and error["exit"] == code != EXIT_OK, value
            if strict and type(value) is not type(value_at(payload, path)):
                assert code != EXIT_OK, value


def test_selftest_small_bounds(tmp_path, capsys):
    """selftest at seed 7 passes, and a second run reproduces its verdicts."""
    out = tmp_path / "selftest.json"
    argv = ["selftest", "--seed", "7", "--max-conductor", "7", "--trials", "6",
            "--complex-trials", "4", "--data-dir", str(DATA), "--out", str(out)]
    verdicts = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        assert "[PASS]" in capsys.readouterr().err
        cert = json.loads(out.read_text())
        assert cert["result"]["ok"] is True
        verdicts.append([{k: v for k, v in s.items() if k != "seconds"}
                         for s in cert["result"]["suites"]])
    assert verdicts[0] == verdicts[1]


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
    if out.getvalue():  # a certificate: success or a failed check
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    else:  # a refusal: one JSON error
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and error["exit"] == code != EXIT_OK


# the table, its files written once per module
TABLE_DIR = tempfile.TemporaryDirectory()
REFUSALS = refusals(Path(TABLE_DIR.name))
# the rows refused before any Galois group or tower level is built: every
# (S, T) rule and r > 0 (place_refusals), every tower row but
# BUILT_TOWER_REFUSALS (a tower, fresh or replayed, is admitted first, and a
# replay's command line, header and level labels before its levels), and
# verify's p and module group size, which read the spec only
NOTHING_BUILT = {*place_refusals(), *UNBUILT_VERIFY_REFUSALS,
                 *(name for name in REFUSALS
                   if name.startswith("tower-") and name not in BUILT_TOWER_REFUSALS)}
# the rows refused before any campaign runs
NO_CAMPAIGN = {name for name in REFUSALS if name.startswith(CAMPAIGN_REFUSALS)}


def refused_first(what):
    """A stand-in for an entry point that a refusal must come before."""
    def entered(*args, **kwargs):
        raise AssertionError(f"{what} before the refusal")
    return entered


@pytest.mark.parametrize("name", REFUSALS)
def test_every_refusal_of_the_table_is_one_json_error_with_its_exit_code(capsys, monkeypatch,
                                                                         name):
    """One case per row (the reachability guard and CI run the same table):
    its exit code, an empty stdout and one JSON error that is its message and
    names no class of the package. A row of NOTHING_BUILT runs with
    galois_group, tower_level and TowerLevelData.__init__ raising at every
    binding in the package, and a row of NO_CAMPAIGN with
    exact_arith_campaign, fitting_campaigns, complex_campaigns and complex
    --data's run of its file raising."""
    from iwasawa_kit import abelian, campaigns, cli, tower

    if name in NOTHING_BUILT:
        built = refused_first("a Galois group or a tower level was built")
        patch_every_binding(monkeypatch, (abelian.galois_group, tower.tower_level), built)
        monkeypatch.setattr(abelian.TowerLevelData, "__init__", built)
    if name in NO_CAMPAIGN:
        entry_points = (campaigns.exact_arith_campaign, campaigns.fitting_campaigns,
                        campaigns.complex_campaigns, cli._run_complex_file)
        patch_every_binding(monkeypatch, entry_points, refused_first("a campaign ran"))
    want, phrase, argv = REFUSALS[name]
    code, err = run_refused(capsys, *argv)
    assert code == want == err["exit"] and matches(name, phrase, err["error"]), err
    assert not PACKAGE_CLASSES & set(re.findall(r"\w+", err["error"])), err


def test_the_refusal_subsets_are_rows_and_place_rows_are_in_admissible_places_words():
    """The named subsets of the table are rows of it, at their sizes, and
    theta, tower and verify refuse every (S, T) fault in the words of
    admissible_places and r > 0 in its own."""
    assert {*BUILT_TOWER_REFUSALS, *UNBUILT_VERIFY_REFUSALS} <= set(REFUSALS)
    assert (len(NOTHING_BUILT), len(NO_CAMPAIGN)) == (65, 22)
    cases = place_refusals()
    assert len(cases) == 19
    for name, (want, message, argv) in cases.items():
        assert REFUSALS[name] == (want, message, argv)
        spec, S, T, r = (argv[argv.index(flag) + 1] for flag in ("--spec", "--S", "--T", "--r"))
        config = {"spec": parse_spec(spec).to_json(), "S": parse_places(S),
                  "T": parse_places(T), "r": int(r)}
        spec, S, T, r = field_config(wire.Node(config, "configuration"))
        try:
            admissible_places(spec, S, T)
        except ValueError as exc:
            assert message == str(exc), name
        else:
            assert message == f"partial zeta values only at r <= 0, got {r}", name


def test_places_are_admitted_once_per_theta_or_tower(tmp_path, capsys, monkeypatch):
    """admissible_places ("places"), tower_preconditions ("rules") and
    TowerElement.header, each wrapped at every binding in the package, in
    the order entered: once per theta_tower (n_max = 0..3), theta command and
    README verify (its theta is built on the places verify_case admitted);
    the README tower at r = -1 admits its tower and the r = 0 tower of its
    congruence; replayed through --data, it admits its command line, reads
    the file's header once and does not admit it again, then admits the
    r = 0 tower."""
    from iwasawa_kit import abelian, tower

    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name, original in (("places", abelian.admissible_places),
                           ("rules", tower.tower_preconditions)):
        patch_every_binding(monkeypatch, (original,), counted(name, original))
    monkeypatch.setattr(tower.TowerElement, "header",
                        staticmethod(counted("header", tower.TowerElement.header)))
    z3 = parse_spec("zeta3")
    for n_max in range(4):
        calls.clear()
        tower.theta_tower(z3, [3, "oo"], [5, 7], 3, 2, n_max, -1)
        assert calls == ["rules", "places"], n_max
    monkeypatch.chdir(ROOT)  # README's paths are relative to it
    readme = {argv[0]: tuple(argv) for argv in readme_lines()}
    readme_theta, readme_tower, readme_verify = (readme[c] for c in ("theta", "tower", "verify"))
    replay = tmp_path / "replay.json"
    replay_tower = (*readme_tower, "--data", str(replay))
    for argv, want in ((readme_theta, ["places"]), (readme_verify, ["places"]),
                       (readme_tower, ["rules", "places"] * 2),
                       (replay_tower, ["rules", "places", "header", "rules", "places"])):
        calls.clear()
        code, cert = run(capsys, *argv)
        assert (code, calls) == (EXIT_OK, want), argv
        if argv == readme_tower:
            replay.write_text(json.dumps(cert["result"]["tower"]))


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
