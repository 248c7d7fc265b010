"""The one list of accepted commands, as steps: README's CLI block, read from
README.md, the inputs beyond it that reach what the block does not, and the
follow-ups of their certificates. A step takes a runner `run(argv, want,
limit=None)`, which runs a command line from the root of the repository,
checks its exit code and that it ended within limit seconds, and returns
what it printed (the certificate, or the JSON error of a refusal), and a
directory for its files. Every certificate a step writes is
rechecked; README's `iwasawa-kit recheck cert.json` stands for them all.

`tests/test_cli.py` runs each step as its own case and
`tests/test_reachability.py` all of them under its statement trace, in
process at the trial counts of IN_PROCESS_COUNTS. CI runs `python
tests/cli_corpus.py DIR`: every step, every row of the refusal table
(`tests/cli_refusals.py`) and a stdout closed by its reader, through the
`iwasawa-kit` console script at README's counts, its files under DIR.
"""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

from cli_refusals import matches, refusals

from iwasawa_kit.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
# the committed complex files, each run by complex --data
COMPLEX_FILES = [p for p in sorted(FIXTURES.glob("complex_*.json")) if "_cert" not in p.name]

# the most trials a campaign command runs in process, a count above it or
# left to its default set to it: README's counts take 1.8 s in process, these
# 0.2 s (a complex file runs no campaign)
IN_PROCESS_COUNTS = {
    "fitting": {"--trials": 6},
    "complex": {"--trials": 3},
    "selftest": {"--max-conductor": 8, "--trials": 3, "--complex-trials": 2},
}
# the seconds a run may take, start-up included: a refusal builds no Galois
# group and runs no campaign; the complex over Z/(2^61 - 1) takes 0.002 s in
# process and 0.12 s through the console script (2-CPU x86_64, Python 3.11)
REFUSAL_LIMIT_S = 5
BIG_P_LIMIT_S = 20


def readme_lines() -> list[list[str]]:
    """The command lines of README's CLI block (the first fenced block of its
    CLI section) as a shell splits them, without `iwasawa-kit` and without
    the recheck placeholder."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n")[1].replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert all(line[0] == "iwasawa-kit" for line in lines), lines
    return [line[1:] for line in lines if line[1:] != ["recheck", "cert.json"]]


def capped(argv) -> list[str]:
    """argv with each count of IN_PROCESS_COUNTS for its command at most the
    table's."""
    argv = [str(a) for a in argv]
    for flag, cap in ({} if "--data" in argv else IN_PROCESS_COUNTS.get(argv[0], {})).items():
        if flag in argv:
            i = argv.index(flag) + 1
            argv[i] = str(min(int(argv[i]), cap))
        else:
            argv += [flag, str(cap)]
    return argv


def printed(argv, want: int, code: int, out: str, err: str):
    """What argv printed, its exit code checked."""
    assert code == want, (argv, code, want, err[-500:])
    return json.loads(out if code in (EXIT_OK, EXIT_CHECK_FAILED) else err)


def exact(argv, want: int, limit=None):
    """A runner: argv through cli.main in this process, as it is; a run
    longer than limit seconds fails once it ends."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([str(a) for a in argv])
    assert limit is None or time.perf_counter() - start < limit, (argv, limit)
    return printed(argv, want, code, out.getvalue(), err.getvalue())


def in_process(argv, want: int, limit=None):
    """A runner: argv through cli.main in this process, its counts capped."""
    return exact(capped(argv), want, limit)


def console(argv, want: int, limit=None):
    """A runner: argv through the `iwasawa-kit` console script, killed (and
    failed) after limit seconds."""
    proc = subprocess.run(["iwasawa-kit", *map(str, argv)], capture_output=True, text=True,
                          cwd=ROOT, timeout=limit)
    return printed(argv, want, proc.returncode, proc.stdout, proc.stderr)


def written(path: Path, value) -> Path:
    path.write_text(json.dumps(value))
    return path


def rechecked(run, path: Path, want=EXIT_OK):
    """recheck of the certificate at path: a match (exit 0) or not (exit 3)."""
    assert run(["recheck", path], want)["result"]["matches"] is (want == EXIT_OK), path


def certified(run, tmp: Path, argv, want=EXIT_OK) -> dict:
    """The certificate argv writes, rechecked."""
    cert = run([*argv, "--out", tmp / "cert.json"], want)
    rechecked(run, tmp / "cert.json")
    return cert


def replayed(run, tmp: Path, argv, tower: dict, want=EXIT_OK) -> dict:
    """The certificate of the tower command argv replaying tower (--data)."""
    return run([*argv, "--data", written(tmp / "replay.json", tower)], want)


# README's block: each line's certificate, rechecked, then what its command's
# follow-up asserts.

def theta_follow_up(run, tmp, argv, cert):
    """theta = sigma_2 - 1, integral under Hyp; a flipped verdict fails."""
    assert cert["result"]["coefficients"] == {"0": "-1", "1": "1"}, cert["result"]
    assert cert["result"]["hyp"] is cert["result"]["integral"] is True
    cert["result"]["integral"] = False
    rechecked(run, written(tmp / "edited_cert.json", cert), EXIT_CHECK_FAILED)


def verdicts(cert) -> dict:
    """A tower certificate's checks, each with its verdict and the layer its
    witness names as failing."""
    return {check: (cert["result"][check], cert["witness"][layer]) for check, layer in
            (("coherent", "failing_layer"), ("twist_congruent", "twist_failing_layer"))
            if check in cert["result"]}


def tower_follow_up(run, tmp, argv, cert):
    """Coherent and, at r != 0, congruent to the tower at r = 0, and so is
    its replay; with one coefficient of level 0 moved by 1 the replay fails
    each check at level 0. At r = 0 there is no twist to check, so the
    replay fails on coherence alone."""
    checks = ("coherent", "twist_congruent") if cert["input"]["r"] else ("coherent",)
    assert verdicts(cert) == dict.fromkeys(checks, (True, None)), cert["witness"]
    tower = cert["result"]["tower"]
    assert replayed(run, tmp, argv, tower)["result"] == cert["result"]
    coeffs, q = tower["levels"][0]["coeffs"], cert["input"]["p"] ** cert["input"]["N"]
    coeffs["0,0"] = (coeffs["0,0"] + 1) % q
    failed = replayed(run, tmp, argv, tower, EXIT_CHECK_FAILED)
    assert verdicts(failed) == dict.fromkeys(checks, (False, 0)), failed["witness"]


def verify_follow_up(run, tmp, argv, cert):
    assert cert["result"]["annihilation"] is cert["result"]["fitting_membership"] is True


def campaign_follow_up(run, tmp, argv, cert):
    assert cert["result"]["ok"] is True


def fitting_follow_up(run, tmp, argv, cert):
    """Every suite passes; with every `seconds` rewritten the certificate
    rechecks (recheck walks both to drop timings), with `ok` flipped not."""
    campaign_follow_up(run, tmp, argv, cert)
    for suite in cert["result"]["suites"]:
        suite["seconds"] = 12345.678
    rechecked(run, written(tmp / "edited_cert.json", cert))
    cert["result"]["ok"] = False
    rechecked(run, written(tmp / "edited_cert.json", cert), EXIT_CHECK_FAILED)


FOLLOW_UPS = {"theta": theta_follow_up, "tower": tower_follow_up, "verify": verify_follow_up,
              "fitting": fitting_follow_up, "complex": campaign_follow_up,
              "selftest": campaign_follow_up}


def certified_step(argv):
    """argv's certificate, rechecked, then its command's follow-up."""
    follow_up = FOLLOW_UPS[argv[0]]  # a README line of another command fails here
    return lambda run, tmp: follow_up(run, tmp, argv, certified(run, tmp, argv))


def complex_file_step(path: Path):
    """complex --data on a committed complex: the input holds the complex,
    the Euler-Fitting numerator and denominator are Howell forms (rows as
    long as the algebra's basis), and a committed certificate of it is the
    certificate."""
    def step(run, tmp):
        cert = certified(run, tmp, ["complex", "--data", path])
        assert cert["input"]["complex_data"] == json.loads(path.read_text())
        rank = len(cert["input"]["complex_data"]["algebra"]["basis"])
        assert all(len(r) == rank for pair in cert["result"]["euler_fitting"].values()
                   for r in pair), cert["result"]
        stored = path.with_name(f"{path.stem}_cert.json")
        assert not stored.exists() or cert == json.loads(stored.read_text())
    return step


def fixture_step(path: Path):
    return lambda run, tmp: rechecked(run, path)


def tower_fixture_replayed(run, tmp):
    """The committed tower certificate locks the tower wire format: its
    tower, replayed, gives its result."""
    stored = json.loads((FIXTURES / "tower_zeta3_cert.json").read_text())
    argv = shlex.split("tower --spec zeta3 --S 3,oo --T 7 --r -1 --p 3 --N 2 --levels 2")
    assert replayed(run, tmp, argv, stored["result"]["tower"])["result"] == stored["result"]


def theta_over_modulus_6(run, tmp):
    """Q(zeta_3) as the field of modulus 6, of conductor 3 (a Frobenius
    lifted off the extra prime): theta is theta over zeta3."""
    places = ["--S", "3,oo", "--T", "2", "--r", "0"]
    zeta3, modulus_6 = (run(["theta", "--spec", spec, *places], EXIT_OK)["result"]
                        for spec in ("zeta3", '{"modulus": 6, "fixing": [1]}'))
    assert zeta3 == modulus_6, (zeta3, modulus_6)


# Accepted inputs beyond README's block, each with fields of its result:
# theta over Q, with no unit group, zeta(0)(1 - 3) = 1; over the real
# subfield of Q(zeta_35), zero at r = 0 (its Smith form swaps columns); at
# r = -1 over Q, zeta(-1)(1 - 3^2) = 2/3 with Hyp holding and nothing
# asserted (Hyp(S,T) is the rule at r = 0); a tower at p = 43, the first
# prime past the trial divisors; verify at N = 21, whose products take
# lanes wider than 8 bytes; complex at seed 1, which draws a p-power complex.
ACCEPTED = {
    "theta-over-Q": ("theta --spec Q --S oo --T 3 --r 0",
                     {"coefficients": {"": "1"}, "integral": True}),
    "theta-over-the-real-subfield-of-zeta35": (
        """theta --spec '{"modulus": 35, "fixing": [1, 34]}' --S 5,7,oo --T 2 --r 0""",
        {"coefficients": {}, "integral": True}),
    "theta-at-r-minus-1": ("theta --spec zeta1 --S oo --T 3 --r -1", {
        "coefficients": {"": "2/3"}, "hyp": True, "integral": False,
        "integrality_asserted": False}),
    "tower-at-p-43": ("tower --spec zeta43 --S 43,oo --T 2 --r 0 --p 43 --N 1 --levels 0",
                      {"coherent": True}),
    "verify-at-N-21": ("verify --spec zeta23 --S 23,oo --T 5 --r 0 --p 3 --N 21 "
                       "--data data/table_z23_minus.json",
                       {"annihilation": True, "fitting_membership": True}),
    "complex-at-seed-1": ("complex --seed 1 --trials 2", {"ok": True}),
}


def accepted_step(line: str, fields: dict):
    def step(run, tmp):
        result = run(shlex.split(line), EXIT_OK)["result"]
        assert {key: result[key] for key in fields} == fields, result
    return step


# Commands beyond README's block whose certificates get their command's
# follow-up: the widest tower of the benchmark (Q(zeta_3), levels 0..3,
# dimension 54); a tower at r = 0, whose edited replay has no twist check to
# fail.
FOLLOWED = {
    "tower-of-dim-54": "tower --spec zeta3 --S 3,oo --T 5,7 --r -2 --p 3 --N 3 --levels 3",
    "tower-at-r-0": "tower --spec zeta3 --S 3,oo --T 7 --r 0 --p 3 --N 2 --levels 1",
}


def complex_at_p_2_61_minus_1(run, tmp):
    """The committed complex over Z/9 moved to p = 2^61 - 1."""
    payload = json.loads((FIXTURES / "complex_z9.json").read_text())
    payload["algebra"]["p"] = 2**61 - 1
    path = written(tmp / "complex_big_p.json", payload)
    run(["complex", "--data", path], EXIT_OK, BIG_P_LIMIT_S)


def manifest_entries(run, tmp):
    """verify on every manifest entry at its N and N + 1, each rechecked: the
    synthetic modules fail annihilation and Fitting membership (exit 3),
    each with a nonzero witness, and the others pass both."""
    for e in json.loads((ROOT / "data" / "manifest.json").read_text())["entries"]:
        for N in (e["N"], e["N"] + 1):
            argv = ["verify", "--spec", json.dumps(e["spec"]), "--S", ",".join(e["S"]),
                    "--T", ",".join(e["T"]), "--r", e["r"], "--p", e["p"], "--N", N,
                    "--data", ROOT / "data" / e["data"]]
            failed = e["data"].startswith("synthetic_")
            cert = certified(run, tmp, argv, EXIT_CHECK_FAILED if failed else EXIT_OK)
            result, witness = cert["result"], cert["witness"]
            assert result["annihilation"] is result["fitting_membership"] is not failed
            assert not failed or any(map(any, witness["acting_matrix"])) and \
                any(witness["fitting_residual"]), witness


def steps() -> dict:
    """{name: step}, every step of the corpus."""
    lines = readme_lines()
    found = {f"readme-{argv[0]}": certified_step(argv) for argv in lines}
    assert len(found) == len(lines), "one README line per command"
    found |= {f"complex-data-{p.stem}": complex_file_step(p) for p in COMPLEX_FILES}
    found |= {f"recheck-{p.stem}": fixture_step(p) for p in sorted(FIXTURES.glob("*_cert.json"))}
    found |= {name: accepted_step(*case) for name, case in ACCEPTED.items()}
    found |= {name: certified_step(shlex.split(line)) for name, line in FOLLOWED.items()}
    return found | {"theta-over-modulus-6": theta_over_modulus_6,
                    "replay-tower_zeta3_cert": tower_fixture_replayed,
                    "manifest-entries": manifest_entries,
                    "complex-at-p-2^61-1": complex_at_p_2_61_minus_1}


def refused(run, tmp: Path):
    """Every row of the refusal table: its exit code and one JSON error that
    is its message."""
    for name, (want, phrase, argv) in refusals(tmp).items():
        error = run(argv, want, REFUSAL_LIMIT_S)
        assert error["exit"] == want and matches(name, phrase, error["error"]), (name, error)


def closed_stdout(command: list, **kwargs):
    """`command fitting --trials 0` with the read end of its stdout closed
    before it writes: exit 4 with one JSON error and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([*command, "fitting", "--trials", "0"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["exit"] == EXIT_IO


if __name__ == "__main__":
    tmp = Path(sys.argv[1])
    for name, step in steps().items():
        (tmp / name).mkdir(parents=True)
        step(console, tmp / name)
        print(name, flush=True)
    refused(console, tmp)
    closed_stdout(["iwasawa-kit"])
    print("every refusal of the table, and a closed stdout", flush=True)
