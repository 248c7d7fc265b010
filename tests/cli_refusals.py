"""Command lines the CLI refuses with exit 2 (a precondition fails) or 4 (an
input is not well formed), one for each way a command is refused.
`tests/test_cli.py` checks that each is refused with its exit code and one
JSON error, and `tests/test_reachability.py` runs each under the profiler, so
a refusal added here reaches both."""

import json
import shutil
from pathlib import Path

from iwasawa_kit.cli import EXIT_IO, EXIT_PRECONDITION

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
FIXTURES = ROOT / "tests" / "fixtures"


def write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


# theta's (S, T) rules over Q(zeta_3), in the order abelian.admissible_places
# checks them: (S, T, the message of abelian.check_hyp)
PLACE_RULES = {
    "T-infinite": ("3,oo", "7,oo", "T must consist of finite places"),
    "S-without-infinity": ("3", "7", "S must contain the infinite place"),
    "S-misses-ramified": ("oo", "7", "S misses ramified primes [3]"),
    "S-T-meet": ("3,7,oo", "7", "S and T meet at [7]"),
}


def place_refusals() -> dict:
    """{name: (exit code, the whole error, argv)}: each (S, T) rule broken on
    theta, tower and verify, theta over the prime modulus 10,007 with S = oo,
    and theta and tower over that modulus at r = 1 with admissible places.
    No input builds a Galois group or a tower level before it is refused."""
    commands = {
        "theta": ("theta",),
        "tower": ("tower", "--p", "3", "--N", "2", "--levels", "1"),
        "verify": ("verify", "--p", "3", "--N", "2", "--data", DATA / "trivial_z3.json"),
    }
    cases = {
        f"{command}-{rule}": (EXIT_PRECONDITION, message,
                              (*head, "--spec", "zeta3", "--S", S, "--T", T, "--r", "0"))
        for command, head in commands.items()
        for rule, (S, T, message) in PLACE_RULES.items()
    }
    cases["theta-prime-modulus-S-oo"] = (
        EXIT_PRECONDITION, "S misses ramified primes [10007]",
        ("theta", "--spec", '{"modulus": 10007, "fixing": [1]}', "--S", "oo", "--T", "7",
         "--r", "0"))
    cases["theta-prime-modulus-r-positive"] = (
        EXIT_PRECONDITION, "partial zeta values only at r <= 0, got 1",
        ("theta", "--spec", '{"modulus": 10007, "fixing": [1]}', "--S", "10007,oo", "--T", "7",
         "--r", "1"))
    cases["tower-prime-modulus-r-positive"] = (
        EXIT_PRECONDITION, "partial zeta values only at r <= 0, got 1",
        ("tower", "--spec", '{"modulus": 10007, "fixing": [1]}', "--S", "3,10007,oo", "--T",
         "7", "--r", "1", "--p", "3", "--N", "1", "--levels", "0"))
    return {name: (want, message, tuple(map(str, argv)))
            for name, (want, message, argv) in cases.items()}


# the tower rows of refusals refused by what a level holds, so after the
# levels are built; every other tower row is refused before any is built
BUILT_TOWER_REFUSALS = (
    "tower-N-past-int-str-limit", "tower-nonintegral-layer", "tower-rational-coefficient")

# the rows of verify_refusals refused before any Galois group is built
UNBUILT_VERIFY_REFUSALS = ("verify-p-two", "verify-group-size")


def verify_refusals() -> dict:
    """{name: (exit code, a phrase of the error, argv)}: verify on admissible
    places breaking each later rule of lvalues.verify_case, in its order: p
    not an odd prime, a module group of the wrong size, theta not integral,
    a field that is not CM. The first two are over the prime modulus 10,007,
    whose group of order 10,006 is not the module's of order 2; they read
    the spec only (UNBUILT_VERIFY_REFUSALS)."""
    prime = ("--spec", '{"modulus": 10007, "fixing": [1]}', "--S", "10007,oo", "--T", "7")
    cases = {
        "verify-p-two": ("odd prime", (*prime, "--p", "2")),
        "verify-group-size": ("group mismatch", (*prime, "--p", "3")),
        "verify-non-integral": (
            "integer coefficients", ("--spec", "zeta3", "--S", "3,oo", "--T", "2", "--p", "3")),
        "verify-real-field": (
            "CM field",
            ("--spec", '{"modulus": 5, "fixing": [1, 4]}', "--S", "5,oo", "--T", "7", "--p", "3")),
    }
    tail = ("--r", "0", "--N", "2", "--data", str(DATA / "trivial_z3.json"))
    return {name: (EXIT_PRECONDITION, phrase, ("verify", *argv, *tail))
            for name, (phrase, argv) in cases.items()}


def z3_replay(path, **flags) -> tuple:
    """tower --data path under the command line of the committed tower of
    Q(zeta_3), each flag in flags set to its value."""
    argv = {"spec": "zeta3", "S": "3,oo", "T": "7", "r": "-1", "p": "3", "N": "2",
            "levels": "2"} | flags
    return ("tower", *(x for flag, value in argv.items() for x in (f"--{flag}", value)),
            "--data", path)


def refusals(tmp: Path) -> dict:
    """{name: (exit code, a phrase of the error, argv)}; the files the
    inputs name are written under tmp."""
    z23 = json.loads((DATA / "table_z23_minus.json").read_text())
    verify = ("verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0", "--p", "3")
    verify_z3 = ("verify", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "0", "--p", "3",
                 "--N", "2", "--data")
    deep = json.loads((FIXTURES / "theta_zeta12_cert.json").read_text())
    deep_path = tmp / "deep_cert.json"
    deep_path.write_text(json.dumps({**deep, "witness": "W"})
                         .replace('"W"', "[" * 900 + "0" + "]" * 900))
    # the committed tower of Q(zeta_3), replayed with one coefficient 1/2
    stored = json.loads((FIXTURES / "tower_zeta3_cert.json").read_text())["result"]["tower"]
    stored["levels"][0]["coeffs"]["0,0"] = "1/2"
    # A replay is admitted on its command line, then its file's header is
    # compared with it, then its levels are read: each replay below is
    # refused before any level is built. The same tower at r = 1, which the
    # command line matches, is refused on the command line with the places.
    positive = json.loads((FIXTURES / "tower_zeta3_cert.json").read_text())["result"]["tower"]
    positive["meta"]["r"] = 1
    # the same tower at r = 0, where no reference tower is built beside the
    # replay, its places breaking each rule of PLACE_RULES, and the command
    # line to match
    replays = {}
    for rule, (S, T, message) in PLACE_RULES.items():
        tower = json.loads((FIXTURES / "tower_zeta3_cert.json").read_text())["result"]["tower"]
        tower["meta"].update(r=0, S=S.split(","), T=T.split(","))
        replays[f"tower-replay-{rule}"] = (
            EXIT_PRECONDITION, message,
            ("tower", "--spec", "zeta3", "--S", S, "--T", T, "--r", "0", "--p", "3", "--N", "2",
             "--levels", "2", "--data", write(tmp / f"replay_{rule}.json", tower)))
    # the tower as it stands, under command lines that differ from it in one
    # field and break a rule there: the rule is reported, not the mismatch
    z3_tower = json.loads((FIXTURES / "tower_zeta3_cert.json").read_text())["result"]["tower"]
    z3_file = write(tmp / "replay_z3.json", z3_tower)
    for flag, value, message in (
            ("p", "5", "S must contain p = 5 (it ramifies in the tower)"),
            ("spec", "zeta5", "S misses ramified primes [5]"),
            ("S", "3,7,oo", "S and T meet at [7]")):
        replays[f"tower-replay-other-{flag}"] = (
            EXIT_PRECONDITION, message, z3_replay(z3_file, **{flag: value}))
    # the tower relabelled as one over the prime modulus 10,007: at r = 1
    # under the command line it matches, and at r = -1 under the command
    # line of the tower of Q(zeta_3)
    prime = {"modulus": 10007, "fixing": [1]}
    for r in (1, -1):
        z3_tower["meta"].update(spec=prime, S=["3", "10007", "oo"], r=r)
        write(tmp / f"replay_10007_r{r}.json", z3_tower)
    replays["tower-replay-prime-modulus-r-positive"] = (
        EXIT_PRECONDITION, "partial zeta values only at r <= 0, got 1",
        z3_replay(tmp / "replay_10007_r1.json", spec=json.dumps(prime), S="3,10007,oo", r="1"))
    replays["tower-replay-file-differs"] = (
        EXIT_IO, "tower file does not match the command line in spec, S",
        z3_replay(tmp / "replay_10007_r-1.json"))
    complex_file = json.loads((FIXTURES / "complex_z9.json").read_text())
    complex_file["modules"][0]["ngens"] = "1"
    mismatched = tmp / "mismatched_data"
    shutil.copytree(DATA, mismatched)
    manifest = json.loads((mismatched / "manifest.json").read_text())
    manifest["entries"][0].update(spec={"modulus": 5, "fixing": [1], "label": "Q(zeta_5)"},
                                  S=["5", "oo"])
    write(mismatched / "manifest.json", manifest)
    selftest = ("selftest", "--max-conductor", "3", "--trials", "1", "--complex-trials", "1",
                "--data-dir")
    cases = {
        "theta-float-modulus": (
            EXIT_IO, "bad spec: modulus",
            ("theta", "--spec", '{"modulus": 7.5, "fixing": [1]}', "--S", "oo")),
        "theta-zeta0": (
            EXIT_IO, "needs m >= 1", ("theta", "--spec", "zeta0", "--S", "oo")),
        # the 5,003 squares mod 10,007: the fixing subgroup is checked in
        # O(|H| . #generators), not O(|H|^2), before the places are read
        "theta-squares-mod-prime": (
            EXIT_PRECONDITION, "S misses ramified primes [10007]",
            ("theta", "--spec", write(tmp / "squares_10007.json", {
                "modulus": 10007, "fixing": sorted({x * x % 10007 for x in range(1, 10007)})}),
             "--S", "oo", "--T", "7", "--r", "0")),
        "theta-missing-spec-file": (
            EXIT_IO, "bad spec file", ("theta", "--spec", "nosuch.json", "--S", "oo")),
        "recheck-deeply-nested": (
            EXIT_IO, "nested deeper than 64", ("recheck", deep_path)),
        "usage": (
            EXIT_PRECONDITION, "required: --spec", ("theta",)),
        "negative-trials": (
            EXIT_PRECONDITION, "trials: expected a non-negative integer",
            ("fitting", "--trials", "-1")),
        "tower-N-past-int-str-limit": (
            EXIT_PRECONDITION, "integer string conversion",
            ("tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--p", "3", "--N", "10000",
             "--levels", "1")),
        # 90,063 = 9 * 10,007, with admissible places: refused before they
        # are read, and before any Galois group is built
        "tower-v_p-modulus": (
            EXIT_PRECONDITION, "v_3(modulus) = 2 >= 2: the field presentation does not pin",
            ("tower", "--spec", '{"modulus": 90063, "fixing": [1]}', "--S", "3,10007,oo",
             "--T", "7", "--r", "0", "--p", "3", "--N", "2", "--levels", "1")),
        "tower-nonintegral-layer": (
            EXIT_PRECONDITION, "coefficient denominator divisible by 5",
            ("tower", "--spec", "zeta5", "--S", "5,oo", "--r", "0", "--p", "5", "--N", "2",
             "--levels", "1")),
        "tower-replay-r-positive": (
            EXIT_PRECONDITION, "partial zeta values only at r <= 0, got 1",
            z3_replay(write(tmp / "replay_r1.json", positive), r="1")),
        "tower-precision-budget": (
            EXIT_PRECONDITION, "precision budget",
            ("tower", "--spec", "zeta5", "--S", "5,oo", "--T", "2", "--r", "-1", "--p", "5",
             "--N", "3", "--levels", "1")),
        "tower-rational-coefficient": (
            EXIT_IO, "bad tower file", z3_replay(write(tmp / "bad_tower.json", stored))),
        "selftest-missing-dir": (
            EXIT_IO, "bad manifest", (*selftest, tmp / "no_such_dir")),
        "selftest-empty-dir-name": (
            EXIT_IO, "expected a directory name", (*selftest, "")),
        "selftest-group-mismatch": (
            EXIT_PRECONDITION, "group mismatch", (*selftest, mismatched)),
        "verify-N-zero": (
            EXIT_PRECONDITION, "N must be at least 1",
            (*verify, "--N", "0", "--data", DATA / "table_z23_minus.json")),
        "verify-ill-defined-action": (
            EXIT_PRECONDITION, "not well defined",
            (*verify, "--N", "2", "--data", write(
                tmp / "ill_defined.json",
                {**z23, "orders": [3, 9], "action": {"g0": [[0, 1], [1, 0]]}}))),
        "verify-group-mismatch": (
            EXIT_PRECONDITION, "group mismatch",
            ("verify", "--spec", "zeta5", "--S", "5,oo", "--T", "3", "--r", "0", "--p", "3",
             "--N", "2", "--data", DATA / "synthetic_z3_quadratic.json")),
        # the module's group has the field's size, 4, but not its orders (4,)
        "verify-group-orders": (
            EXIT_PRECONDITION, "group mismatch: theta over (4,), module over (2, 2)",
            ("verify", "--spec", "zeta5", "--S", "5,oo", "--T", "3", "--r", "0", "--p", "3",
             "--N", "2", "--data", write(tmp / "c2xc2.json", {
                 "orders": [3], "group_orders": [2, 2], "action": {"g0": [[-1]], "g1": [[1]]}}))),
        "verify-invalid-class-data": (
            EXIT_PRECONDITION, "violates the generator order",
            (*verify_z3, write(tmp / "invalid.json", {
                "orders": [3], "group_orders": [2], "action": {"g0": [[0]]},
                "provenance": "x"}))),
        "verify-class-data-list": (
            EXIT_IO, "expected an object", (*verify_z3, write(tmp / "list.json", [1, 2, 3]))),
        "verify-malformed-action": (
            EXIT_IO, "action.g0[0][0]",
            (*verify_z3, write(tmp / "bad_action.json", {
                "orders": [3], "group_orders": [2], "action": {"g0": [["x"]]}}))),
        "verify-missing-data-file": (
            EXIT_IO, "bad class data file", (*verify_z3, "nosuch.json")),
        "complex-string-ngens": (
            EXIT_IO, "modules[0].ngens",
            ("complex", "--data", write(tmp / "bad_complex.json", complex_file))),
    }
    cases = {name: (want, phrase, tuple(map(str, argv)))
             for name, (want, phrase, argv) in (cases | replays).items()}
    return cases | place_refusals() | verify_refusals()
