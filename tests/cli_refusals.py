"""The one list of command lines the CLI refuses with exit 2 (a precondition
fails) or 4 (an input is not well formed), one row for each way a command is
refused. `tests/test_cli.py` checks that each ends with its exit code, an
empty stdout and one JSON error that is its message (`matches`) and names no
class of the package. `tests/cli_corpus.py` runs every row with its accepted
commands: under the statement trace of `tests/test_reachability.py`, and
through the console script within 5 s each, as CI runs it. A refusal added
here reaches all three. The files the rows read are the committed fixtures
and data files, copies of them with fields changed, and a few small payloads
written out whole."""

import json
import shutil
import sys
from pathlib import Path

from iwasawa_kit.cli import EXIT_IO, EXIT_PRECONDITION
from iwasawa_kit.numutil import PSI_13
from iwasawa_kit.wire import PLACE

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
FIXTURES = ROOT / "tests" / "fixtures"


# the rows whose phrase is only part of the error: Python's own words for
# its int-str limit differ between versions; every other row's phrase is the
# whole error
PARTIAL_PHRASES = ("tower-N-past-int-str-limit",)


def matches(name: str, phrase: str, error: str) -> bool:
    """Whether the error of row name is its phrase (holds it, for a row of
    PARTIAL_PHRASES)."""
    return phrase in error if name in PARTIAL_PHRASES else phrase == error


def write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def read(path: Path):
    return json.loads(path.read_text())


def edit(obj, *changes):
    """A copy of the JSON value obj with each (key path, value) of changes set;
    the empty path stands for the whole value."""
    box = [json.loads(json.dumps(obj))]
    for keys, value in changes:
        node, keys = box, (0, *keys)
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return box[0]


def spec(modulus: int) -> str:
    return json.dumps({"modulus": modulus, "fixing": [1]})


# theta's (S, T) rules over Q(zeta_3), in the order abelian.admissible_places
# checks them: (S, T, the message it raises)
PLACE_RULES = {
    "T-infinite": ("3,oo", "7,oo", "T must consist of finite places"),
    "S-without-infinity": ("3", "7", "S must contain the infinite place"),
    "S-misses-ramified": ("oo", "7", "S misses ramified primes [3]"),
    "S-T-meet": ("3,7,oo", "7", "S and T meet at [7]"),
}
# prime moduli whose Galois groups take up to seconds to build: no refusal
# over them may build one
PRIMES = (10007, 1000003)
R_POSITIVE = "partial zeta values only at r <= 0, got 1"


def place_refusals() -> dict:
    """{name: (exit code, the whole error, argv)}: each (S, T) rule broken on
    theta, tower and verify, theta with S = oo over each modulus of PRIMES
    and over 10^6, and theta and tower over each modulus of PRIMES at r = 1
    with admissible places. No input builds a Galois group or a tower level
    before it is refused."""
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
    for m in PRIMES:
        cases[f"theta-S-oo-over-{m}"] = (
            EXIT_PRECONDITION, f"S misses ramified primes [{m}]",
            ("theta", "--spec", spec(m), "--S", "oo", "--T", "7", "--r", "0"))
        cases[f"theta-r-positive-over-{m}"] = (
            EXIT_PRECONDITION, R_POSITIVE,
            ("theta", "--spec", spec(m), "--S", f"{m},oo", "--T", "7", "--r", "1"))
        cases[f"tower-r-positive-over-{m}"] = (
            EXIT_PRECONDITION, R_POSITIVE,
            ("tower", "--spec", spec(m), "--S", f"3,{m},oo", "--T", "7", "--r", "1", "--p", "3",
             "--N", "1", "--levels", "0"))
    cases["theta-S-oo-over-1000000"] = (
        EXIT_PRECONDITION, "S misses ramified primes [2, 5]",
        ("theta", "--spec", spec(10**6), "--S", "oo", "--T", "7", "--r", "0"))
    return {name: (want, message, tuple(map(str, argv)))
            for name, (want, message, argv) in cases.items()}


# the tower rows refused by what a level holds, or by Hyp(S,T), which is read
# on level 0, so after a level is built; every other tower row is refused
# before any is built
BUILT_TOWER_REFUSALS = (
    "tower-N-past-int-str-limit", "tower-nonintegral-layer", "tower-file-rational-coefficient",
    "tower-file-list-coefficient", "tower-file-unknown-element", "tower-file-hyp-differs",
    "tower-replay-strict-hyp")

# the prefixes of the rows refused before any campaign runs: every negative
# count, and every selftest input, on the command line or in a certificate
CAMPAIGN_REFUSALS = ("negative-", "selftest-", "recheck-negative-", "recheck-selftest-")

# the rows of verify_refusals refused before any Galois group is built
UNBUILT_VERIFY_REFUSALS = tuple(
    f"verify-{rule}-over-{m}" for m in PRIMES for rule in ("p-two", "group-size"))


def verify_refusals() -> dict:
    """{name: (exit code, the error, argv)}: verify on admissible
    places breaking each later rule of lvalues.verify_case, in its order: p
    not an odd prime, a module group of the wrong size, theta not integral,
    a field that is not CM. The first two are over each modulus of PRIMES,
    whose group is not the module's of order 2; they read the spec only
    (UNBUILT_VERIFY_REFUSALS)."""
    cases = {
        "verify-non-integral": (
            "theta must have integer coefficients",
            ("--spec", "zeta3", "--S", "3,oo", "--T", "2", "--p", "3")),
        "verify-real-field": (
            "fitting membership needs a CM field",
            ("--spec", '{"modulus": 5, "fixing": [1, 4]}', "--S", "5,oo", "--T", "7", "--p", "3")),
    }
    for m in PRIMES:
        prime = ("--spec", spec(m), "--S", f"{m},oo", "--T", "7")
        cases[f"verify-p-two-over-{m}"] = (
            "fitting membership needs an odd prime", (*prime, "--p", "2"))
        cases[f"verify-group-size-over-{m}"] = (
            f"group mismatch: the field's group has order {m - 1}, the module's 2",
            (*prime, "--p", "3"))
    tail = ("--r", "0", "--N", "2", "--data", str(DATA / "trivial_z3.json"))
    return {name: (EXIT_PRECONDITION, phrase, ("verify", *argv, *tail))
            for name, (phrase, argv) in cases.items()}


def z3_replay(path, *extra, **flags) -> tuple:
    """tower --data path under the command line of the committed tower of
    Q(zeta_3), each flag in flags set to its value, extra appended."""
    argv = {"spec": "zeta3", "S": "3,oo", "T": "7", "r": "-1", "p": "3", "N": "2",
            "levels": "2"} | flags
    return ("tower", *(x for flag, value in argv.items() for x in (f"--{flag}", value)),
            "--data", path, *extra)


def tower_refusals(tmp: Path) -> dict:
    """{name: (exit code, the error, argv)}: the committed tower of
    Q(zeta_3) replayed with a field of its file changed, under command lines
    that differ from it, and relabelled."""
    z3_tower = read(FIXTURES / "tower_zeta3_cert.json")["result"]["tower"]
    cases = {}
    # one field of the file changed, most to a value that int() or bool()
    # would read as the command line's: each is refused naming its field, so
    # that the comparison of the header with the command line (also exit 4)
    # cannot stand in for the wire rule
    for name, keys, value, flags, phrase in (
            ("rational-coefficient", ("levels", 0, "coeffs", "0,0"), "1/2", {},
             "bad tower file: levels[0].coeffs.0,0: expected a JSON integer, got '1/2'"),
            ("list-coefficient", ("levels", 0, "coeffs", "0,0"), [1], {},
             "bad tower file: levels[0].coeffs.0,0: expected a JSON integer, got [1]"),
            ("unknown-element", ("levels", 0, "coeffs", "9,9,9,9"), 1, {},
             "bad tower file: '9,9,9,9' is not an element of the group (2, 1)"),
            ("float-p", ("p",), 3.9, {}, "bad tower file: p: expected a JSON integer, got 3.9"),
            ("string-N", ("N",), "2", {}, "bad tower file: N: expected a JSON integer, got '2'"),
            ("bool-N", ("N",), True, {"N": "1"},
             "bad tower file: N: expected a JSON integer, got True"),
            ("string-level-n", ("levels", 1, "n"), "1", {},
             "bad tower file: levels[1].n: expected a JSON integer, got '1'"),
            ("level-label", ("levels", 1, "n"), 5, {}, "bad tower file: level 1 is labelled n = 5"),
            ("float-r", ("meta", "r"), -1.5, {},
             "bad tower file: meta.r: expected a JSON integer, got -1.5"),
            ("int-hyp", ("meta", "hyp", 0), 1, {},
             "bad tower file: meta.hyp[0]: expected a JSON boolean, got 1"),
            ("short-hyp", ("meta", "hyp"), [True], {},
             "bad tower file: meta.hyp: expected a list of length 3, got [True]"),
            ("null-hyp", ("meta", "hyp"), None, {},
             "bad tower file: meta.hyp: expected a list of length 3, got None"),
            ("hyp-differs", ("meta", "hyp"), [False] * 3, {},
             "bad tower file: meta.hyp is [False, False, False], but Hyp(S,T) gives "
             "[True, True, True]"),
            ("float-S", ("meta", "S", 0), 3.9, {},
             f"bad tower file: meta.S[0]: expected {PLACE}, got 3.9"),
            ("int-S", ("meta", "S", 0), 3, {},
             f"bad tower file: meta.S[0]: expected {PLACE}, got 3"),
            ("float-T", ("meta", "T", 0), 7.5, {},
             f"bad tower file: meta.T[0]: expected {PLACE}, got 7.5"),
            ("float-modulus", ("meta", "spec", "modulus"), 3.0, {},
             "bad tower file: meta.spec.modulus: expected a JSON integer, got 3.0")):
        path = write(tmp / f"tower_{name}.json", edit(z3_tower, (keys, value)))
        cases[f"tower-file-{name}"] = (EXIT_IO, phrase, z3_replay(path, **flags))
    z3_file = write(tmp / "replay_z3.json", z3_tower)
    # command lines that differ from the file and are admissible: the header
    # comparison names every field that differs
    for flags, fields in (({"p": "5", "S": "3,5,oo", "r": "0"}, "S, p, r"), ({"N": "1"}, "N"),
                          ({"spec": "zeta6"}, "spec"), ({"S": "3,5,oo"}, "S"), ({"T": "5"}, "T"),
                          ({"r": "-2"}, "r"), ({"levels": "1"}, "levels")):
        cases[f"tower-replay-differs-in-{'-'.join(flags)}"] = (
            EXIT_IO, f"tower file does not match the command line in {fields}",
            z3_replay(z3_file, **flags))
    # command lines that differ from the file in one field and break a rule
    # there: the rule is reported, not the mismatch
    for flag, value, message in (
            ("p", "5", "S must contain p = 5 (it ramifies in the tower)"),
            ("spec", "zeta5", "S misses ramified primes [5]"),
            ("S", "3,7,oo", "S and T meet at [7]")):
        cases[f"tower-replay-other-{flag}"] = (
            EXIT_PRECONDITION, message, z3_replay(z3_file, **{flag: value}))
    # the file's r = -1 twists by the cyclotomic character: a command line
    # whose base field lacks zeta_p breaks the twist rule, whatever it shares
    # with the file
    for name, flags in (("p-S", {"p": "5", "S": "3,5,oo"}), ("spec-Q", {"spec": "Q"})):
        cases[f"tower-replay-other-{name}"] = (
            EXIT_PRECONDITION, "the congruence at r = -1 twists by the cyclotomic character, "
                               f"which needs zeta_{flags.get('p', 3)} in the base field",
            z3_replay(z3_file, **flags))
    # the file at r = 0, where no reference tower is built beside the replay,
    # its places breaking each rule of PLACE_RULES, and the command line to match
    for rule, (S, T, message) in PLACE_RULES.items():
        path = write(tmp / f"replay_{rule}.json", edit(
            z3_tower, (("meta", "r"), 0), (("meta", "S"), S.split(",")),
            (("meta", "T"), T.split(","))))
        cases[f"tower-replay-{rule}"] = (
            EXIT_PRECONDITION, message, z3_replay(path, S=S, T=T, r="0"))
    cases["tower-replay-r-positive"] = (
        EXIT_PRECONDITION, R_POSITIVE,
        z3_replay(write(tmp / "replay_r1.json", edit(z3_tower, (("meta", "r"), 1))), r="1"))
    # Hyp(S,T) fails at T = 2 (w_L = 6), which --strict-hyp refuses as on a
    # fresh tower
    path = write(tmp / "replay_T2.json", edit(z3_tower, (("meta", "T"), ["2"]),
                                              (("meta", "hyp"), [False] * 3)))
    cases["tower-replay-strict-hyp"] = (
        EXIT_PRECONDITION,
        "layer 0: Hyp(S,T) fails: every prime of T has residue characteristic 2 | w_L = 6",
        z3_replay(path, "--strict-hyp", T="2"))
    # the file relabelled as a tower over each modulus of PRIMES: at r = 1
    # under the command line it matches, and at r = -1 under the command line
    # of the tower of Q(zeta_3)
    for m in PRIMES:
        for r in (1, -1):
            write(tmp / f"replay_{m}_r{r}.json", edit(
                z3_tower, (("meta", "spec"), json.loads(spec(m))),
                (("meta", "S"), ["3", str(m), "oo"]), (("meta", "r"), r)))
        cases[f"tower-replay-r-positive-over-{m}"] = (
            EXIT_PRECONDITION, R_POSITIVE,
            z3_replay(tmp / f"replay_{m}_r1.json", spec=spec(m), S=f"3,{m},oo", r="1"))
        cases[f"tower-replay-file-over-{m}-differs"] = (
            EXIT_IO, "tower file does not match the command line in spec, S",
            z3_replay(tmp / f"replay_{m}_r-1.json"))
    tower = ("tower", "--T", "7", "--p", "3", "--N", "2", "--levels", "1")
    # 9 * 10,007 and 9 * 100,003, with admissible places: refused before they
    # are read, and before any Galois group is built
    for q in (10007, 100003):
        cases[f"tower-v_p-modulus-{9 * q}"] = (
            EXIT_PRECONDITION,
            "v_3(modulus) = 2 >= 2: the field presentation does not pin a tower base",
            (*tower, "--spec", spec(9 * q), "--S", f"3,{q},oo", "--r", "0"))
    cases |= {
        "tower-N-past-int-str-limit": (
            EXIT_PRECONDITION,
            f"Exceeds the limit ({sys.get_int_max_str_digits()}",
            ("tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--p", "3", "--N", "10000",
             "--levels", "1")),
        "tower-nonintegral-layer": (
            EXIT_PRECONDITION, "layer 0: theta has a coefficient denominator divisible by 5",
            ("tower", "--spec", "zeta5", "--S", "5,oo", "--r", "0", "--p", "5", "--N", "2",
             "--levels", "1")),
        "tower-p-not-prime": (
            EXIT_PRECONDITION, "--p must be an odd prime, got 9",
            ("tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--p", "9", "--N", "2",
             "--levels", "1")),
        # 43 * 47: no trial divisor finds it, the Miller-Rabin test does
        "tower-p-composite-past-trial-division": (
            EXIT_PRECONDITION, "--p must be an odd prime, got 2021",
            ("tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--p", "2021", "--N", "2",
             "--levels", "1")),
        "tower-N-zero": (
            EXIT_PRECONDITION, "--N must be >= 1 and --levels >= 0",
            ("tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--p", "3", "--N", "0",
             "--levels", "1")),
        "tower-levels-negative": (
            EXIT_PRECONDITION, "--N must be >= 1 and --levels >= 0",
            ("tower", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--p", "3", "--N", "1",
             "--levels", "-1")),
        # zeta_3 is not in Q(zeta_7): the twist at r = -1 is refused before
        # any level is built
        "tower-twist-without-zeta-p": (
            EXIT_PRECONDITION, "the congruence at r = -1 twists by the cyclotomic character, "
                               "which needs zeta_3 in the base field",
            ("tower", "--spec", "zeta7", "--S", "3,7,oo", "--T", "2", "--r", "-1", "--p", "3",
             "--N", "1", "--levels", "0")),
        "tower-precision-budget": (
            EXIT_PRECONDITION, "precision budget: the congruence at modulus p^3 needs levels "
                               "up to n >= 2, got n_max = 1",
            ("tower", "--spec", "zeta5", "--S", "5,oo", "--T", "2", "--r", "-1", "--p", "5",
             "--N", "3", "--levels", "1")),
    }
    return cases


def recheck_refusals(tmp: Path) -> dict:
    """{name: (exit code, the error, argv)}: recheck of a committed
    certificate with fields changed, or nested too deep."""
    theta, verify, tower, fitting = (read(FIXTURES / f"{name}_cert.json") for name in (
        "theta_zeta12", "verify_z23", "tower_zeta3", "fitting_seed3"))
    selftest = {"seed": 0, "max_conductor": 3, "trials": 1, "complex_trials": 1}
    bad = "bad certificate {path}: "
    cases = {}
    for name, cert, changes, want, phrase in (
            ("list", theta, [((), [])], EXIT_IO, bad + "expected an object, got []"),
            ("input-list", theta, [(("input",), [])], EXIT_IO,
             bad + "input: expected an object, got []"),
            ("spec-string", theta, [(("input", "spec"), "zeta5")], EXIT_IO,
             bad + "input.spec: expected an object, got 'zeta5'"),
            ("S-int", theta, [(("input", "S", 0), 5)], EXIT_IO,
             bad + f"input.S[0]: expected {PLACE}, got 5"),
            ("command-list", theta, [(("command",), [])], EXIT_IO,
             bad + "command: expected a string, got []"),
            ("p-list", verify, [(("input", "p"), [3])], EXIT_IO,
             bad + "input.p: expected a JSON integer, got [3]"),
            ("float-modulus", theta, [(("input", "spec", "modulus"), 12.0)], EXIT_IO,
             bad + "input.spec.modulus: expected a JSON integer, got 12.0"),
            ("int-label", theta, [(("input", "spec", "label"), 1)], EXIT_IO,
             bad + "input.spec.label: expected a string, got 1"),
            ("int-provenance", verify, [(("input", "class_data", "provenance"), 1)], EXIT_IO,
             "bad class data: provenance: expected a string, got 1"),
            ("string-strict-hyp", tower, [(("input", "strict_hyp"), "no")], EXIT_IO,
             bad + "input.strict_hyp: expected a JSON boolean, got 'no'"),
            ("negative-trials", fitting, [(("input", "trials"), -1)], EXIT_PRECONDITION,
             bad + "input.trials: expected a non-negative integer, got -1"),
            ("unknown-command", theta, [(("command",), "nosuch")], EXIT_IO,
             "unknown command 'nosuch' in certificate"),
            ("spec-modulus-zero", theta, [(("input", "spec", "modulus"), 0)], EXIT_IO,
             "bad spec in configuration: modulus must be >= 1, got 0"),
            ("selftest-data-dir-list", theta, [(("command",), "selftest"),
                                               (("input",), {**selftest, "data_dir": []})],
             EXIT_IO, bad + "input.data_dir: expected a string, got []"),
            ("selftest-empty-data-dir", theta, [(("command",), "selftest"),
                                                (("input",), {**selftest, "data_dir": ""})],
             EXIT_IO, bad + "input.data_dir: expected a directory name, got ''")):
        path = write(tmp / f"recheck_{name}.json", edit(cert, *changes))
        cases[f"recheck-{name}"] = (want, phrase.format(path=path), ("recheck", path))
    # the witness nested in 900 lists, which json parses, and in 990, where
    # json may run out of stack: both refused on the depth of the text,
    # before json reads it
    for levels in (900, 990):
        path = tmp / f"deep_{levels}_cert.json"
        path.write_text(json.dumps({**theta, "witness": "W"})
                        .replace('"W"', "[" * levels + "0" + "]" * levels))
        cases[f"recheck-nested-{levels}-deep"] = (
            EXIT_IO, f"bad certificate {path}: nested deeper than 64 arrays and objects",
            ("recheck", path))
    return cases


def complex_refusals(tmp: Path) -> dict:
    """{name: (exit code, the error, argv)}: complex --data on the committed
    complex Z/9 --3--> Z/9 with fields changed."""
    z9 = read(FIXTURES / "complex_z9.json")
    entry, one_module = ("differentials", 0, 0, 0), [{"ngens": 1, "relations": []}]
    int_ = "expected a JSON integer, got"

    def algebra(mult, sharp=None):
        """An algebra over Z/9 on the basis 1, x, ... with unit 1 and the
        products mult."""
        dim = len(mult)
        return {"p": 3, "N": 2, "basis": ["1", "x", "y"][:dim], "mult": mult,
                "one": [1] + [0] * (dim - 1), "sharp": sharp}

    cases = {}
    for name, changes, want, message in (
            ("long-entry", [(entry, [3, 4])], EXIT_IO,
             "differentials[0][0][0]: expected a list of length 1, got [3, 4]"),
            ("float-entry", [(entry, [3.0])], EXIT_IO, f"differentials[0][0][0][0]: {int_} 3.0"),
            ("empty-entry", [(entry, [])], EXIT_IO,
             "differentials[0][0][0]: expected a list of length 1, got []"),
            ("long-one", [(("algebra", "one"), [1, 0])], EXIT_IO,
             "algebra.one: expected a list of length 1, got [1, 0]"),
            ("object-differentials", [(("differentials",), {})], EXIT_IO,
             "differentials: expected a list of length 1, got {}"),
            ("one-module-object-differentials", [
                (("degrees",), [0, 0]), (("modules",), one_module), (("differentials",), {})],
             EXIT_IO, "differentials: expected a list of length 0, got {}"),
            ("object-modules", [(("modules",), {})], EXIT_IO, "modules: expected a list, got {}"),
            ("float-p", [(("algebra", "p"), 3.7)], EXIT_IO, f"algebra.p: {int_} 3.7"),
            ("bool-p", [(("algebra", "p"), True)], EXIT_IO, f"algebra.p: {int_} True"),
            ("string-N", [(("algebra", "N"), "2")], EXIT_IO, f"algebra.N: {int_} '2'"),
            ("string-ngens", [(("modules", 0, "ngens"), "1")], EXIT_IO,
             f"modules[0].ngens: {int_} '1'"),
            ("float-ngens", [(("modules", 0, "ngens"), 1.9)], EXIT_IO,
             f"modules[0].ngens: {int_} 1.9"),
            ("negative-ngens", [(("modules", 0, "ngens"), -1)], EXIT_IO,
             "modules[0].ngens: expected a non-negative integer, got -1"),
            ("float-degrees", [(("degrees",), [0.5, "x"])], EXIT_IO, f"degrees[0]: {int_} 0.5"),
            ("bool-degrees", [(("degrees",), [True, 1])], EXIT_IO, f"degrees[0]: {int_} True"),
            ("degrees-past-modules", [(("degrees",), [0, 5])], EXIT_IO,
             "degrees: expected [lo, lo + 1], got [0, 5]"),
            ("one-degree", [(("degrees",), [0])], EXIT_IO,
             "degrees: expected a list of length 2, got [0]"),
            ("object-degrees", [(("degrees",), {})], EXIT_IO,
             "degrees: expected a list of length 2, got {}"),
            # every modulus is born in FiniteCommAlgebra._ring, which names p or N
            ("p-not-prime", [(("algebra", "p"), 4)], EXIT_PRECONDITION,
             "p must be a prime, got p=4"),
            ("N-zero", [(("algebra", "N"), 0)], EXIT_PRECONDITION,
             "N must be at least 1, got N=0"),
            ("N-negative", [(("algebra", "N"), -1)], EXIT_PRECONDITION,
             "N must be at least 1, got N=-1"),
            # Z/9/(3) --1--> Z/9 sends the relation 3 to 3 != 0
            ("ill-defined-differential", [(entry, [1]), (("modules", 0, "relations"), [[[3]]])],
             EXIT_PRECONDITION, "differential in degree 0 is not well defined"),
            # one matrix per adjacent pair of modules
            ("too-many-differentials", [(("differentials",), [[[[3]]], [[[3]]]])], EXIT_IO,
             "differentials: expected a list of length 1, got [[[[3]]], [[[3]]]]"),
            ("too-few-differentials", [(("differentials",), [])], EXIT_IO,
             "differentials: expected a list of length 1, got []"),
            ("differential-shape", [(("differentials", 0), [[[3]], [[3]]])], EXIT_PRECONDITION,
             "map matrix shape mismatch"),
            ("relation-width", [(("modules", 0, "relations"), [[[3], [3]]])], EXIT_PRECONDITION,
             "relation width must equal the generator count"),
            # Z/9 --1--> Z/9 --1--> Z/9
            ("d-squared-nonzero", [(("degrees",), [0, 2]), (("modules",), one_module * 3),
                                   (("differentials",), [[[[1]]], [[[1]]]])],
             EXIT_PRECONDITION, "d o d != 0 at degree 0"),
            # the algebra laws, each broken: 2 is no unit of Z/9, an x with
            # x.1 = 2x, (x x) y != x (x y), # = 2, and # swapping 1 and x
            ("unit-law", [(("algebra", "one"), [2])], EXIT_PRECONDITION, "unit law fails"),
            ("not-commutative", [(("algebra",), algebra([[[1, 0], [0, 1]], [[0, 2], [0, 0]]]))],
             EXIT_PRECONDITION, "multiplication is not commutative"),
            ("not-associative", [(("algebra",), algebra(
                [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                 [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]))],
             EXIT_PRECONDITION, "multiplication is not associative"),
            ("sharp-not-involution", [(("algebra", "sharp"), [[2]])], EXIT_PRECONDITION,
             "# is not an involution"),
            ("sharp-not-multiplicative", [(("algebra",), algebra(
                [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], sharp=[[0, 1], [1, 0]]))],
             EXIT_PRECONDITION, "# is not multiplicative")):
        path = write(tmp / f"complex_{name}.json", edit(z9, *changes))
        prefix = "bad complex file" if want == EXIT_IO else "invalid complex"
        cases[f"complex-{name}"] = (want, f"{prefix}: {message}", ("complex", "--data", path))
    return cases


def selftest_refusals(tmp: Path) -> dict:
    """{name: (exit code, the error, argv)}: selftest on data directories
    that are missing, empty-named or a file, that hold no manifest, or one
    that is not JSON, is off the wire rule or has a first entry that breaks
    a precondition of its class data."""
    manifest = read(DATA / "manifest.json")
    zeta5 = {"modulus": 5, "fixing": [1], "label": "Q(zeta_5)"}
    missing = "[Errno 2] No such file or directory"
    entry = "manifest entry trivial_z3.json: "
    cases = {
        "missing-dir": (EXIT_IO, f"bad manifest: {missing}: '{tmp}/no_such_dir/manifest.json'",
                        tmp / "no_such_dir"),
        "empty-dir-name": (
            EXIT_IO, "bad configuration: data_dir: expected a directory name, got ''", ""),
        "dir-is-a-file": (
            EXIT_IO,
            f"bad manifest: [Errno 20] Not a directory: '{DATA}/manifest.json/manifest.json'",
            DATA / "manifest.json"),
    }
    for name, text, want, message in (
            ("no-manifest", None, EXIT_IO, f"bad manifest: {missing}: '{{path}}/manifest.json'"),
            ("manifest-list", [], EXIT_IO, "bad manifest: expected an object, got []"),
            ("manifest-not-json", "{", EXIT_IO,
             "bad manifest: Expecting property name enclosed in double quotes: line 1 column 2 "
             "(char 1)"),
            ("missing-data-file", edit(manifest, (("entries", 0, "data"), "nosuch.json")),
             EXIT_IO, f"bad data file nosuch.json: {missing}: '{{path}}/nosuch.json'"),
            ("float-p", edit(manifest, (("entries", 0, "p"), 3.0)), EXIT_IO,
             "bad manifest: entries[0].p: expected a JSON integer, got 3.0"),
            ("int-S", edit(manifest, (("entries", 1, "S"), [3, "oo"])), EXIT_IO,
             f"bad manifest: entries[1].S[0]: expected {PLACE}, got 3"),
            ("group-mismatch", edit(manifest, (("entries", 0, "spec"), zeta5),
                                    (("entries", 0, "S"), ["5", "oo"])), EXIT_PRECONDITION,
             entry + "group mismatch: the field's group has order 4, the module's 2"),
            ("S-misses-ramified", edit(manifest, (("entries", 0, "spec"), zeta5)),
             EXIT_PRECONDITION, entry + "S misses ramified primes [5]"),
            ("non-integral-theta", edit(manifest, (("entries", 0, "T"), [])), EXIT_PRECONDITION,
             entry + "theta must have integer coefficients"),
            ("p-not-prime", edit(manifest, (("entries", 0, "p"), 9)), EXIT_PRECONDITION,
             entry + "fitting membership needs an odd prime")):
        path = tmp / f"data_{name}"
        shutil.copytree(DATA, path)
        if text is None:
            (path / "manifest.json").unlink()
        else:
            (path / "manifest.json").write_text(text if isinstance(text, str) else json.dumps(text))
        cases[name] = (want, message.format(path=path), path)
    selftest = ("selftest", "--max-conductor", "3", "--trials", "1", "--complex-trials", "1",
                "--data-dir")
    return {f"selftest-{name}": (want, message, (*selftest, path))
            for name, (want, message, path) in cases.items()}


def refusals(tmp: Path) -> dict:
    """{name: (exit code, the error, argv)}, every row of the table (the error
    is only a phrase of it in the rows of PARTIAL_PHRASES); the files the
    inputs name are written under tmp."""
    verify = ("verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0")
    z23 = DATA / "table_z23_minus.json"
    verify_z3 = ("verify", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "0", "--p", "3",
                 "--N", "2", "--data")
    missing = "[Errno 2] No such file or directory: 'nosuch.json'"
    cases = {
        "theta-zeta0": (
            EXIT_IO, "bad spec zeta0: modulus must be >= 1, got 0",
            ("theta", "--spec", "zeta0", "--S", "oo")),
        # the 5,003 squares mod 10,007: the fixing subgroup is checked in
        # O(|H| . #generators), not O(|H|^2), before the places are read
        "theta-squares-mod-prime": (
            EXIT_PRECONDITION, "S misses ramified primes [10007]",
            ("theta", "--spec", write(tmp / "squares_10007.json", {
                "modulus": 10007, "fixing": sorted({x * x % 10007 for x in range(1, 10007)})}),
             "--S", "oo", "--T", "7", "--r", "0")),
        "theta-missing-spec-file": (
            EXIT_IO, f"bad spec file nosuch.json: {missing}",
            ("theta", "--spec", "nosuch.json", "--S", "oo")),
        # a place that int() does not read, one that it reads but that is no
        # prime, and one past the bound below which is_prime decides
        "theta-S-not-a-place": (
            EXIT_IO, f"bad place: expected {PLACE}, got 'x'",
            ("theta", "--spec", "zeta3", "--S", "3,x,oo", "--T", "7")),
        "theta-S-not-a-prime": (
            EXIT_PRECONDITION, "malformed place 4",
            ("theta", "--spec", "zeta3", "--S", "3,4,oo", "--T", "7")),
        "theta-T-past-primality-bound": (
            EXIT_PRECONDITION, f"primality is decided only below {PSI_13}, got {PSI_13}",
            ("theta", "--spec", "zeta3", "--S", "3,oo", "--T", str(PSI_13))),
        "usage": (
            EXIT_PRECONDITION, "iwasawa-kit theta: the following arguments are required: --spec",
            ("theta",)),
        "usage-spec-without-value": (
            EXIT_PRECONDITION, "iwasawa-kit theta: argument --spec: expected one argument",
            ("theta", "--spec", "-x")),
        "verify-N-zero": (
            EXIT_PRECONDITION, "N must be at least 1, got N=0",
            (*verify, "--p", "3", "--N", "0", "--data", z23)),
        "verify-ill-defined-action": (
            EXIT_PRECONDITION, "action matrix g0 is not well defined mod orders",
            (*verify, "--p", "3", "--N", "2", "--data", write(tmp / "ill_defined.json", edit(
                read(z23), (("orders",), [3, 9]), (("action",), {"g0": [[0, 1], [1, 0]]}))))),
        "verify-group-order-10^18": (
            EXIT_PRECONDITION,
            "group mismatch: the field's group has order 22, the module's 1000000000000000000",
            (*verify, "--p", "3", "--N", "2", "--data", write(
                tmp / "huge_group_order.json", edit(read(z23), (("group_orders",), [10**18]))))),
        "verify-group-mismatch": (
            EXIT_PRECONDITION, "group mismatch: the field's group has order 4, the module's 2",
            ("verify", "--spec", "zeta5", "--S", "5,oo", "--T", "3", "--r", "0", "--p", "3",
             "--N", "2", "--data", DATA / "synthetic_z3_quadratic.json")),
        # the module's group has the field's size, 4, but not its orders (4,)
        "verify-group-orders": (
            EXIT_PRECONDITION, "group mismatch: theta over (4,), module over (2, 2)",
            ("verify", "--spec", "zeta5", "--S", "5,oo", "--T", "3", "--r", "0", "--p", "3",
             "--N", "2", "--data", write(tmp / "c2xc2.json", {
                 "orders": [3], "group_orders": [2, 2], "action": {"g0": [[-1]], "g1": [[1]]}}))),
        "verify-missing-data-file": (
            EXIT_IO, f"bad class data file: {missing}", (*verify_z3, "nosuch.json")),
        "fitting-out-is-a-directory": (
            EXIT_IO, f"cannot write the certificate: [Errno 21] Is a directory: '{tmp}'",
            ("fitting", "--trials", "0", "--out", tmp)),
        "fitting-out-in-missing-dir": (
            EXIT_IO, f"cannot write the certificate: [Errno 2] No such file or directory: "
                     f"'{tmp}/nosuch/cert.json'",
            ("fitting", "--trials", "0", "--out", tmp / "nosuch" / "cert.json")),
    }
    for p in (0, 4):
        cases[f"verify-p-{p}"] = (EXIT_PRECONDITION, "fitting membership needs an odd prime",
                                  (*verify, "--p", p, "--N", "2", "--data", z23))
    # class data: the committed trivial module with fields changed
    trivial = read(DATA / "trivial_z3.json")
    for name, changes, want, message in (
            ("list", [((), [1, 2, 3])], EXIT_IO,
             "bad class data: expected an object, got [1, 2, 3]"),
            ("action-entry", [(("action", "g0", 0, 0), "x")], EXIT_IO,
             "bad class data: action.g0[0][0]: expected a JSON integer, got 'x'"),
            ("action-key", [(("action",), {"gx": [[1]]})], EXIT_IO,
             "bad class data: action.gx: action keys must be g<index>, got 'gx'"),
            # g0 acts on Z/3 as 0, so g0^2 is not 1 although g0 has order 2
            ("action-order", [(("orders",), [3]), (("action", "g0"), [[0]])], EXIT_PRECONDITION,
             "action matrix g0 violates the generator order"),
            ("orders-zero", [(("orders",), [0])], EXIT_PRECONDITION,
             "module orders must be positive"),
            ("group-orders-zero", [(("group_orders",), [0])], EXIT_PRECONDITION,
             "group orders must be positive"),
            ("action-missing", [(("action",), {})], EXIT_PRECONDITION,
             "need one action matrix per group generator"),
            ("action-unknown-generator", [(("action", "g1"), [[1]])], EXIT_PRECONDITION,
             "need one action matrix per group generator"),
            ("action-size", [(("action", "g0"), [[1, 0]])], EXIT_PRECONDITION,
             "action matrix g0 must be 1x1"),
            # two involutions of (Z/3)^2 that do not commute: a swap and diag(-1, 1)
            ("action-not-commuting", [(("orders",), [3, 3]), (("group_orders",), [2, 2]),
                                      (("action",), {"g0": [[0, 1], [1, 0]],
                                                     "g1": [[2, 0], [0, 1]]})],
             EXIT_PRECONDITION, "action matrices do not commute")):
        path = write(tmp / f"class_data_{name}.json", edit(trivial, *changes))
        cases[f"verify-class-data-{name}"] = (want, message, (*verify_z3, path))
    # a spec on the command line, or in the file it names, off the wire rule
    for name, text, message in (
            ("empty", "", "bad spec file : [Errno 21] Is a directory: '.'"),
            ("directory", ".", "bad spec file .: [Errno 21] Is a directory: '.'"),
            ("float-modulus", '{"modulus": 7.5, "fixing": [1]}',
             "bad spec: modulus: expected a JSON integer, got 7.5"),
            ("string-modulus", '{"modulus": "7", "fixing": [1]}',
             "bad spec: modulus: expected a JSON integer, got '7'"),
            ("bool-modulus", '{"modulus": true, "fixing": [1]}',
             "bad spec: modulus: expected a JSON integer, got True"),
            ("float-fixing", '{"modulus": 7, "fixing": [1.5]}',
             "bad spec: fixing[0]: expected a JSON integer, got 1.5"),
            ("object-fixing", '{"modulus": 7, "fixing": {"1": 0}}',
             "bad spec: fixing: expected a list, got {'1': 0}"),
            ("missing-fixing", '{"modulus": 7}', "bad spec: missing field 'fixing'")):
        cases[f"theta-spec-{name}"] = (EXIT_IO, message, ("theta", "--spec", text, "--S", "oo"))
    # a spec whose fixing set is no subgroup of the units
    for name, text, message in (
            ("fixing-not-units", '{"modulus": 6, "fixing": [1, 2]}',
             "fixing subgroup [1, 2] not inside (Z/6)^x"),
            ("fixing-without-1", '{"modulus": 7, "fixing": [6]}', "fixing subgroup must contain 1"),
            ("fixing-not-closed", '{"modulus": 7, "fixing": [1, 2]}',
             "fixing set is not closed under multiplication")):
        cases[f"theta-spec-{name}"] = (EXIT_IO, f"bad spec {text}: {message}",
                                       ("theta", "--spec", text, "--S", "oo"))
    # a negative count on each command that reads one
    for name, argv, field, value in (
            ("trials", ("fitting",), "trials", -1),
            ("complex-trials", ("complex",), "trials", -1),
            ("complex-data-trials", ("complex", "--data", FIXTURES / "complex_z9.json"),
             "trials", -1),
            ("selftest-trials", ("selftest",), "trials", -1),
            ("selftest-complex-trials", ("selftest",), "complex_trials", -1),
            ("selftest-max-conductor", ("selftest",), "max_conductor", -5)):
        cases[f"negative-{name}"] = (
            EXIT_PRECONDITION, f"bad configuration: {field}: expected a non-negative integer, "
                               f"got {value}",
            (*argv, "--" + field.replace("_", "-"), value))
    cases |= (place_refusals() | verify_refusals() | tower_refusals(tmp) | recheck_refusals(tmp)
              | complex_refusals(tmp) | selftest_refusals(tmp))
    return {name: (want, phrase, tuple(map(str, argv)))
            for name, (want, phrase, argv) in cases.items()}
