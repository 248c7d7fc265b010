"""Command-line driver: theta / tower / verify / fitting / complex / selftest
/ recheck, emitting JSON certificates that embed their full configuration so
every run is replayable.

Exit codes: 0 success, 2 precondition violation, 3 mathematical check
failure, 4 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import wire
from .abelian import AbelianFieldSpec, roots_of_unity_rule
from .campaigns import complex_campaigns, fitting_campaigns, run_all
from .complexes import BoundedComplex
from .fitting import FiniteCommAlgebra, FinPresModule, ModuleMap
from .lvalues import (
    ClassModuleData,
    annihilation_check,
    fitting_membership_check,
    theta,
    verify_case,
    verify_integrality,
)
from .tower import (
    TowerElement,
    TowerIntegralityError,
    coherence_check,
    theta_tower,
    tower_preconditions,
    twist_congruence_check,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CHECK_FAILED = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Argument parsing helpers.

def parse_spec(text: str) -> AbelianFieldSpec:
    if text == "Q":
        return AbelianFieldSpec.rationals()
    try:
        if text.startswith("zeta"):
            return AbelianFieldSpec.cyclotomic(int(text[4:]))
        if text.strip().startswith("{"):
            return AbelianFieldSpec.from_json(wire.parse(text, "spec"))
        return AbelianFieldSpec.from_json(wire.load(text, f"spec file {text}"))
    except ValueError as exc:
        raise CliError(EXIT_IO, f"bad spec {text}: {exc}") from exc


def parse_places(text: str) -> list[str]:
    """The wire form of a comma list of places; empty tokens are skipped."""
    tokens = (token.strip() for token in text.split(","))
    return [str(wire.Node(token, "place").place()) for token in tokens if token]


# ---------------------------------------------------------------------------
# Reading a configuration: main builds it from argv, recheck reads it from a
# certificate; runners read every field through wire (exit 4 off the rule).

def field_config(config: wire.Node) -> tuple[AbelianFieldSpec, list, list, int]:
    """The spec, S, T and r shared by theta, tower and verify."""
    try:
        spec = AbelianFieldSpec.from_json(config["spec"])
    except ValueError as exc:
        raise CliError(EXIT_IO, f"bad spec in configuration: {exc}") from exc
    S, T = ([v.place() for v in config[key].list()] for key in ("S", "T"))
    return spec, S, T, config["r"].int()


def count(node: wire.Node) -> int:
    """A trial count or conductor bound: a JSON integer (exit 4 otherwise)
    that is not negative (exit 2 otherwise)."""
    value = node.int()
    if value < 0:
        raise CliError(EXIT_PRECONDITION, str(node.expected("a non-negative integer")))
    return value


def emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text, flush=True)  # a closed stdout fails here, inside main


def certificate(command: str, input: dict, check: str, result: dict, witness=None) -> dict:
    """A certificate: the command, the configuration it ran (its input), what
    it checked, the result and a witness (None when there is none)."""
    return {"command": command, "input": input, "check": check, "result": result,
            "witness": witness}


def suites_certificate(command: str, config: wire.Node, check: str, results) -> tuple[dict, int]:
    """The certificate of a campaign command: every suite and whether all passed."""
    payload = [r.to_json() for r in results]
    ok = all(r["ok"] for r in payload)
    cert = certificate(command, config.value, check, {"suites": payload, "ok": ok})
    return cert, EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Runners: each returns (certificate dict, exit code).

def run_theta(config: wire.Node) -> tuple[dict, int]:
    spec, S, T, r = field_config(config)
    th = theta(spec, S, T, r)
    hyp, reason = roots_of_unity_rule(spec, th.T)
    integral = verify_integrality(th)
    asserted = bool(T) and hyp and r == 0  # Hyp(S,T) is the rule at r = 0 only
    result = {
        "coefficients": th.to_json(),
        "hyp": hyp,
        "hyp_reason": reason,
        "integral": integral,
        "integrality_asserted": asserted,
    }
    cert = certificate("theta", config.value, "theta_S^T(r)", result)
    return cert, EXIT_CHECK_FAILED if asserted and not integral else EXIT_OK


def run_tower(config: wire.Node) -> tuple[dict, int]:
    spec, S, T, r = field_config(config)
    p, N, n_max = (config[k].int() for k in ("p", "N", "levels"))
    strict = config.get("strict_hyp", False).bool()
    if r != 0 and N > n_max + 1:
        raise CliError(
            EXIT_PRECONDITION,
            f"precision budget: the congruence at modulus p^{N} needs levels "
            f"up to n >= {N - 1}, got n_max = {n_max}",
        )
    replay = config.get("replay").value
    if replay is not None:
        # the command line, then the file's header (read once, not admitted again),
        # then Hyp(S,T) on layer 0 as a fresh tower reads it, then the levels
        _, t_fin = tower_preconditions(spec, S, T, p, N, n_max, r)
        node = wire.Node(replay, "tower file")
        try:
            names = ("spec", "S", "T", "p", "N", "levels", "r")
            header = TowerElement.header(node)
            pairs = zip(names, header, (spec, S, T, p, N, n_max, r))
            differ = [k for k, a, b in pairs  # the places compare as sets
                      if (set(a) != set(b) if k in ("S", "T") else a != b)]
            if differ:
                raise CliError(EXIT_IO, "tower file does not match the command line in "
                               + ", ".join(differ))
            t = TowerElement.from_json(node, (header, t_fin), strict)
        except TowerIntegralityError:
            raise  # Hyp fails under --strict-hyp: refused as a fresh tower is
        except ValueError as exc:
            raise CliError(EXIT_IO, f"bad tower file: {exc}") from exc
    else:
        t = theta_tower(spec, S, T, p, N, n_max, r, strict_hyp=strict)
    coherent, bad_layer = coherence_check(t)
    result = {
        "tower": t.to_json(),
        "coherent": coherent,
        "hyp_per_layer": t.hyp_verdicts,
    }
    witness = {"failing_layer": bad_layer}
    if r != 0:
        t0 = theta_tower(spec, S, T, p, N, n_max, 0, strict_hyp=strict)
        congruent, bad = twist_congruence_check(t, t0)
        result["twist_congruent"] = congruent
        witness["twist_failing_layer"] = bad
    inputs = {k: v for k, v in config.value.items() if k != "replay"}
    cert = certificate("tower", inputs, "tower coherence and Kummer congruence", result, witness)
    ok = coherent and result.get("twist_congruent", True)
    return cert, EXIT_OK if ok else EXIT_CHECK_FAILED


def run_verify(config: wire.Node) -> tuple[dict, int]:
    spec, S, T, r = field_config(config)
    p, N = config["p"].int(), config["N"].int()
    module = ClassModuleData.from_json(wire.Node(config["class_data"].value, "class data"))
    th, dual, target = verify_case(spec, S, T, r, module, p, N)
    ann, acting = annihilation_check(th, module)
    fit, residual = fitting_membership_check(dual, target)
    result = {
        "annihilation": ann,
        "fitting_membership": fit,
        "theta": th.to_json(),
    }
    witness = {"acting_matrix": acting, "fitting_residual": list(residual)}
    check = "annihilation and minus-Fitting membership"
    cert = certificate("verify", config.value, check, result, witness)
    return cert, EXIT_OK if (ann and fit) else EXIT_CHECK_FAILED


def run_fitting(config: wire.Node) -> tuple[dict, int]:
    results = fitting_campaigns(config["seed"].int(), count(config["trials"]))
    return suites_certificate("fitting", config, "fitting lemma property campaigns", results)


def run_complex(config: wire.Node) -> tuple[dict, int]:
    trials = count(config["trials"])
    if config.get("complex_data").value is not None:
        return _run_complex_file(config)
    results = complex_campaigns(config["seed"].int(), trials)
    return suites_certificate("complex", config, "complex-calculus property campaigns", results)


def _run_complex_file(config: wire.Node) -> tuple[dict, int]:
    obj = wire.Node(config["complex_data"].value, "complex file")
    try:
        alg = FiniteCommAlgebra.from_json(obj["algebra"])
        alg.validate()
        module_nodes = obj["modules"].list()

        def matrix(node):
            return [[e.ints(alg.dim) for e in row.list()] for row in node.list()]

        modules = []
        for m in module_nodes:
            ngens = m["ngens"].int()
            if ngens < 0:
                raise m["ngens"].expected("a non-negative integer")
            modules.append(FinPresModule(alg, ngens, matrix(m["relations"])))
        lo, hi = (d.int() for d in obj["degrees"].list(2))
        if hi != lo + len(modules) - 1:
            raise obj["degrees"].expected(f"[lo, lo + {len(modules) - 1}]")
        # one matrix per adjacent pair of modules
        differential_nodes = obj["differentials"].list(max(len(modules) - 1, 0))
        diffs = [ModuleMap(modules[i], modules[i + 1], matrix(mat))
                 for i, mat in enumerate(differential_nodes)]
        cx = BoundedComplex(alg, lo, modules, diffs)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, f"invalid complex: {exc}") from exc
    inv = cx.euler_fitting()
    sizes = {str(i): cx.cohomology_size(i) for i in cx.degrees()}
    result = {
        "degrees": [cx.lo, cx.hi],
        "cohomology_sizes": sizes,
        "acyclic": all(size == 1 for size in sizes.values()),
        "euler_fitting": {
            "numerator": [list(r) for r in inv.numerator.howell],
            "denominator": [list(r) for r in inv.denominator.howell],
        },
    }
    # the input keeps the complex, so that recheck re-runs this complex
    check = "complex ingestion and Euler-Fitting invariant"
    return certificate("complex", config.value, check, result), EXIT_OK


def run_selftest(config: wire.Node) -> tuple[dict, int]:
    data_dir = config.get("data_dir")
    if data_dir.value is not None and not data_dir.str():
        raise data_dir.expected("a directory name")  # "" would silently mean no data
    results = run_all(
        seed=config["seed"].int(),
        max_conductor=count(config["max_conductor"]),
        trials=count(config["trials"]),
        complex_trials=count(config["complex_trials"]),
        data_dir=data_dir.value,
    )
    return suites_certificate("selftest", config, "all module property suites", results)


RUNNERS = {
    "theta": run_theta,
    "tower": run_tower,
    "verify": run_verify,
    "fitting": run_fitting,
    "complex": run_complex,
    "selftest": run_selftest,
}


def without_seconds(result):
    """result with every "seconds" key dropped, at any depth: the part of a
    certificate that a rerun must reproduce."""
    if isinstance(result, dict):
        return {k: without_seconds(v) for k, v in result.items() if k != "seconds"}
    if isinstance(result, list):
        return [without_seconds(v) for v in result]
    return result


def run_recheck(path: str) -> tuple[dict, int]:
    """Rerun a certificate's command on its input and compare the result and
    witness with the stored ones. They are compared as they are first; only
    when they differ are both walked to drop the campaign timings
    ("seconds", which only suite certificates carry) and compared again."""
    cert = wire.load(path, f"certificate {path}")
    command = cert["command"].str()
    old_result = {"result": cert["result"].value, "witness": cert.get("witness").value}
    if command not in RUNNERS:
        raise CliError(EXIT_IO, f"unknown command {command!r} in certificate")
    new_cert, _ = RUNNERS[command](cert["input"])
    new_result = {"result": new_cert["result"], "witness": new_cert.get("witness")}
    same = old_result == new_result or without_seconds(old_result) == without_seconds(new_result)
    inputs, result = {"certificate": path}, {"matches": same}
    report = certificate("recheck", inputs, "certificate round trip", result)
    return report, EXIT_OK if same else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point.

class ArgumentParser(argparse.ArgumentParser):
    """A usage error is a precondition violation with one JSON error, like
    every other refusal; subcommand parsers inherit this class."""

    def error(self, message):
        raise CliError(EXIT_PRECONDITION, f"{self.prog}: {message}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
    ap = ArgumentParser(
        prog="iwasawa-kit",
        description="Exact Stickelberger / Iwasawa-tower / Fitting-ideal checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, towerish=False):
        p.add_argument("--spec", required=True, help="zetaN | Q | JSON | path")
        p.add_argument("--S", default="", help="comma list of primes and oo")
        p.add_argument("--T", default="", help="comma list of primes")
        p.add_argument("--r", type=int, default=0)
        p.add_argument("--out", default=None)
        if towerish:
            p.add_argument("--p", type=int, required=True)
            p.add_argument("--N", type=int, required=True)

    t = sub.add_parser("theta", help="Stickelberger element with Hyp/integrality verdicts")
    common(t)

    tw = sub.add_parser("tower", help="coherent Stickelberger tower mod p^N")
    common(tw, towerish=True)
    tw.add_argument("--levels", type=int, required=True, help="n_max")
    tw.add_argument("--strict-hyp", action="store_true")
    tw.add_argument("--data", default=None, help="replay a tower JSON file")

    v = sub.add_parser("verify", help="annihilation / Fitting membership on class data")
    common(v, towerish=True)
    v.add_argument("--data", required=True, help="class-module JSON file")

    f = sub.add_parser("fitting", help="fitting lemma property campaigns")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--trials", type=int, default=200)
    f.add_argument("--out", default=None)

    c = sub.add_parser("complex", help="complex campaigns or one ingested complex")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--data", default=None, help="complex JSON file")
    c.add_argument("--out", default=None)

    s = sub.add_parser("selftest", help="run every property suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-conductor", type=int, default=24)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--complex-trials", type=int, default=100)
    s.add_argument("--data-dir", default=None)
    s.add_argument("--out", default=None)

    rc = sub.add_parser("recheck", help="re-validate an emitted certificate")
    rc.add_argument("certificate")
    rc.add_argument("--out", default=None)
    return ap


def configuration(args) -> dict:
    """The configuration a command's argv describes, with the JSON files it
    names read in; a certificate embeds it as its input."""
    if args.command in ("theta", "tower", "verify"):
        config = {
            "spec": parse_spec(args.spec).to_json(),
            "S": parse_places(args.S),
            "T": parse_places(args.T),
            "r": args.r,
        }
        if args.command == "tower":
            config.update(p=args.p, N=args.N, levels=args.levels, strict_hyp=args.strict_hyp)
            if args.data:
                config["replay"] = wire.load(args.data, "tower file").value
        elif args.command == "verify":
            config.update(p=args.p, N=args.N)
            config["class_data"] = wire.load(args.data, "class data file").value
        return config
    if args.command == "selftest":
        return {
            "seed": args.seed,
            "max_conductor": args.max_conductor,
            "trials": args.trials,
            "complex_trials": args.complex_trials,
            "data_dir": args.data_dir,
        }
    config = {"seed": args.seed, "trials": args.trials}
    if args.command == "complex" and args.data:
        config["complex_data"] = wire.load(args.data, "complex file").value
    return config


def refuse(code: int, message: str) -> int:
    """Print the one JSON error of a refused command and return its exit code."""
    print(json.dumps({"error": message, "exit": code}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "recheck":
            cert, code = run_recheck(args.certificate)
        else:
            cert, code = RUNNERS[args.command](wire.Node(configuration(args), "configuration"))
        # inside the handlers: an int longer than sys.get_int_max_str_digits() is a ValueError
        text = json.dumps(cert, indent=2, sort_keys=True)
    except (CliError, wire.SchemaError) as exc:
        return refuse(exc.code if isinstance(exc, CliError) else EXIT_IO, str(exc))
    except ValueError as exc:
        return refuse(EXIT_PRECONDITION, str(exc))
    except MemoryError:
        return refuse(EXIT_PRECONDITION, "out of memory: the input is too large to run")
    try:
        emit(text, getattr(args, "out", None))
    except BrokenPipeError:
        # The reader is gone: send what is left to devnull, so that the
        # interpreter's final flush of stdout cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return refuse(EXIT_IO, "stdout was closed before the certificate was written")
    except OSError as exc:  # --out names no writable file
        return refuse(EXIT_IO, f"cannot write the certificate: {exc}")
    if args.command == "selftest":
        for suite in cert["result"]["suites"]:
            status = "PASS" if suite["ok"] else "FAIL"
            print(
                f"[{status}] {suite['name']}: {suite['trials']} checks, "
                f"{suite['failures']} failures, {suite['seconds']}s",
                file=sys.stderr,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
