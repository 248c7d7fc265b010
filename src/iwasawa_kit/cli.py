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
from pathlib import Path

from . import wire
from .abelian import AbelianFieldSpec, check_hyp
from .campaigns import complex_campaigns, fitting_campaigns, run_all
from .fitting import DualActionError, FiniteCommAlgebra, FinPresModule, ModuleMap
from .lvalues import (
    ClassModuleData,
    annihilation_check,
    fitting_membership_check,
    theta,
    verify_integrality,
)
from .tower import (
    TowerElement,
    TowerIntegralityError,
    coherence_check,
    theta_tower,
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


def emit(cert: dict, out: str | None) -> None:
    text = json.dumps(cert, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text, flush=True)  # a closed stdout fails here, inside main


def suites_certificate(command: str, config: wire.Node, check: str, results) -> tuple[dict, int]:
    """The certificate of a campaign command: every suite and whether all passed."""
    payload = [r.to_json() for r in results]
    ok = all(r["ok"] for r in payload)
    cert = {
        "command": command,
        "input": config.value,
        "check": check,
        "result": {"suites": payload, "ok": ok},
        "witness": None,
    }
    return cert, EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Runners: each returns (certificate dict, exit code).

def run_theta(config: wire.Node) -> tuple[dict, int]:
    spec, S, T, r = field_config(config)
    hyp, reason = check_hyp(spec, S, T)
    try:
        th = theta(spec, S, T, r)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc
    integral = verify_integrality(th)
    result = {
        "coefficients": th.to_json()["coefficients"],
        "hyp": hyp,
        "hyp_reason": reason,
        "integral": integral,
        "integrality_asserted": bool(T) and hyp,
    }
    cert = {
        "command": "theta",
        "input": config.value,
        "check": "theta_S^T(r)",
        "result": result,
        "witness": None,
    }
    code = EXIT_CHECK_FAILED if (hyp and T and not integral) else EXIT_OK
    return cert, code


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
        try:
            t = TowerElement.from_json(wire.Node(replay, "tower file"))
        except ValueError as exc:
            raise CliError(EXIT_IO, f"bad tower file: {exc}") from exc
        stored = {"p": t.p, "N": t.N, "spec": t.spec, "S": set(t.S),
                  "T": set(t.T), "r": t.r, "levels": t.n_max}
        wanted = {"p": p, "N": N, "spec": spec, "S": set(S), "T": set(T),
                  "r": r, "levels": n_max}
        differ = [k for k in stored if stored[k] != wanted[k]]
        if differ:
            raise CliError(
                EXIT_IO, f"tower file does not match the command line in {', '.join(differ)}"
            )
    else:
        try:
            t = theta_tower(spec, S, T, p, N, n_max, r, strict_hyp=strict)
        except TowerIntegralityError as exc:
            raise CliError(EXIT_PRECONDITION, f"tower aborted: {exc}") from exc
        except ValueError as exc:
            raise CliError(EXIT_PRECONDITION, str(exc)) from exc
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
    cert = {
        "command": "tower",
        "input": {k: v for k, v in config.value.items() if k != "replay"},
        "check": "tower coherence and Kummer congruence",
        "result": result,
        "witness": witness,
    }
    ok = coherent and result.get("twist_congruent", True)
    return cert, EXIT_OK if ok else EXIT_CHECK_FAILED


def run_verify(config: wire.Node) -> tuple[dict, int]:
    spec, S, T, r = field_config(config)
    p, N = config["p"].int(), config["N"].int()
    module = ClassModuleData.from_json(wire.Node(config["class_data"].value, "class data"))
    try:
        th = theta(spec, S, T, r)
        ann, acting = annihilation_check(th, module)
        fit, residual = fitting_membership_check(th, module, p, N)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc
    result = {
        "annihilation": ann,
        "fitting_membership": fit,
        "theta": th.to_json()["coefficients"],
    }
    witness = {"acting_matrix": acting, "fitting_residual": list(residual)}
    cert = {
        "command": "verify",
        "input": config.value,
        "check": "annihilation and minus-Fitting membership",
        "result": result,
        "witness": witness,
    }
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
        module_nodes, differential_nodes = obj["modules"].list(), obj["differentials"].list()

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
        from .complexes import BoundedComplex

        diffs = []
        for i, mat in enumerate(differential_nodes):
            if i + 1 >= len(modules):
                raise obj["differentials"].expected("one matrix per adjacent pair of modules")
            diffs.append(ModuleMap(modules[i], modules[i + 1], matrix(mat)))
        cx = BoundedComplex(alg, lo, modules, diffs)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, f"invalid complex: {exc}") from exc
    inv = cx.euler_fitting()
    result = {
        "degrees": [cx.lo, cx.hi],
        "cohomology_sizes": {str(i): cx.cohomology_size(i) for i in cx.degrees()},
        "acyclic": cx.is_acyclic(),
        "euler_fitting": {
            "numerator": [list(r) for r in inv.numerator.howell],
            "denominator": [list(r) for r in inv.denominator.howell],
        },
    }
    cert = {
        "command": "complex",
        "input": {k: v for k, v in config.value.items() if k != "complex_data"},
        "check": "complex ingestion and Euler-Fitting invariant",
        "result": result,
        "witness": None,
    }
    return cert, EXIT_OK


def run_selftest(config: wire.Node) -> tuple[dict, int]:
    data_dir = config.get("data_dir")
    data_dir = None if data_dir.value is None else data_dir.str()
    results = run_all(
        seed=config["seed"].int(),
        max_conductor=count(config["max_conductor"]),
        trials=count(config["trials"]),
        complex_trials=count(config["complex_trials"]),
        data_dir=Path(data_dir) if data_dir else None,
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


def run_recheck(path: str) -> tuple[dict, int]:
    cert = wire.load(path, f"certificate {path}")
    command = cert["command"].str()
    old_result = {"result": cert["result"].value, "witness": cert.get("witness").value}
    if command not in RUNNERS:
        raise CliError(EXIT_IO, f"unknown command {command!r} in certificate")
    new_cert, _ = RUNNERS[command](cert["input"])

    def verdicts(result) -> dict:
        drop = {"seconds"}
        if isinstance(result, dict):
            return {
                k: verdicts(v)
                for k, v in result.items()
                if k not in drop
            }
        if isinstance(result, list):
            return [verdicts(v) for v in result]
        return result

    new_result = {"result": new_cert["result"], "witness": new_cert.get("witness")}
    same = verdicts(old_result) == verdicts(new_result)
    report = {
        "command": "recheck",
        "input": {"certificate": path},
        "check": "certificate round trip",
        "result": {"matches": same},
        "witness": None,
    }
    return report, EXIT_OK if same else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point.

class ArgumentParser(argparse.ArgumentParser):
    """A usage error is a precondition violation with one JSON error, like
    every other refusal; subcommand parsers inherit this class."""

    def error(self, message):
        raise CliError(EXIT_PRECONDITION, f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "recheck":
            cert, code = run_recheck(args.certificate)
        else:
            cert, code = RUNNERS[args.command](wire.Node(configuration(args), "configuration"))
    except (CliError, wire.SchemaError) as exc:
        code = exc.code if isinstance(exc, CliError) else EXIT_IO
        print(json.dumps({"error": str(exc), "exit": code}), file=sys.stderr)
        return code
    except DualActionError as exc:
        report = {"error": str(exc), "exit": EXIT_CHECK_FAILED, "witness": list(exc.witness)}
        print(json.dumps(report), file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_PRECONDITION}), file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        emit(cert, getattr(args, "out", None))
    except BrokenPipeError:
        # The reader is gone: send what is left to devnull, so that the
        # interpreter's final flush of stdout cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        error = {"error": "stdout was closed before the certificate was written", "exit": EXIT_IO}
        print(json.dumps(error), file=sys.stderr)
        return EXIT_IO
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
