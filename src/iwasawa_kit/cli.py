"""Command-line driver: theta / tower / verify / fitting / complex / selftest
/ recheck, emitting JSON certificates that embed their full configuration so
every run is replayable.

Exit codes: 0 success, 2 precondition violation, 3 mathematical check
failure, 4 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .abelian import AbelianFieldSpec, check_hyp
from .campaigns import complex_campaigns, fitting_campaigns, run_all
from .fitting import FiniteCommAlgebra, FinPresModule, ModuleMap
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
            return AbelianFieldSpec.from_json(json.loads(text))
        path = Path(text)
        if not path.exists():
            raise CliError(EXIT_IO, f"spec file not found: {text}")
        return AbelianFieldSpec.from_json(json.loads(path.read_text()))
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise CliError(EXIT_IO, f"bad spec {text}: {exc}") from exc


def parse_places(text: str) -> list:
    if not text:
        return []
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("oo", "inf"):
            out.append("oo")
        else:
            try:
                out.append(int(token))
            except ValueError as exc:
                raise CliError(EXIT_IO, f"bad place {token!r}") from exc
    return out


def places_json(places) -> list[str]:
    return [str(v) for v in places]


# ---------------------------------------------------------------------------
# Reading a configuration: main builds it from argv, recheck reads it from a
# certificate, so every field's JSON type is checked (exit 4 otherwise).

def config_int(config: dict, key: str) -> int:
    value = config[key]
    if type(value) is not int:
        raise CliError(EXIT_IO, f"configuration field {key} must be an integer, got {value!r}")
    return value


def field_config(config: dict) -> tuple[AbelianFieldSpec, list, list, int]:
    """The spec, S, T and r shared by theta, tower and verify."""
    try:
        spec = AbelianFieldSpec.from_json(config["spec"])
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_IO, f"bad spec in configuration: {exc}") from exc
    places = []
    for key in ("S", "T"):
        value = config[key]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise CliError(EXIT_IO, f"configuration field {key} must be a list of strings")
        places.append(parse_places(",".join(value)))
    return spec, places[0], places[1], config_int(config, "r")


def emit(cert: dict, out: str | None) -> None:
    text = json.dumps(cert, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# Runners: each returns (certificate dict, exit code).

def run_theta(config: dict) -> tuple[dict, int]:
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
        "input": config,
        "check": "theta_S^T(r)",
        "result": result,
        "witness": None,
    }
    code = EXIT_CHECK_FAILED if (hyp and T and not integral) else EXIT_OK
    return cert, code


def run_tower(config: dict) -> tuple[dict, int]:
    spec, S, T, r = field_config(config)
    p, N, n_max = (config_int(config, k) for k in ("p", "N", "levels"))
    strict = bool(config.get("strict_hyp", False))
    if r != 0 and N > n_max + 1:
        raise CliError(
            EXIT_PRECONDITION,
            f"precision budget: the congruence at modulus p^{N} needs levels "
            f"up to n >= {N - 1}, got n_max = {n_max}",
        )
    replay = config.get("replay")
    if replay is not None:
        try:
            t = TowerElement.from_json(replay)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_IO, f"bad tower file: {exc}") from exc

        def place_set(places):
            return set(parse_places(",".join(map(str, places))))

        stored = {"p": t.p, "N": t.N, "spec": t.spec, "S": place_set(t.S),
                  "T": place_set(t.T), "r": t.r, "levels": t.n_max}
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
        "input": {k: v for k, v in config.items() if k != "replay"},
        "check": "tower coherence and Kummer congruence",
        "result": result,
        "witness": witness,
    }
    ok = coherent and result.get("twist_congruent", True)
    return cert, EXIT_OK if ok else EXIT_CHECK_FAILED


def run_verify(config: dict) -> tuple[dict, int]:
    spec, S, T, r = field_config(config)
    p, N = config_int(config, "p"), config_int(config, "N")
    try:
        module = ClassModuleData.from_json(config["class_data"])
    except (TypeError, AttributeError) as exc:
        raise CliError(EXIT_IO, f"bad class data: {exc}") from exc
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
        "input": config,
        "check": "annihilation and minus-Fitting membership",
        "result": result,
        "witness": witness,
    }
    return cert, EXIT_OK if (ann and fit) else EXIT_CHECK_FAILED


def run_fitting(config: dict) -> tuple[dict, int]:
    results = fitting_campaigns(config_int(config, "seed"), config_int(config, "trials"))
    payload = [r.to_json() for r in results]
    cert = {
        "command": "fitting",
        "input": config,
        "check": "fitting lemma property campaigns",
        "result": {"suites": payload, "ok": all(r["ok"] for r in payload)},
        "witness": None,
    }
    return cert, EXIT_OK if cert["result"]["ok"] else EXIT_CHECK_FAILED


def run_complex(config: dict) -> tuple[dict, int]:
    if config.get("complex_data") is not None:
        return _run_complex_file(config)
    results = complex_campaigns(config_int(config, "seed"), config_int(config, "trials"))
    payload = [r.to_json() for r in results]
    cert = {
        "command": "complex",
        "input": config,
        "check": "complex-calculus property campaigns",
        "result": {"suites": payload, "ok": all(r["ok"] for r in payload)},
        "witness": None,
    }
    return cert, EXIT_OK if cert["result"]["ok"] else EXIT_CHECK_FAILED


def _run_complex_file(config: dict) -> tuple[dict, int]:
    obj = config["complex_data"]
    try:
        alg = FiniteCommAlgebra.from_json(obj["algebra"])
        alg.validate()
        lo = int(obj["degrees"][0])
        modules = [
            FinPresModule(alg, int(m["ngens"]), [[tuple(e) for e in row] for row in m["relations"]])
            for m in obj["modules"]
        ]
        from .complexes import BoundedComplex

        diffs = []
        for i, mat in enumerate(obj["differentials"]):
            diffs.append(
                ModuleMap(modules[i], modules[i + 1], [[tuple(e) for e in row] for row in mat])
            )
        cx = BoundedComplex(alg, lo, modules, diffs)
    except (KeyError, IndexError, TypeError) as exc:
        raise CliError(EXIT_IO, f"bad complex file: {exc}") from exc
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
        "input": {k: v for k, v in config.items() if k != "complex_data"},
        "check": "complex ingestion and Euler-Fitting invariant",
        "result": result,
        "witness": None,
    }
    return cert, EXIT_OK


def run_selftest(config: dict) -> tuple[dict, int]:
    data_dir = config.get("data_dir")
    if data_dir is not None and not isinstance(data_dir, str):
        raise CliError(EXIT_IO, f"configuration field data_dir must be a path, got {data_dir!r}")
    results = run_all(
        seed=config_int(config, "seed"),
        max_conductor=config_int(config, "max_conductor"),
        trials=config_int(config, "trials"),
        complex_trials=config_int(config, "complex_trials"),
        data_dir=Path(data_dir) if data_dir else None,
    )
    payload = [r.to_json() for r in results]
    cert = {
        "command": "selftest",
        "input": config,
        "check": "all module property suites",
        "result": {"suites": payload, "ok": all(r["ok"] for r in payload)},
        "witness": None,
    }
    return cert, EXIT_OK if cert["result"]["ok"] else EXIT_CHECK_FAILED


RUNNERS = {
    "theta": run_theta,
    "tower": run_tower,
    "verify": run_verify,
    "fitting": run_fitting,
    "complex": run_complex,
    "selftest": run_selftest,
}


def run_recheck(path: str) -> tuple[dict, int]:
    try:
        cert = json.loads(Path(path).read_text())
        command = cert["command"]
        config = cert["input"]
        old_result = {"result": cert["result"], "witness": cert.get("witness")}
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(EXIT_IO, f"bad certificate {path}: {exc}") from exc
    if not isinstance(command, str) or command not in RUNNERS:
        raise CliError(EXIT_IO, f"unknown command {command!r} in certificate")
    if not isinstance(config, dict):
        raise CliError(EXIT_IO, f"certificate input must be a JSON object, got {config!r}")
    new_cert, _ = RUNNERS[command](config)

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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "recheck":
            cert, code = run_recheck(args.certificate)
        elif args.command in ("theta", "tower", "verify"):
            spec = parse_spec(args.spec)
            config = {
                "spec": spec.to_json(),
                "S": places_json(parse_places(args.S)),
                "T": places_json(parse_places(args.T)),
                "r": args.r,
            }
            if args.command == "theta":
                cert, code = run_theta(config)
            elif args.command == "tower":
                config.update(
                    {
                        "p": args.p,
                        "N": args.N,
                        "levels": args.levels,
                        "strict_hyp": args.strict_hyp,
                    }
                )
                if args.data:
                    try:
                        config["replay"] = json.loads(Path(args.data).read_text())
                    except (OSError, json.JSONDecodeError) as exc:
                        raise CliError(EXIT_IO, f"bad tower file: {exc}") from exc
                cert, code = run_tower(config)
            else:
                config.update({"p": args.p, "N": args.N})
                try:
                    config["class_data"] = json.loads(Path(args.data).read_text())
                except (OSError, json.JSONDecodeError) as exc:
                    raise CliError(EXIT_IO, f"bad class data file: {exc}") from exc
                cert, code = run_verify(config)
        elif args.command == "fitting":
            cert, code = run_fitting({"seed": args.seed, "trials": args.trials})
        elif args.command == "complex":
            config = {"seed": args.seed, "trials": args.trials}
            if args.data:
                try:
                    config["complex_data"] = json.loads(Path(args.data).read_text())
                except (OSError, json.JSONDecodeError) as exc:
                    raise CliError(EXIT_IO, f"bad complex file: {exc}") from exc
            cert, code = run_complex(config)
        elif args.command == "selftest":
            cert, code = run_selftest(
                {
                    "seed": args.seed,
                    "max_conductor": args.max_conductor,
                    "trials": args.trials,
                    "complex_trials": args.complex_trials,
                    "data_dir": args.data_dir,
                }
            )
        else:  # pragma: no cover
            raise CliError(EXIT_IO, f"unknown command {args.command}")
    except CliError as exc:
        print(json.dumps({"error": str(exc), "exit": exc.code}), file=sys.stderr)
        return exc.code
    except KeyError as exc:
        print(json.dumps({"error": f"missing field {exc}", "exit": EXIT_IO}), file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_PRECONDITION}), file=sys.stderr)
        return EXIT_PRECONDITION
    emit(cert, getattr(args, "out", None))
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
