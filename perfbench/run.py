"""Benchmark of iwasawa-kit: one workload per invocation.

    python3 perfbench/run.py --workload character --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Every run starts fresh interpreters (``worker.py``) so the
package's caches start cold. With ``--trace 0`` the run reports the
end-to-end metrics: set-up time (median of several fresh starts), verdicts
per second, median and tail op latency over the rounds that take
``--seconds`` on the reference machine, and peak RSS. With ``--trace 1`` it
runs a fixed number of rounds twice, traced and untraced, checks that both
give the same verdicts and reports per-layer calls, counters and self times. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See DESIGN.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("character", "fitting", "tower")

# percentile reported as op_tail_ms: the highest of p99 and p90 leaving at
# least ten ops beyond it at the op count one run reaches on every workload
TAIL_PCT = 99
# fresh interpreters started per run, one after the other; each is a set-up
# time sample and measures an equal share of the rounds, so the metrics pool
# several processes and the machine's drift over the run
WORKERS = 10
# Seconds one round takes on the reference machine at the parent commit. A
# run measures round(seconds / ROUND_S) whole rounds, split over its
# workers: a fixed amount of work with the same inputs on every
# commit and at every machine speed.
ROUND_S = {"character": 1.25, "fitting": 0.42, "tower": 0.45}
# Seconds the calibration kernel of worker.py takes on the reference machine.
# The speed of this shared VM drifts by 15-30% from minute to minute; every
# time a worker measures is multiplied by CAL_REF_S / (the kernel time its
# calibrator, a separate interpreter on the same CPU that never imports the
# program, measures around it), which cancels most of the drift. Raw values
# are printed in the header line.
CAL_REF_S = 0.003
# rounds of the traced and of the untraced replay in a --trace 1 run
TRACE_ROUNDS = {"character": 6, "fitting": 20, "tower": 6}
DEADLINE_S = 170.0

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")

# (metric, unit): span calls and self seconds per layer, then counters
PER_LAYER = (
    ("exact.cyclotomic.calls", "count"), ("exact.cyclotomic.self_s", "s"),
    ("exact.bernoulli.calls", "count"), ("exact.bernoulli.self_s", "s"),
    ("exact.padic.calls", "count"), ("exact.padic.self_s", "s"),
    ("abelian.component.calls", "count"), ("abelian.component.self_s", "s"),
    ("groupring.mul.calls", "count"), ("groupring.mul.self_s", "s"),
    ("lvalues.theta.calls", "count"), ("lvalues.theta.self_s", "s"),
    ("lvalues.character_side.self_s", "s"),
    ("lvalues.gen_bernoulli.calls", "count"), ("lvalues.gen_bernoulli.distinct_ratio", "ratio"),
    ("linalg.howell.calls", "count"), ("linalg.howell.cells", "count"), ("linalg.howell.self_s", "s"),
    ("fitting.alg_mul.calls", "count"), ("fitting.alg_mul.self_s", "s"),
    ("fitting.algebra_build.calls", "count"), ("fitting.algebra_build.self_s", "s"),
    ("fitting.algebra_build.distinct_ratio", "ratio"),
    ("fitting.fitting_ideal.calls", "count"), ("fitting.fitting_ideal.minors", "count"),
    ("fitting.fitting_ideal.gens", "count"), ("fitting.fitting_ideal.relations", "count"),
    ("fitting.fitting_ideal.self_s", "s"),
    ("fitting.ideal_cmp.calls", "count"), ("fitting.ideal_cmp.self_s", "s"),
    ("fitting.subquotient.calls", "count"), ("fitting.subquotient.self_s", "s"),
    ("fitting.qp_certificate.accept_ratio", "ratio"),
    ("oracles.enumerate.calls", "count"), ("oracles.enumerate.elements", "count"),
    ("oracles.enumerate.self_s", "s"),
    ("complexes.cohomology.calls", "count"), ("complexes.cohomology.self_s", "s"),
    ("tower.theta_tower.calls", "count"), ("tower.theta_tower.self_s", "s"),
    ("tower.checks.self_s", "s"),
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("op.self_s", "s"), ("op.wall_s", "s"),
    ("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
    ("trace.self_share", "ratio"),
)
COUNTERS = {
    "linalg.howell.cells", "fitting.fitting_ideal.minors", "fitting.fitting_ideal.gens",
    "fitting.fitting_ideal.relations", "oracles.enumerate.elements",
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed, self.seconds, self.workdir = workload, seed, seconds, workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.count = 0
        # Compile the bytecode first (a no-op when it is up to date), so every
        # worker imports warm bytecode, also where the environment keeps
        # Python from writing __pycache__ (PYTHONDONTWRITEBYTECODE).
        proc = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                              env=self.env, capture_output=True, text=True, timeout=DEADLINE_S)
        if proc.returncode != 0:
            raise BenchError(f"compileall exited {proc.returncode}: {proc.stdout[-2000:]}")

    def worker(self, mode: str, **extra) -> dict:
        self.count += 1
        wdir = self.workdir / f"w{self.count}"
        wdir.mkdir()
        result = wdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--root", str(ROOT),
               "--workdir", str(wdir), "--result", str(result)]
        for key, value in extra.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(result.read_text())
        out["setup_s"] = out["t_ready"] - t_spawn
        return out


def tail(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def op_scales(run: dict) -> list[float]:
    """Per op: CAL_REF_S / the mean of the kernel times measured just before
    and just after it."""
    cal, at = run["cal_s"], run["cal_at"]
    scales = []
    for j in range(len(cal) - 1):
        scales += [2 * CAL_REF_S / (cal[j] + cal[j + 1])] * (at[j + 1] - at[j])
    return scales


def timings(runs: list[dict], pct: int, scaled: bool = True) -> dict:
    """The timing metrics, with every time rescaled to the reference speed
    unless ``scaled`` is false: set-up by the kernel time measured right
    after it, each op by the kernel times around it."""
    def setup(run):
        return run["setup_s"] * (CAL_REF_S / run["cal_s"][0] if scaled else 1.0)

    lat = []
    for run in runs:
        ops = run["latencies"]
        lat += [x * f for x, f in zip(ops, op_scales(run))] if scaled else ops
    return {
        "setup_s": statistics.median(setup(run) for run in runs),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail(lat, pct) * 1e3,
    }


def end_to_end(runner: Runner) -> tuple[dict, dict, dict]:
    rounds = max(1, round(runner.seconds / ROUND_S[runner.workload] / WORKERS))
    runs = [runner.worker("measure", rounds=rounds, first_round=j, round_step=WORKERS) for j in range(WORKERS)]
    pct = TAIL_PCT
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in timings(runs, pct).items()}
    metrics["peak_rss_mb"] = (max(run["peak_rss_kb"] for run in runs) / 1024, "MB")
    ops = sum(len(run["latencies"]) for run in runs)
    info = {"tail_pct": pct, "ops_beyond_tail": int(ops * (100 - pct) / 100),
            "raw": timings(runs, pct, False),
            "speed": [CAL_REF_S / statistics.median(run["cal_s"]) for run in runs]}
    return metrics, info, {"statuses": [x for run in runs for x in run["statuses"]]}


def cli_import_s(runner: Runner, pairs: int = 9) -> float:
    """Start-to-exit time of `import iwasawa_kit.cli` minus that of a bare
    start: the median over back-to-back pairs, which share the machine's
    speed of the moment."""
    def timed(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=runner.env, check=True,
                       timeout=max(1.0, runner.deadline - time.monotonic()))
        return time.perf_counter() - t0

    return statistics.median(timed("import iwasawa_kit.cli") - timed("pass") for _ in range(pairs))


def per_layer(runner: Runner) -> tuple[dict, dict, dict]:
    rounds = TRACE_ROUNDS[runner.workload]
    traced = runner.worker("trace", rounds=rounds)
    plain = runner.worker("replay", rounds=rounds)
    spans, counts, distinct = traced["spans"], traced["counts"], traced["distinct"]

    def ratio(a, b):
        return a / b if b else 0.0

    op = spans.get("op", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    # layer spans nest inside op spans, so this share is at most 1 by
    # construction; the op spans themselves are checked against the latencies
    # the worker timed around them
    layer_self = sum(row["self_s"] for name, row in spans.items() if name != "op")
    values = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in COUNTERS:
            values[name] = counts.get(name, 0)
        elif kind in ("calls", "self_s"):
            values[name] = spans.get(layer, {}).get(kind, 0)
    values["lvalues.gen_bernoulli.distinct_ratio"] = ratio(*distinct.get("lvalues.gen_bernoulli", (0, 0)))
    values["fitting.algebra_build.distinct_ratio"] = ratio(*distinct.get("fitting.algebra_build", (0, 0)))
    values["fitting.qp_certificate.accept_ratio"] = ratio(
        counts.get("fitting.qp_certificate.accepted", 0), counts.get("fitting.qp_certificate.attempted", 0))
    values["cli.import_s"] = cli_import_s(runner) if runner.workload == "tower" else 0.0
    values["op.wall_s"] = op["total_s"]
    values["trace.ops_per_s"] = ratio(len(traced["latencies"]), traced["loop_s"])
    values["trace.untraced_ops_per_s"] = ratio(len(plain["latencies"]), plain["loop_s"])
    values["trace.self_share"] = ratio(layer_self, op["total_s"])
    units = dict(PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in PER_LAYER}
    timed = sum(traced["latencies"])
    checks = {
        "same_verdicts": traced["verdicts"] == plain["verdicts"],
        **traced["checks"],
        "op_spans_match_latencies": abs(op["total_s"] - timed) <= 0.01 * timed,
    }
    info = {"rounds": rounds, "checks": checks, "missing_targets": traced["missing"],
            "spans": {k: spans[k] for k in sorted(spans)}}
    return metrics, info, traced


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "processor": platform.processor()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "iwasawa_kit" / "__init__.py").is_file():
        print(f"perfbench: no iwasawa_kit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, workdir)
        if args.trace:
            metrics, info, run = per_layer(runner)
        else:
            metrics, info, run = end_to_end(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    statuses = run["statuses"]
    by_status = {s: statuses.count(s) for s in sorted(set(statuses))}
    correct = "wrong" not in by_status and all(info.get("checks", {}).values())
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": len(statuses), "by_status": by_status, **info, "env": environment()}
    print(json.dumps(header))
    print(json.dumps({
        "correct": correct,
        "attempted": len(statuses),
        "failed": len(statuses) - by_status.get("ok", 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
