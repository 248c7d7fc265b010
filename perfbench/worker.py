"""One fresh interpreter running one workload; started by ``run.py``.

Modes:
  measure    build, then time --rounds rounds: --first-round, --first-round +
             --round-step, ..., so that the measuring workers of one run share
             no round;
  replay     build, then run exactly --rounds rounds and record the verdicts;
  trace      as replay, with the tracer installed around the timed loop;
  calibrate  serve the calibration kernel: read a line from stdin, time the
             kernel, write the seconds; stop at end of input.

Every worker first pins itself to the CPU it runs on. In measure mode it
starts a calibrator (this script in calibrate mode: a separate
interpreter that never imports iwasawa_kit, pinned to the same CPU) once
set-up is done, and asks it to time the kernel right away, then between ops
at least every CAL_EVERY_S and after the last op, so that ``run.py`` can
rescale each op to the reference machine speed. The worker waits while the
calibrator runs, so the two never compete for the CPU. The result is
written as JSON to --result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

CAL_EVERY_S = 0.25


def pin_to_current_cpu() -> None:
    """Keep this process and its children on one CPU. The speed of a vCPU of
    a shared machine drifts with its neighbours' load, independently of the
    other vCPUs, so the calibration kernel must run where the program runs."""
    try:
        sched_getcpu = ctypes.CDLL(None, use_errno=True).sched_getcpu
        sched_getcpu.argtypes, sched_getcpu.restype = [], ctypes.c_int
        cpu = sched_getcpu()
    except (OSError, AttributeError):
        cpu = -1
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})


def _kernel() -> int:
    """Fixed pure-Python work in the program's style: rationals, tuples, dicts."""
    acc, seen = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
        key = tuple((i * j) % 9 for j in range(6))
        seen[key] = seen.get(key, 0) + 1
    return acc.numerator + len(seen)


def calibrate() -> float:
    """Seconds the kernel takes now: the best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def serve_calibration() -> None:
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)


class Calibrator:
    """A calibrate-mode child: program state cannot reach its kernel."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", __file__, "--mode", "calibrate"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.times: list[float] = []
        self.at: list[int] = []

    def __call__(self, ops_done: int) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))
        self.at.append(ops_done)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def run_ops(workload, tracer, rounds: int, first: int = 0, step: int = 1,
            calibrator: Calibrator | None = None) -> dict:
    """Run whole rounds, calibrating between ops when there is a
    ``calibrator``; calibration pauses are in no latency."""
    latencies, statuses, verdicts = [], [], []
    op_id = tracer.name_id("op") if tracer else 0
    t_loop = t_cal = time.perf_counter()
    for k in range(rounds):
        for op in workload.round(first + k * step):
            t0 = time.perf_counter()
            idx = tracer.begin(op_id) if tracer else 0
            try:
                verdict, ok = workload.run(op)
                status = "ok" if ok else "wrong"
            except Exception as exc:  # a raised exception is a failed op
                verdict, status = ("exception", type(exc).__name__), "error"
            finally:
                if tracer:
                    tracer.end(idx)
            latencies.append(time.perf_counter() - t0)
            statuses.append(status)
            verdicts.append(repr(verdict))
            if calibrator and time.perf_counter() - t_cal >= CAL_EVERY_S:
                calibrator(len(latencies))
                t_cal = time.perf_counter()
    loop_s = time.perf_counter() - t_loop
    if calibrator and calibrator.at[-1] < len(latencies):
        calibrator(len(latencies))
    return {
        "loop_s": loop_s,
        "latencies": latencies,
        "statuses": statuses,
        "verdicts": verdicts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("measure", "replay", "trace", "calibrate"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--first-round", type=int, default=0)
    ap.add_argument("--round-step", type=int, default=1)
    ap.add_argument("--root")
    ap.add_argument("--workdir")
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    pin_to_current_cpu()
    if args.mode == "calibrate":
        serve_calibration()
        return 0

    root = Path(args.root)
    import workloads  # the script's directory is first on sys.path

    import iwasawa_kit

    src = (root / "src").resolve()
    if src not in Path(iwasawa_kit.__file__).resolve().parents:
        raise SystemExit(f"iwasawa_kit was imported from {iwasawa_kit.__file__}, not {src}")
    workload = workloads.make(args.workload, args.seed, root, Path(args.workdir))
    t_ready = time.monotonic()
    out: dict = {"t_ready": t_ready}
    calibrator = None
    if args.mode == "measure":
        calibrator = Calibrator()
        calibrator(0)
    try:
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out.update(run_ops(workload, tracer, args.rounds, args.first_round, args.round_step, calibrator))
        if tracer:
            out["checks"] = tracer.uninstall()
            out["spans"] = tracer.summary()
            out["counts"] = dict(tracer.counts)
            out["distinct"] = {k: [len(v), tracer.key_calls[k]] for k, v in tracer.keys.items()}
            out["missing"] = tracer.missing
    finally:
        if calibrator:
            calibrator.close()
            out["cal_s"], out["cal_at"] = calibrator.times, calibrator.at
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
