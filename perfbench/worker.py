"""One benchmark process: set up one workload, then run its op set.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads capped
at 1 and ``src`` on ``PYTHONPATH``.  Set-up imports qharm, builds the
workload's shared state and generates the inputs of its op set.  The process
then prints ``@perfbench ready`` (the parent times set-up from spawning the
interpreter to that line) and, unless ``--mode setup``, runs the op set with
one client and prints ``@perfbench result <json>``.

Modes:
  setup   set up, report ready, exit.
  timed   run the op set in rounds, in the same order each round, until
          the next round would end past --seconds, and at least MIN_ROUNDS
          rounds.  Between ops, after every REF_EVERY_S of op time, a slice
          of a fixed reference loop runs (outside the op timings).  The
          median slice time in a round, over REF_NOMINAL_S, is that
          round's host factor: how much slower the shared host ran than
          nominal.  (The median, because a slice that was preempted reads
          many times its length.)  Each op's time is the median over
          rounds of its time divided by that round's host factor.
  round   run the op set once; with --trace 1, wrap every qharm layer and
          report per-layer metrics.

Every worker times SETUP_REF_SLICES reference slices right after set-up
and reports their host factor (``@perfbench factor``), so that set-up
times can be scaled the same way.

After the ops, each of the workload's probes runs once.  A probe that raises
is a known defect and is reported; a probe that misses its oracle counts as
a wrong result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

MIN_ROUNDS = 3
REF_EVERY_S = 0.05  # op time between reference slices
SETUP_REF_SLICES = 150
# The reference slice's time on the host the benchmark was built on, in its
# fast state (Intel Xeon, Python 3.11, numpy 2.4).  A constant: it only sets
# the scale, so normalized times read as wall-clock times on that host.
REF_NOMINAL_S = 3.0e-4
_X = np.arange(8) + 1j
_Y = _X[::-1].copy()


def reference_slice() -> None:
    """Fixed work shaped like qharm's hot paths: small numpy calls driven
    from Python.  Its time tracks the shared host's speed, not qharm's."""
    for _ in range(100):
        a = np.abs(_X * _Y) + 1.0
        float(a.sum())


def reference_slice_s() -> float:
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


def host_factor(slice_s: list[float]) -> float:
    return statistics.median(slice_s) / REF_NOMINAL_S


def _say(tag: str, payload=None) -> None:
    line = f"@perfbench {tag}" if payload is None else f"@perfbench {tag} {json.dumps(payload)}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "round"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0, help="op set size; 0: the workload's")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    import qharm

    if Path(qharm.__file__).resolve().parent != root / "src" / "qharm":
        print(f"perfbench: imported qharm from {qharm.__file__}, not {root}/src", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    env = workloads.Env(work_dir)
    wl.setup(env)
    if tracer is not None and env.symbols:
        env.symbols = tracing.counted_symbols(env.symbols, tracer)
    ops = wl.ops(args.seed, env, args.ops or wl.set_size())
    probes = wl.probe_ops(args.seed, env)
    _say("ready")
    _say("factor", host_factor([reference_slice_s() for _ in range(SETUP_REF_SLICES)]))
    if args.mode == "setup":
        return 0

    rounds: list[list[float]] = []  # per round, each op's wall time
    op_failed = [False] * len(ops)
    kinds: dict[str, dict] = {}
    failures: dict[str, int] = {}
    wrong = 0
    executions = 0
    round_s: list[float] = []
    factors: list[float] = []
    timed = args.mode == "timed"
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        times = []
        slices: list[float] = []
        since = 0.0
        for i, (index, kind, op) in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            status = "pass"
            t0 = time.perf_counter()
            try:
                op()
            except workloads.OracleMiss as exc:
                status, detail = "wrong", f"{kind}: oracle miss: {exc}"
            except Exception as exc:  # a raised failure is counted, not fatal
                status, detail = "raised", f"{kind}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = None
            executions += 1
            times.append(dt)
            since += dt
            if timed and since >= REF_EVERY_S:
                slices.append(reference_slice_s())
                since = 0.0
            k = kinds.setdefault(kind, {"ops": 0, "failed": 0})
            k["ops"] += 1
            if status != "pass":
                op_failed[i] = True
                k["failed"] += 1
                wrong += status == "wrong"
                key = detail.splitlines()[0][:160]
                failures[key] = failures.get(key, 0) + 1
        if timed and not slices:
            slices.append(reference_slice_s())
        factor = host_factor(slices) if timed else 1.0
        factors.append(factor)
        rounds.append(times)
        now = time.perf_counter()
        round_s.append(now - r0)
        if args.mode == "round":
            break
        if len(round_s) >= MIN_ROUNDS and now - start + round_s[-1] > args.seconds:
            break

    defects = []
    for j, (name, probe) in enumerate(probes):
        if tracer is not None:
            tracer.op_id = -1 - j
        try:
            probe()
        except workloads.OracleMiss as exc:
            wrong += 1
            defects.append(f"{name}: oracle miss: {exc}")
        except Exception as exc:
            defects.append(f"{name}: {type(exc).__name__}: {exc}"[:160])
        finally:
            if tracer is not None:
                tracer.op_id = None

    result = {
        # each op's median over rounds, scaled by the host factor and not
        "op_s": [statistics.median(t / f for t, f in zip(ts, factors)) for ts in zip(*rounds)],
        "raw_op_s": [statistics.median(ts) for ts in zip(*rounds)],
        "host_factors": factors,
        "ops": len(ops),
        "ops_failed": sum(op_failed),
        "rounds": len(round_s),
        "round_s": round_s,
        "attempted": executions,
        "failed": sum(k["failed"] for k in kinds.values()),
        "wrong": wrong,
        "kinds": kinds,
        "failures": failures,
        "defects": defects,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    _say("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
