"""The qharm benchmark: one command, one workload, one seeded run.

    python3 perfbench/run.py --workload diagonal --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Ops run in fresh interpreters started here, one client in a closed loop,
with BLAS/OpenMP threads capped at 1.

``--trace 0`` prints the end-to-end metrics.  One worker runs the
workload's op set in rounds for ``--seconds``; each op's time is its median
round, scaled by the host factor (see worker.py).  Set-up is timed in that
worker and in ``SETUP_BEFORE`` and ``SETUP_AFTER`` set-up-only workers
around it, each scaled by its own host factor; ``setup_s`` is the median.
``--trace 1`` prints the per-layer metrics: the op set runs once untraced
and twice traced, and the two traced runs must repeat every count exactly.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` and ``failed`` count op
executions over all rounds.  ``correct`` is false when an output missed its
oracle or a traced count did not repeat; ops that raised are ``failed``.
The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402  (only the layer names; no qharm import)

WORKLOADS = ("diagonal", "wide_kernel_lattice")
# set-up-only workers before and after the timed one: with its own, nine
# set-up samples spread over the run
SETUP_BEFORE = 4
SETUP_AFTER = 4
THREAD_CAPS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
WORK_DIR = ROOT / ".perfbench"
RUN_BUDGET_S = 170.0  # every worker of one run is killed past this

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in
       (("calls", "count"), ("self_s", "s"), ("failed", "count"))},
    "radial.radial_fourier.calls": "count",
    "radial.radial_fourier.self_s": "s",
    "radial.crowns": "count",
    "radial.profiles_built": "count",
    "radial.fourier_multiplier_apply.calls": "count",
    "radial.ext_crowns": "count",
    "calculus.symbol_evals": "count",
    "evolution.max_regularity_report.self_s": "s",
    "evolution.solve_master_rk4.self_s": "s",
    "evolution.solve_master.self_s": "s",
    "taibleson.taibleson_hypersingular.self_s": "s",
    "kernel.kernel_exp_form.calls": "count",
    "kernel.kernel_exp_form.self_s": "s",
    "kernel.kernel_l1_norm.self_s": "s",
    "kernel.kernel_series.failed": "count",
    "gamma.gamma_qn.calls": "count",
    "verification.kernel_sweep_rows.self_s": "s",
    "field.QuotientLattice.add.calls": "count",
    "vilenkin.cosets": "count",
    "taibleson.taibleson_hypersingular_lattice.self_s": "s",
    "trace.ops": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}
ALIASES = {"radial.profiles_built": "radial.RadialProfile.__post_init__.calls"}


DEADLINE = time.monotonic() + RUN_BUDGET_S


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Setup(NamedTuple):
    wall_s: float  # interpreter start to ready
    factor: float  # the worker's host factor, timed right after set-up


def run_worker(workload: str, seed: int, mode: str, work_dir: Path, *, seconds=0.0,
               ops=0, trace=0, spans: Path | None = None) -> tuple[Setup, dict | None]:
    """Start one worker; return (its set-up, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--ops", str(ops), "--trace", str(trace), "--work-dir", str(work_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=ROOT)
    killer = threading.Timer(max(1.0, DEADLINE - time.monotonic()), proc.kill)
    killer.start()
    setup_s = None
    factor = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("@perfbench ready"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("@perfbench factor "):
                factor = float(line[len("@perfbench factor "):])
            elif line.startswith("@perfbench result "):
                result = json.loads(line[len("@perfbench result "):])
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or factor is None or (mode != "setup" and result is None):
        raise BenchError(f"worker {mode} for {workload} exited with code {code}")
    return Setup(setup_s, factor), result


def _busy(result: dict, key: str = "op_s") -> float:
    return sum(result[key])


def _passed_per_s(result: dict, key: str = "op_s") -> float:
    return (result["ops"] - result["ops_failed"]) / _busy(result, key)


def _timings(result: dict, setups: list, key: str, scaled: bool) -> dict:
    op_s = result[key]
    return {
        "ops_per_s": _passed_per_s(result, key),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p90_ms": statistics.quantiles(op_s, n=10)[8] * 1e3,
        "setup_s": statistics.median(s.wall_s / (s.factor if scaled else 1.0) for s in setups),
    }


def end_to_end(workload: str, seed: int, seconds: float, work_dir: Path,
               ops: int = 0) -> tuple[dict, dict]:
    setups = [run_worker(workload, seed, "setup", work_dir, ops=ops)[0]
              for _ in range(SETUP_BEFORE)]
    setup_s, res = run_worker(workload, seed, "timed", work_dir, seconds=seconds, ops=ops)
    setups.append(setup_s)
    setups += [run_worker(workload, seed, "setup", work_dir, ops=ops)[0]
               for _ in range(SETUP_AFTER)]
    metrics = _timings(res, setups, "op_s", scaled=True)
    metrics["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
    res["raw"] = _timings(res, setups, "raw_op_s", scaled=False)
    res["setup_factors"] = [s.factor for s in setups]
    return metrics, res


def per_layer(workload: str, seed: int, work_dir: Path,
              ops: int = 0) -> tuple[dict, dict, bool]:
    _, base = run_worker(workload, seed, "round", work_dir, ops=ops)
    spans = work_dir.parent / f"spans-{workload}.tsv"
    _, traced = run_worker(workload, seed, "round", work_dir, ops=ops, trace=1, spans=spans)
    _, again = run_worker(workload, seed, "round", work_dir, ops=ops, trace=1)
    layers = traced["layers"]
    repeat_ok = _counts(layers) == _counts(again["layers"])
    metrics = {k: _layer_value(layers, k) for k in PER_LAYER if not k.startswith("trace.")}
    metrics["trace.ops"] = traced["ops"]
    metrics["trace.ops_per_s"] = _passed_per_s(traced, "raw_op_s")
    metrics["trace.untraced_ops_per_s"] = _passed_per_s(base, "raw_op_s")
    metrics["trace.overhead_ratio"] = _busy(traced, "raw_op_s") / _busy(base, "raw_op_s")
    return metrics, traced, repeat_ok


def _counts(layers: dict) -> dict:
    """Everything a traced run counts: all of its metrics but the times."""
    return {k: v for k, v in layers.items() if not k.endswith(".self_s")}


def _layer_value(layers: dict, key: str):
    return layers.get(ALIASES.get(key, key), 0)


def run_record(workload: str, seed: int, seconds: float, res: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": res["python"],
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "thread_caps": THREAD_CAPS,
        "op_set": res["ops"],
        "op_set_by_kind": {k: v["ops"] // res["rounds"] for k, v in res["kinds"].items()},
        "rounds": res["rounds"],
        "round_s": [round(t, 4) for t in res["round_s"]],
        "host_factors": [round(f, 4) for f in res["host_factors"]],
        "executions": res["attempted"],
        "known_defects": res["defects"],
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from its own .git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="op set size (default: the workload's); for smoke tests")
    args = ap.parse_args(argv)
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_BUDGET_S
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "qharm" / "__init__.py").is_file():
        print(f"perfbench: no qharm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_dir = WORK_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, res, repeat_ok = per_layer(args.workload, args.seed, work_dir, args.ops)
            units = PER_LAYER
        else:
            metrics, res = end_to_end(args.workload, args.seed, args.seconds, work_dir,
                                      args.ops)
            repeat_ok = True
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    print("record " + json.dumps(run_record(args.workload, args.seed, args.seconds, res)))
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]!r} {unit}")
    print(f"{'fail_frac':48s} {failed / attempted!r} 1 ({failed} of {attempted} op runs)")
    for what, count in sorted(res["failures"].items()):
        print(f"  failed x{count}: {what}")
    for what in res["defects"]:
        print(f"known defect (probe, not an op): {what}")
    if args.trace:
        print(f"traced counts repeat exactly: {repeat_ok}")
    else:
        print(f"latency samples: {res['ops']} ops, each the median of {res['rounds']} rounds")
        for name, value in res["raw"].items():
            print(f"{'unscaled ' + name:48s} {value!r} {units[name]}")
        factors = res["host_factors"] + res["setup_factors"]
        print(f"host factors: {min(factors):.3f} to {max(factors):.3f}")
    print(json.dumps({
        "correct": res["wrong"] == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still kills and reaps its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
