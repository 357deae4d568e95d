"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import fractions
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qharm.radial import RadialProfile  # noqa: E402
from qharm.vilenkin import QuotientFunction  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_OPS = 3


def _tiny_run(monkeypatch, workload: str, trace: int) -> tuple[dict, str]:
    monkeypatch.setattr(run, "SETUP_BEFORE", 1)
    monkeypatch.setattr(run, "SETUP_AFTER", 0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace), "--ops", str(TINY_OPS)])
    assert code == 0
    text = out.getvalue()
    return json.loads(text.splitlines()[-1]), text


def test_benchmark_json_matches_the_harness():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(monkeypatch, workload, trace):
    result, text = _tiny_run(monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # one round when traced; otherwise the minimum number of rounds
    assert result["attempted"] == TINY_OPS * (1 if trace else worker.MIN_ROUNDS)
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace:
        assert "traced counts repeat exactly: True" in text
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_frac" in text and text.splitlines()[0].startswith("record {")


def test_host_factor_ignores_a_preempted_slice():
    slices = [worker.REF_NOMINAL_S * 1.5] * 9 + [1.0]
    assert worker.host_factor(slices) == pytest.approx(1.5)


def _fingerprint(op) -> str:
    """The inputs an op closed over, as text (arrays by value)."""
    parts = []

    def walk(v):
        if isinstance(v, RadialProfile):
            parts.append(f"P{v.kmin},{v.kmax},{v.tail!r}")
            walk(v.coeffs)
        elif isinstance(v, QuotientFunction):
            walk(v.values)
        elif isinstance(v, np.ndarray):
            parts.append(v.tobytes().hex())
        elif isinstance(v, (list, tuple)):
            for x in v:
                walk(x)
        elif isinstance(v, Path) and v.suffix == ".ini":
            parts.append(v.read_text())
        elif isinstance(v, (int, float, complex, str, fractions.Fraction)):
            parts.append(repr(v))
        elif hasattr(v, "breakpoints"):
            walk(v.breakpoints)
            walk(v.profiles)

    for cell in op.__closure__ or ():
        walk(cell.cell_contents)
    return "|".join(parts)


def _sequence(workload: str, seed: int, tmp_path: Path, n: int = 40):
    wl = workloads.WORKLOADS[workload]
    env = workloads.Env(tmp_path)
    wl.setup(env)
    out = []
    for index, kind, op in wl.op_sequence(seed, env):
        if index >= n:
            break
        out.append((kind, _fingerprint(op)))
    return out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_ops(workload, tmp_path):
    assert _sequence(workload, 5, tmp_path) == _sequence(workload, 5, tmp_path)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_other_seed_changes_inputs_not_mix(workload, tmp_path):
    a = _sequence(workload, 5, tmp_path)
    b = _sequence(workload, 6, tmp_path)
    assert [k for k, _ in a] == [k for k, _ in b]
    differ = sum(fa != fb for (_, fa), (_, fb) in zip(a, b))
    assert differ > 0.9 * len(a)


def _shape(op) -> list:
    """What sets an op's cost: field parameters, window lengths, lattice sizes."""
    parts = []

    def walk(v):
        if isinstance(v, RadialProfile):
            parts.append((v.params, v.kmax - v.kmin))
        elif isinstance(v, QuotientFunction):
            parts.append(v.lattice.size)
        elif isinstance(v, (list, tuple)):
            for x in v:
                walk(x)
        elif hasattr(v, "breakpoints"):
            walk(v.profiles)

    for cell in op.__closure__ or ():
        walk(cell.cell_contents)
    return parts


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_other_seed_keeps_the_cost_mix(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]
    env = workloads.Env(tmp_path)
    wl.setup(env)
    a, b = (wl.ops(seed, env, 120) for seed in (5, 6))
    assert [_shape(op) for _, _, op in a] == [_shape(op) for _, _, op in b]


def test_op_set_is_whole_cycles():
    for wl in workloads.WORKLOADS.values():
        cyc = wl.cycle()
        assert {k: cyc.count(k) for k in wl.weights} == wl.weights
        # at least 10 latency samples lie beyond p90
        assert wl.set_size() % len(cyc) == 0 and wl.set_size() >= 100


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "diagonal", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
