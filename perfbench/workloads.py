"""The seeded, oracle-checked workloads of the qharm benchmark.

An op is one seeded input, run through the library and checked against an
independent oracle.  Each op kind is a generator ``make(ctx) -> op``: it
draws its inputs from ``ctx`` (outside any timing) and returns a zero-argument
callable that runs the library and checks the result.  The callable raises
:class:`OracleMiss` when an output misses its oracle; any other exception
escaping it is a raised failure.  Typed errors that an op expects (for
example ``CancellationError`` from ``kernel_series`` outside its guard
region) are handled inside the op and are not failures.

Every tolerance comes from ``qharm.verification``; where an oracle has no
``TOL_*`` constant, the value is the one the repository's own tests use for
the same check, and says so.

Op kinds follow a fixed cycle per workload, so a different seed changes the
inputs but never the op-kind mix.  The choices that set an op's cost (field
parameters, lattice sizes, window lengths, the modulus of z) are not left to
chance: each kind walks its options in a fixed order, takes window lengths
from a fixed grid and draws |z| within fixed strata, so every seed gives a
run the same cost mix and only the values inside it change.

A workload's op set is ``set_cycles`` whole cycles; a timed run repeats that
set in rounds.  Probes are calls outside the op set that exercise a known
defect: they run once after the ops, and their outcome is reported but not
counted as an op.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qharm import (
    calculus,
    cli,
    evolution,
    field as qfield,
    gamma,
    kernel,
    radial,
    taibleson,
    verification as V,
    vilenkin,
)
from qharm.errors import CancellationError
from qharm.field import FieldModel, FieldParams, QuotientLattice
from qharm.radial import RadialProfile


class OracleMiss(AssertionError):
    """An op's output disagreed with its oracle."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMiss(what)


@dataclass
class Env:
    """Per-process state built during set-up and shared by every op."""

    work_dir: Path
    symbols: list = field(default_factory=list)
    lattices: list = field(default_factory=list)


@dataclass
class OpContext:
    """Where an op's inputs come from: the run seed and the op's position."""

    seed: int
    index: int
    kind: str
    occurrence: int  # how many ops of this kind came before this one
    env: Env

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng([self.seed, self.index])

    def pick(self, options):
        """Balanced choice: each block of len(options) occurrences of this
        kind visits every option exactly once, in a fixed order."""
        return options[self.occurrence % len(options)]

    def level(self, m: int, every: int) -> int:
        """Stratum in [0, m) for this occurrence, stepping once per ``every``
        occurrences (pass the number of options picked, so strata and
        options cross)."""
        return (self.occurrence // every) % m

    def stratified(self, m: int, every: int) -> float:
        """A uniform draw in [0, 1) confined to stratum ``level(m, every)``."""
        return (self.level(m, every) + float(self.rng.uniform())) / m


PROBE_INDEX = 2**31  # probes draw from [seed, PROBE_INDEX + j], past any op index


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: dict  # kind name -> generator(ctx) -> op
    weights: dict  # kind name -> ops of that kind per cycle
    setup: Callable[[Env], None]
    set_cycles: int  # cycles in the op set that a timed run repeats
    probes: dict = field(default_factory=dict)  # name -> generator(ctx) -> op

    def set_size(self) -> int:
        return self.set_cycles * sum(self.weights.values())

    def cycle(self) -> tuple[str, ...]:
        """One cycle of op kinds, each kind spread evenly across it
        (smooth weighted round robin, deterministic)."""
        total = sum(self.weights.values())
        credit = {k: 0 for k in self.weights}
        out = []
        for _ in range(total):
            for k, w in self.weights.items():
                credit[k] += w
            best = max(credit, key=lambda k: credit[k])
            credit[best] -= total
            out.append(best)
        return tuple(out)

    def op_sequence(self, seed: int, env: Env):
        """Yield (index, kind, op) for ops 0, 1, 2, ... of this seed."""
        cyc = self.cycle()
        seen = {k: 0 for k in self.weights}
        index = 0
        while True:
            kind = cyc[index % len(cyc)]
            ctx = OpContext(seed, index, kind, seen[kind], env)
            seen[kind] += 1
            yield index, kind, self.kinds[kind](ctx)
            index += 1

    def ops(self, seed: int, env: Env, count: int) -> list:
        """The first ``count`` ops of this seed, as (index, kind, op)."""
        seq = self.op_sequence(seed, env)
        return [next(seq) for _ in range(count)]

    def probe_ops(self, seed: int, env: Env) -> list:
        """(name, op) for each probe, with inputs drawn apart from the ops'."""
        return [
            (name, make(OpContext(seed, PROBE_INDEX + j, name, 0, env)))
            for j, (name, make) in enumerate(self.probes.items())
        ]


# -- shared input helpers -------------------------------------------------------


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _profile(rng, params, kmin, kmax, tail=0.0):
    return RadialProfile(params, kmin, kmax, _complex(rng, kmax - kmin + 1), tail=tail)


def _sup(f: RadialProfile) -> float:
    return max(float(np.max(np.abs(f.coeffs))), abs(f.tail))


def _sup_gap(a: RadialProfile, b: RadialProfile) -> float:
    """sup |a - b| over both windows and the inner tails."""
    kmin, kmax = min(a.kmin, b.kmin), max(a.kmax, b.kmax)
    pa, pb = a.padded(kmin, kmax), b.padded(kmin, kmax)
    return max(float(np.max(np.abs(pa.coeffs - pb.coeffs))), abs(pa.tail - pb.tail))


def _rel_l2(a: RadialProfile, ref: RadialProfile) -> float:
    return radial.lp_norm(a - ref, 2.0) / max(radial.lp_norm(ref, 2.0), 1e-300)


# -- diagonal: small-window Fourier-diagonal calculus -----------------------------

DIAG_PARAMS = (FieldParams(2, 1, 1.0), FieldParams(3, 2, 0.5), FieldParams(2, 2, 2.0))
# Windows sit where the largest eigenvalue q**((kmax+1)*alpha) is at most 16,
# as in the maxreg suite, so the fixed-step RK4 and trapezoid oracles are
# accurate on them.
DIAG_LAM_MAX = 16.0
SQUAREFN_L2 = math.sqrt(1.0 / 6.0)  # int_0^inf |t/(1+t)^2|^2 dt/t = 1/6
HOLDER_ROUNDING = 1e-12  # ||S||_2^2 <= ||S||_1.5 ||S||_3 is exact; allow rounding
RBOUND_TRIALS = 16


def _diag_window(ctx: OpContext, params: FieldParams) -> tuple[int, int]:
    """3-8 crowns ending 0-2 crowns below the top: lengths step through all
    six values per parameter set, then the offset steps."""
    top = math.floor(math.log(DIAG_LAM_MAX) / (params.alpha * math.log(params.q))) - 1
    m = len(DIAG_PARAMS)
    kmax = top - ctx.level(3, 6 * m)
    return kmax - (3 + ctx.level(6, m)) + 1, kmax


def _diag_profile(ctx: OpContext):
    params = ctx.pick(DIAG_PARAMS)
    kmin, kmax = _diag_window(ctx, params)
    return params, kmin, kmax, _profile(ctx.rng, params, kmin, kmax)


def diag_squarefn(ctx: OpContext):
    _params, _kmin, _kmax, g = _diag_profile(ctx)
    phi = ctx.env.symbols[0]

    def op():
        s2, s15, s3 = (calculus.square_function(g, phi, p=p) for p in (2.0, 1.5, 3.0))
        defect = abs(s2 / radial.lp_norm(g, 2.0) - SQUAREFN_L2)
        _check(defect <= V.TOL_SQUAREFN_L2, f"square function L2 defect {defect:.3e}")
        _check(s2 * s2 <= s15 * s3 * (1.0 + HOLDER_ROUNDING), "Hoelder across p violated")

    return op


def diag_contour(ctx: OpContext):
    _params, _kmin, _kmax, g = _diag_profile(ctx)
    symbols = ctx.env.symbols

    def op():
        for sym in symbols:
            direct = calculus.hinf_apply_direct(sym, g)
            res = calculus.hinf_apply_contour(sym, g)
            err = _rel_l2(res.profile, direct)
            _check(err <= V.TOL_CONTOUR, f"contour vs direct {err:.3e}")

    return op


def diag_rbound(ctx: OpContext):
    params, kmin, kmax, g = _diag_profile(ctx)
    rng = ctx.rng
    family = V.rbound_family(float(rng.uniform(1.0, 1.4)), 16)
    trial_seed = int(rng.integers(0, 2**31))
    z, w = (family[int(i)] for i in rng.integers(0, len(family), size=2))

    def op():
        ratio = calculus.rademacher_ratio(
            family, 4.0, RBOUND_TRIALS, trial_seed, params, window=(kmin, kmax)
        )
        _check(math.isfinite(ratio) and ratio > 0.0, f"Rademacher ratio {ratio}")
        lhs = calculus.semigroup_apply(z, calculus.semigroup_apply(w, g))
        rhs = calculus.semigroup_apply(z + w, g)
        gap = radial.lp_norm(lhs - rhs, 1.0)
        scale = max(1.0, radial.lp_norm(rhs, 1.0))
        _check(gap <= V.TOL_SEMIGROUP_L1 * scale, f"semigroup law L1 gap {gap:.3e}")

    return op


def diag_maxreg(ctx: OpContext):
    params = ctx.pick(DIAG_PARAMS)
    kmin, kmax = _diag_window(ctx, params)
    rng = ctx.rng
    profs = tuple(_profile(rng, params, kmin, kmax) for _ in range(2))
    forcing = evolution.ForcingSignal((0.0, float(rng.uniform(0.3, 0.7)), 1.0), profs)

    def op():
        ratio = evolution.max_regularity_report(forcing, p=2.0, q_space=2.0, n_time=4097)
        _check(ratio <= 1.0 + V.TOL_MAXREG, f"maximal regularity ratio {ratio!r}")

    return op


def diag_solve_master(ctx: OpContext):
    params = ctx.pick(DIAG_PARAMS)
    kmin, kmax = _diag_window(ctx, params)
    rng = ctx.rng
    b1, b2 = sorted(rng.uniform(0.1, 0.9, size=2))
    profs = tuple(_profile(rng, params, kmin, kmax) for _ in range(3))
    forcing = evolution.ForcingSignal((0.0, float(b1), float(b2), 1.0), profs)
    x0 = _profile(rng, params, kmin, kmax)

    def op():
        exact = evolution.solve_master(x0, forcing, [1.0])[0]
        rk4 = evolution.solve_master_rk4(x0, forcing, 1.0, steps_per_interval=8192)
        err = _rel_l2(rk4, exact)
        _check(err <= V.TOL_MAXREG_ORACLE, f"solve_master vs RK4 {err:.3e}")

    return op


def _setup_symbols(env: Env) -> None:
    env.symbols = V.standard_symbols()


# -- wide: few, long transforms -----------------------------------------------------

WIDE_PARAMS = tuple(
    FieldParams(q, 1, alpha) for q in (2, 3) for alpha in (0.25, 0.5)
)
# Every crown k of a window keeps q**(n*|k|) <= 1e140, so that the product of
# two transforms in convolve (about q**(2*n*|k|)) and the multiplier's tail
# extension stay finite floats.  Past the float range solve_master raises an
# untyped OverflowError and convolve returns NaN: known defects this workload
# stays clear of.
WIDE_EXP10 = 140.0
REL_CONVOLVE = 1e-10  # tests/test_radial.py, convolve vs convolve_direct
REL_INVOLUTION = 1e-12  # tests/test_radial.py, F(F f) = f
EVOLVE_TIMES = (0.25, 0.5, 1.0)


WIDE_LENGTHS = (190, 370, 550, 730, 910)  # mid-points of five strata of 100-1,000


def _wide_window(ctx: OpContext, params: FieldParams) -> tuple[int, int]:
    kabs = math.floor(WIDE_EXP10 / (params.n * math.log10(params.q)))
    length = WIDE_LENGTHS[ctx.level(len(WIDE_LENGTHS), len(WIDE_PARAMS))]
    length = min(length, 2 * kabs - 40)
    kmin = -(length // 2) + int(ctx.rng.integers(-10, 11))
    return kmin, kmin + length - 1


def _tail(rng) -> complex:
    return complex(rng.standard_normal(), rng.standard_normal())


def wide_taibleson(ctx: OpContext):
    params = ctx.pick(WIDE_PARAMS)
    kmin, kmax = _wide_window(ctx, params)
    rng = ctx.rng
    f = _profile(rng, params, kmin, kmax, tail=_tail(rng))
    points = [int(k) for k in rng.choice(np.arange(kmin - 1, kmax + 2), 11, replace=False)]
    points.append(None)  # x = 0

    def op():
        D = taibleson.taibleson_fourier(f)
        for k_x in points:
            hs = taibleson.taibleson_hypersingular(f, k_x)
            fo = D.tail if k_x is None else D.value_at(k_x)
            defect = abs(hs - fo) / max(1.0, abs(fo), abs(hs))
            _check(defect <= V.TOL_TAIBLESON, f"Taibleson routes at {k_x}: {defect:.3e}")

    return op


def wide_convolve(ctx: OpContext):
    params = ctx.pick(WIDE_PARAMS)
    g = _profile(ctx.rng, params, *_wide_window(ctx, params))
    f = _profile(ctx.rng, params, *_wide_window(ctx, params))

    def op():
        fast = radial.convolve(g, f)
        direct = radial.convolve_direct(g, f)
        scale = max(1.0, _sup(fast), _sup(direct))
        gap = _sup_gap(fast, direct)
        _check(gap <= REL_CONVOLVE * scale, f"convolve vs direct {gap / scale:.3e}")

    return op


def wide_semigroup(ctx: OpContext):
    params = ctx.pick(WIDE_PARAMS)
    rng = ctx.rng
    f = _profile(rng, params, *_wide_window(ctx, params), tail=_tail(rng))
    z = complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))

    def op():
        h = calculus.semigroup_apply(z, f)
        for x in (f, h):
            back = radial.radial_fourier(radial.radial_fourier(x))
            gap = _sup_gap(back, x)
            _check(gap <= REL_INVOLUTION * max(1.0, _sup(x)), f"F(F f) != f by {gap:.3e}")

    return op


def _ini_profile(section: str, f: RadialProfile) -> list[str]:
    lines = [f"[{section}]", f"tail = {f.tail.real!r} {f.tail.imag!r}"]
    for k, c in zip(range(f.kmin, f.kmax + 1), f.coeffs.tolist()):
        lines.append(f"c_{k} = {c.real!r} {c.imag!r}")
    return lines


def wide_evolve(ctx: OpContext):
    params = ctx.pick(WIDE_PARAMS)
    kmin, kmax = _wide_window(ctx, params)
    rng = ctx.rng
    x0 = _profile(rng, params, kmin, kmax, tail=_tail(rng))
    profs = tuple(_profile(rng, params, kmin, kmax, tail=_tail(rng)) for _ in range(2))
    forcing = evolution.ForcingSignal((0.0, float(rng.uniform(0.2, 0.8)), 1.0), profs)
    config = ctx.env.work_dir / f"evolve-{ctx.index}.ini"
    out_csv = ctx.env.work_dir / "evolve.csv"
    lines = [
        "[field]", f"q = {params.q}", f"n = {params.n}", f"alpha = {params.alpha!r}",
        "[window]", f"kmin = {kmin}", f"kmax = {kmax}",
        "[forcing]", "breakpoints = " + " ".join(repr(t) for t in forcing.breakpoints),
        "[output]", "times = " + " ".join(repr(t) for t in EVOLVE_TIMES), f"file = {out_csv}",
    ]
    lines += _ini_profile("initial", x0)
    for j, prof in enumerate(profs):
        lines += _ini_profile(f"forcing.{j}", prof)
    config.write_text("\n".join(lines) + "\n")

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["evolve", "--config", str(config)])
        _check(rc == 0, f"qharm evolve exited {rc}")
        outs = evolution.solve_master(x0, forcing, list(EVOLVE_TIMES))
        rows = ["t,k,re,im"]
        for t, prof in zip(EVOLVE_TIMES, outs):
            for k, v in zip(range(prof.kmin, prof.kmax + 1), prof.coeffs.tolist()):
                rows.append(f"{t!r},{k},{v.real!r},{v.imag!r}")
        _check(out_csv.read_text() == "\n".join(rows) + "\n", "evolve CSV differs")

    return op


# -- kernel: pointwise closed forms ---------------------------------------------------

KERNEL_PARAMS = tuple(
    FieldParams(q, n, alpha) for q in (2, 3) for n in (1, 2) for alpha in (0.5, 1.0, 2.0)
)
AGREE_CFG = kernel.KernelEvalConfig(tail_budget=256, tol=1e-15)  # criterion 4's


Z_STRATA = 4  # log10 |z| in [-2, 2], one stratum per decade


def _sector_z(ctx: OpContext) -> complex:
    u = ctx.stratified(Z_STRATA, len(KERNEL_PARAMS))
    return 10.0 ** (4.0 * u - 2.0) * cmath.exp(1j * ctx.rng.uniform(-1.4, 1.4))


def _agree(a, b) -> bool:
    """Criterion 4's rule: gap within TOL_KERNEL_AGREE relative plus both
    certified bounds."""
    den = max(abs(a.value), abs(b.value), 1e-280)
    gap = abs(a.value - b.value)
    return gap <= V.TOL_KERNEL_AGREE * den + a.tail_bound + b.tail_bound


def kernel_l1(ctx: OpContext):
    params = ctx.pick(KERNEL_PARAMS)
    z = _sector_z(ctx)
    q, n, alpha = params.q, params.n, params.alpha

    def op():
        res = kernel.kernel_l1_norm(z, params)
        _check(res.majorant_l1 >= res.l1, "majorant L1 below L1")
        # |int K_z| = 1, so the L1 norm cannot be smaller
        _check(res.l1 + res.l1_bound >= 1.0 - V.TOL_MASS, f"L1 norm {res.l1!r} < 1")
        for k_x in range(-2, 3):
            ratio = kernel.bound_ratio(z, k_x, params)
            crown = kernel.kernel_crown_sum(z, k_x, params)
            factor = (z.real ** (1.0 / alpha) + float(q) ** (-k_x)) ** (alpha + n) / abs(z)
            # exp-form results always carry a certified bound below cfg.tol
            budget = (
                V.TOL_KERNEL_AGREE * abs(crown.value)
                + kernel.DEFAULT_CFG.tol
                + crown.tail_bound
            ) * factor
            _check(
                abs(ratio - abs(crown.value) * factor) <= budget,
                f"bound_ratio disagrees with the crown sum at k_x={k_x}",
            )

    return op


def kernel_agree(ctx: OpContext):
    params = ctx.pick(KERNEL_PARAMS)
    z = _sector_z(ctx)

    def op():
        for k_x in range(-2, 3):
            results = [
                kernel.kernel_exp_form(z, k_x, params, AGREE_CFG),
                kernel.kernel_crown_sum(z, k_x, params, AGREE_CFG),
            ]
            try:
                results.append(kernel.kernel_series(z, k_x, params, AGREE_CFG))
            except CancellationError:
                pass  # outside the series guard region: expected
            for i in range(len(results)):
                for j in range(i + 1, len(results)):
                    _check(_agree(results[i], results[j]), f"evaluators disagree at {k_x}")
        for k_x in (-30, -20, -10, 10, 20, 30):
            a = kernel.kernel_exp_form(z, k_x, params, AGREE_CFG)
            b = kernel.kernel_crown_sum(z, k_x, params, AGREE_CFG)
            _check(_agree(a, b), f"far-field evaluators disagree at {k_x}")

    return op


def kernel_mass(ctx: OpContext):
    params = ctx.pick(KERNEL_PARAMS)
    z = _sector_z(ctx)

    def op():
        window = kernel.default_mass_window(z, params, tol=1e-12)
        prof = kernel.kernel_profile(z, window, params, evaluator=kernel.kernel_exp_form)
        mass = radial.improper_integral(prof) + kernel.kernel_ball_integral(
            z, window[1] + 1, params
        ).value
        _check(abs(mass - 1.0) <= V.TOL_MASS, f"kernel mass defect {abs(mass - 1.0):.3e}")

    return op


def kernel_gamma(ctx: OpContext):
    params = ctx.pick(KERNEL_PARAMS)
    rng = ctx.rng
    span = math.pi / math.log(params.q)
    z_int = [complex(rng.uniform(0.25, 4.0), rng.uniform(-span, span)) for _ in range(3)]
    z_ref = [
        complex(rng.uniform(0.1, params.n - 0.1), rng.uniform(-span, span))
        for _ in range(3)
    ]

    def op():
        for z in z_int:
            a = gamma.gamma_via_integral(z, params, tol=1e-11)
            b = gamma.gamma_qn(z, params)
            _check(abs(a - b) <= V.TOL_GAMMA_INTEGRAL, f"Gamma integral at {z}")
        for z in z_ref:
            d = gamma.reflection_defect(z, params)
            _check(d <= V.TOL_GAMMA_REFLECTION, f"Gamma reflection defect {d:.3e}")

    return op


SWEEP_LINES = 176  # header + 35 sector points x 5 crowns
# the gate's 12 combos again, ordered so that every four cover all (q, n)
SWEEP_PARAMS = tuple(
    FieldParams(q, n, alpha) for alpha in (0.5, 1.0, 2.0) for q in (2, 3) for n in (1, 2)
)


def kernel_sweep(ctx: OpContext):
    params = ctx.pick(SWEEP_PARAMS)
    argv = [
        "kernel", "--q", str(params.q), "--n", str(params.n),
        "--alpha", repr(params.alpha), "--sweep",
    ]

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        lines = buf.getvalue().splitlines()
        _check(rc == 0 and len(lines) == SWEEP_LINES, f"sweep printed {len(lines)} lines")
        _check(lines[0] == cli.SWEEP_HEADER, "sweep header differs")
        keys = cli.SWEEP_HEADER.split(",")
        for line, row in zip(lines[1:], V.kernel_sweep_rows(params)):
            got = [float(x) for x in line.split(",")]
            _check(got == [float(row[k]) for k in keys], f"sweep row differs: {line}")

    return op


# -- lattice: finite quotients ---------------------------------------------------------

LATTICE_SPECS = (  # (q, n, M, N): 64 .. 6561 cosets
    (2, 1, 3, 3), (2, 1, 4, 5), (2, 1, 6, 6),
    (2, 2, 1, 2), (2, 2, 2, 2), (2, 2, 3, 3),
    (3, 1, 2, 2), (3, 1, 3, 3), (3, 1, 4, 4),
    (3, 2, 1, 1), (3, 2, 1, 2), (3, 2, 2, 2),
)
DIRECT_CONVOLVE_MAX = 729
REL_GROUP = 1e-12  # tests/test_vilenkin.py, DFT round trip and direct convolution


def _setup_lattices(env: Env) -> None:
    env.lattices = []
    for q, n, M, N in LATTICE_SPECS:
        lat = QuotientLattice(FieldParams(q, n, 1.0, FieldModel.QADIC_QUOTIENT), M, N)
        lat.norms()  # lazy cache, warmed here so ops do not pay it
        env.lattices.append(lat)


def _qfun(rng, lat):
    return vilenkin.QuotientFunction(lat, _complex(rng, lat.size))


def lattice_doob(ctx: OpContext):
    lat = ctx.pick(ctx.env.lattices)
    f = _qfun(ctx.rng, lat)
    p = float(ctx.rng.choice([1.5, 2.0, 3.0]))

    def op():
        lhs, rhs, passed = vilenkin.doob_check(f, p)
        _check(passed and lhs <= rhs + V.TOL_DOOB, f"Doob excess {lhs - rhs:.3e}")

    return op


def lattice_domination(ctx: OpContext):
    lat = ctx.pick(ctx.env.lattices)
    rng = ctx.rng
    levels = float(rng.uniform(0.5, 2.0)) * np.cumprod(rng.uniform(0.3, 1.0, lat.M + lat.N))
    prof = RadialProfile(
        lat.params, -lat.M, lat.N - 1, levels,
        tail=float(levels[-1] * rng.uniform(0.3, 1.0)),
    )
    f = _qfun(rng, lat)

    def op():
        phi = vilenkin.lift_profile(prof, lat)
        d = vilenkin.domination_check(phi, f)
        _check(d <= V.TOL_DOMINATION, f"domination defect {d:.3e}")

    return op


def lattice_convolve(ctx: OpContext):
    small = [lat for lat in ctx.env.lattices if lat.size <= DIRECT_CONVOLVE_MAX]
    lat = ctx.pick(small)
    phi, f = _qfun(ctx.rng, lat), _qfun(ctx.rng, lat)

    def op():
        a = vilenkin.group_convolve(phi, f).values
        b = vilenkin.group_convolve_direct(phi, f).values
        gap = float(np.max(np.abs(a - b)))
        _check(gap <= REL_GROUP * max(1.0, float(np.max(np.abs(b)))), f"convolution {gap:.3e}")

    return op


def lattice_taibleson(ctx: OpContext):
    lat = ctx.pick(ctx.env.lattices)
    rng = ctx.rng
    crowns = list(range(-lat.M, lat.N))
    k0 = int(rng.choice(crowns))
    others = [k for k in crowns if k != k0]
    norms = lat.norms()
    points = []
    for k_x in rng.choice(others, size=min(2, len(others)), replace=False):
        idxs = np.nonzero(norms == float(lat.params.q) ** (-int(k_x)))[0]
        points.append((int(k_x), int(rng.choice(idxs))))
    const = np.full(lat.size, complex(rng.standard_normal(), rng.standard_normal()))
    x_const = int(rng.integers(0, lat.size))

    def op():
        prof = RadialProfile.sphere_indicator(lat.params, k0)
        lifted = vilenkin.lift_profile(prof, lat)
        D = taibleson.taibleson_fourier(prof)
        for k_x, x in points:  # crowns where f = 0
            got = taibleson.taibleson_hypersingular_lattice(lifted.values, x, lat)
            want = D.value_at(k_x)
            defect = abs(got - want) / max(1.0, abs(got), abs(want))
            _check(defect <= V.TOL_TAIBLESON, f"lattice vs radial D at {k_x}: {defect:.3e}")
        zero = taibleson.taibleson_hypersingular_lattice(const, x_const, lat)
        _check(zero == 0.0, f"constant not annihilated: {zero!r}")

    return op


SPHERE_PARAMS = tuple(
    FieldParams(q, n, 1.0, FieldModel.QADIC_QUOTIENT) for q in (2, 3) for n in (1, 2)
)


def lattice_spheres(ctx: OpContext):
    params = ctx.pick(SPHERE_PARAMS)
    rng = ctx.rng
    q, n = params.q, params.n
    k = int(rng.integers(-2, 3))
    e = None if rng.random() < 0.2 else k + int(rng.integers(-1, 3))
    # the suite's window rule: the sphere and the point both resolved
    lat = QuotientLattice(params, max(0, -k), max(k + 1, 0 if e is None else e, 0))
    norm_x = 0 if e is None else qfield.qpow(q, e)
    x = tuple(
        0 if e is None or i else qfield.qpow(q, -e) for i in range(n)
    )

    def op():
        brute = qfield.brute_sphere_character_integral(k, x, lat)
        closed = float(qfield.sphere_character_integral(k, norm_x, params))
        _check(abs(brute - closed) <= V.TOL_SPHERES, f"sphere integral at k={k}")

    return op


def lattice_dft(ctx: OpContext):
    lat = ctx.pick(ctx.env.lattices)
    f = _qfun(ctx.rng, lat)

    def op():
        back = vilenkin.group_dft(vilenkin.group_dft(f, "forward"), "inverse")
        gap = float(np.max(np.abs(back.values - f.values)))
        _check(gap <= REL_GROUP * max(1.0, float(np.max(np.abs(f.values)))), "DFT round trip")

    return op


# -- registry -------------------------------------------------------------------------

DIAGONAL = Workload(
    "diagonal",
    {
        "square_function": diag_squarefn,
        "rademacher_ratio": diag_rbound,
        "solve_master": diag_solve_master,
        "hinf_apply_contour": diag_contour,
    },
    # time shares follow the acceptance gate: the evolution oracle
    # (solve_master against RK4, standing in for the maxreg suite) and
    # squarefn about two fifths each, rbound about a sixth, calculus the
    # rest.  solve_master ops are the costliest fifth of the ops, so
    # op_p90_ms falls in the middle of them.
    {
        "square_function": 22,
        "rademacher_ratio": 15,
        "solve_master": 10,
        "hinf_apply_contour": 3,
    },
    _setup_symbols,
    set_cycles=2,
    # max_regularity_report raises AttributeError on numpy without np.trapz
    # (ROADMAP item 1), so it runs as a probe: reported, not an op
    probes={"max_regularity_report": diag_maxreg},
)

# The wide, kernel and lattice op kinds share one workload: on this host one
# 30-second workload per family did not give steady figures, so the three
# run together in longer runs.  Weights give each family about a third of the
# run time.
WIDE_KERNEL_LATTICE = Workload(
    "wide_kernel_lattice",
    {
        "taibleson": wide_taibleson,
        "convolve": wide_convolve,
        "semigroup": wide_semigroup,
        "evolve_cli": wide_evolve,
        "l1_norm": kernel_l1,
        "evaluators": kernel_agree,
        "mass": kernel_mass,
        "gamma": kernel_gamma,
        "sweep_cli": kernel_sweep,
        "doob": lattice_doob,
        "domination": lattice_domination,
        "group_convolve": lattice_convolve,
        "taibleson_lattice": lattice_taibleson,
        "spheres": lattice_spheres,
        "group_dft": lattice_dft,
    },
    {
        "taibleson": 20,
        "convolve": 20,
        "semigroup": 20,
        "evolve_cli": 5,
        "l1_norm": 40,
        "evaluators": 40,
        "mass": 24,
        "gamma": 24,
        "sweep_cli": 1,
        "doob": 22,
        "domination": 22,
        "group_convolve": 11,
        "taibleson_lattice": 11,
        "spheres": 22,
        "group_dft": 22,
    },
    _setup_lattices,
    set_cycles=4,
)

WORKLOADS = {w.name: w for w in (DIAGONAL, WIDE_KERNEL_LATTICE)}
