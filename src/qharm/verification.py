"""Acceptance suites: every checkable claim as one runnable verdict.

Each ``verify_*`` function runs one suite at its pinned tolerance and
returns a JSON-friendly dict with a boolean ``"pass"``; the CLI ``verify``
subcommand and the pytest acceptance module both call these, so there is a
single definition of every gate.

Empirical constants that the theory leaves implicit (kernel estimate
constants, Rademacher ratios, square-function L^p bands, the p = 4 maximal
regularity ratio) are regression-guarded: the first run records them in a
checked-in baselines file and later runs must stay within ``SLACK`` times
the recorded value.  The baselines file is plain text keyed by
(suite, q, n, alpha); the environment variable ``QHARM_BASELINES``
overrides its location.
"""

from __future__ import annotations

import cmath
import functools
import importlib.resources
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import calculus, evolution, field, gamma, kernel, radial, taibleson, vilenkin
from .errors import CancellationError
from .field import FieldModel, FieldParams, QuotientLattice, qpow
from .radial import RadialProfile, lp_norm

SLACK = 1.05

TOL_SPHERES = 1e-12
TOL_GAMMA_REFLECTION = 1e-12
TOL_GAMMA_INTEGRAL = 1e-9
TOL_LEVY = 1e-12
TOL_KERNEL_AGREE = 1e-10
TOL_MASS = 1e-10
TOL_SEMIGROUP_L1 = 1e-8
TOL_TAIBLESON = 1e-10
TOL_CONTOUR = 1e-6
TOL_SQUAREFN_L2 = 1e-5
TOL_DOOB = 1e-10
TOL_DOMINATION = 1e-12
TOL_MAXREG = 1e-6
TOL_MAXREG_ORACLE = 1e-8
SEED_RBOUND = 20240801
RBOUND_FAMILY = (4.0, 1.3, 16)  # p, theta, points: the family rbound_p4 records
RBOUND_TRIALS = 200
INSTANCES = 500  # draws per field of the Doob and domination suites
SEED_PROFILES = 424243


# -- baselines ------------------------------------------------------------------


def baselines_path() -> Path:
    env = os.environ.get("QHARM_BASELINES")
    if env:
        return Path(env)
    return Path(str(importlib.resources.files("qharm") / "baselines.txt"))


def load_baselines() -> dict:
    path = baselines_path()
    out: dict = {}
    if not path.exists():
        return out
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        suite, q, n, alpha, value = line.split()
        out[(suite, q, n, alpha)] = float(value)
    return out


def save_baselines(baselines: dict) -> None:
    lines = ["# suite q n alpha value"]
    for (suite, q, n, alpha), value in sorted(baselines.items()):
        lines.append(f"{suite} {q} {n} {alpha} {value!r}")
    baselines_path().write_text("\n".join(lines) + "\n")


def _bkey(suite: str, params: FieldParams) -> tuple:
    return (suite, str(params.q), str(params.n), repr(params.alpha))


def _check_baseline(
    baselines: dict, key: tuple, value: float, update: bool
) -> tuple[bool, float | None]:
    if update:
        baselines[key] = value
        return True, value
    ref = baselines.get(key)
    if ref is None:
        return False, None
    return value <= SLACK * ref, ref


# -- criterion 1: sphere-character integrals vs exhaustive coset sums ----------


def verify_spheres() -> dict:
    worst = 0.0
    cases = 0
    for q in (2, 3):
        for n in (1, 2):
            params = FieldParams(q, n, 1.0, FieldModel.QADIC_QUOTIENT)
            for k in range(-2, 3):
                norm_cases = [Fraction(0)] + [
                    qpow(q, e) for e in (k - 1, k, k + 1, k + 2)
                ]
                for norm_x in norm_cases:
                    e = field.norm_exponent(q, norm_x)
                    N = max(k + 1, 0 if e is None else e, 0)
                    M = max(0, -k)
                    lat = QuotientLattice(params, M, N)
                    if e is None:
                        x = tuple(Fraction(0) for _ in range(n))
                    else:
                        x = tuple(
                            qpow(q, -e) if i == 0 else Fraction(0) for i in range(n)
                        )
                    brute = field.brute_sphere_character_integral(k, x, lat)
                    closed = float(field.sphere_character_integral(k, norm_x, params))
                    worst = max(worst, abs(brute - closed))
                    cases += 1
    return {
        "suite": "spheres",
        "cases": cases,
        "max_defect": worst,
        "tol": TOL_SPHERES,
        "pass": worst <= TOL_SPHERES,
    }


# -- criterion 2: Gamma reflection and the integral oracle ---------------------


def verify_gamma() -> dict:
    rng = np.random.default_rng(SEED_PROFILES)
    worst_refl = 0.0
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            params = FieldParams(q, n, 1.0)
            span = math.pi / math.log(q)
            for _ in range(100 // 9 + 2):
                z = complex(rng.uniform(0.1, n - 0.1), rng.uniform(-span, span))
                worst_refl = max(worst_refl, gamma.reflection_defect(z, params))
    worst_int = 0.0
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            params = FieldParams(q, n, 1.0)
            for re in (0.25, 0.8, 1.5, 2.5, 4.0):
                for im in (0.0, 0.4):
                    z = complex(re, im)
                    a = gamma.gamma_via_integral(z, params, tol=1e-11)
                    b = gamma.gamma_qn(z, params)
                    worst_int = max(worst_int, abs(a - b))
    return {
        "suite": "gamma",
        "max_reflection_defect": worst_refl,
        "max_integral_defect": worst_int,
        "tol_reflection": TOL_GAMMA_REFLECTION,
        "tol_integral": TOL_GAMMA_INTEGRAL,
        "pass": worst_refl <= TOL_GAMMA_REFLECTION and worst_int <= TOL_GAMMA_INTEGRAL,
    }


# -- criterion 3: Levy-Khinchin ------------------------------------------------


def verify_levy(
    q: int | None = None, n: int | None = None, alpha: float | None = None
) -> dict:
    qs = (2, 3, 5) if q is None else (q,)
    ns = (1, 2) if n is None else (n,)
    alphas = (0.5, 1.0, 2.0, 3.7) if alpha is None else (alpha,)
    worst = 0.0
    for qq in qs:
        for nn in ns:
            for aa in alphas:
                params = FieldParams(qq, nn, aa)
                for n0 in range(-3, 4):
                    lhs, rhs = taibleson.levy_khinchin_check(-n0, params)
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    # worked case: q=2, n=1, alpha=1, ||x|| = 1 gives lhs = rhs = 1 exactly
    lhs1, rhs1 = taibleson.levy_khinchin_check(0, FieldParams(2, 1, 1.0))
    exact = lhs1 == 1.0 and rhs1 == 1.0
    return {
        "suite": "levy",
        "max_defect": worst,
        "worked_case_exact": exact,
        "tol": TOL_LEVY,
        "pass": worst <= TOL_LEVY and exact,
    }


# -- criterion 4: kernel three-way agreement -----------------------------------


def kernel_grid():
    for q in (2, 3):
        for n in (1, 2):
            for alpha in (0.5, 1.0, 2.0):
                params = FieldParams(q, n, alpha)
                for k_x in range(-2, 3):
                    for mod in (0.1, 1.0, 10.0):
                        for arg in (0.0, math.pi / 3, -math.pi / 3):
                            yield params, k_x, mod * cmath.exp(1j * arg)


def verify_kernel_agreement() -> dict:
    cfg = kernel.KernelEvalConfig(tail_budget=256, tol=1e-15)
    worst = 0.0
    worst_ratio = 0.0  # largest gap / budget: how close the evaluators come to it
    points = 0
    series_points = 0
    ok = True
    for params, k_x, z in kernel_grid():
        results = {
            "exp": kernel.kernel_exp_form(z, k_x, params, cfg),
            "crown": kernel.kernel_crown_sum(z, k_x, params, cfg),
        }
        try:
            results["series"] = kernel.kernel_series(z, k_x, params, cfg)
            series_points += 1
        except CancellationError:
            pass  # outside the series guard region
        points += 1
        names = list(results)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = results[names[i]], results[names[j]]
                den = max(abs(a.value), abs(b.value), 1e-280)
                gap = abs(a.value - b.value)
                budget = TOL_KERNEL_AGREE * den + a.tail_bound + b.tail_bound
                worst = max(worst, (gap - a.tail_bound - b.tail_bound) / den)
                worst_ratio = max(worst_ratio, gap / budget)
                if gap > budget:
                    ok = False
    return {
        "suite": "kernel-agree",
        "points": points,
        "series_points": series_points,
        "max_rel_disagreement": max(worst, 0.0),
        "max_gap_over_budget": worst_ratio,
        "tol": TOL_KERNEL_AGREE,
        "pass": ok,
    }


# -- criterion 5: mass conservation and the semigroup law ----------------------


def verify_semigroup() -> dict:
    worst_mass = 0.0
    for q, n, alpha in ((2, 1, 1.0), (3, 2, 0.5), (2, 2, 2.0)):
        params = FieldParams(q, n, alpha)
        for t in (0.1, 1.0, 10.0):
            w = kernel.default_mass_window(t + 0j, params, tol=1e-12)
            prof = kernel.kernel_profile(t + 0j, w, params)
            mass = radial.improper_integral(prof) + kernel.kernel_ball_integral(
                t + 0j, w[1] + 1, params
            ).value
            worst_mass = max(worst_mass, abs(mass - 1.0))

    rng = np.random.default_rng(SEED_PROFILES)
    params = FieldParams(2, 1, 1.0)
    worst_sg = 0.0
    for _ in range(20):
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5))
        w = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5))
        win_z = kernel.default_mass_window(z, params, tol=1e-11)
        win_w = kernel.default_mass_window(w, params, tol=1e-11)
        win = (min(win_z[0], win_w[0]), max(win_z[1], win_w[1]))
        Kz = kernel.kernel_profile(z, win, params)
        Kw = kernel.kernel_profile(w, win, params)
        Kzw = kernel.kernel_profile(z + w, win, params)
        diff = radial.convolve(Kz, Kw) - Kzw
        worst_sg = max(worst_sg, lp_norm(diff, 1))
    return {
        "suite": "semigroup",
        "max_mass_defect": worst_mass,
        "max_semigroup_l1": worst_sg,
        "tol_mass": TOL_MASS,
        "tol_semigroup": TOL_SEMIGROUP_L1,
        "pass": worst_mass <= TOL_MASS and worst_sg <= TOL_SEMIGROUP_L1,
    }


# -- criterion 6: kernel estimates against checked-in baselines -----------------


def _sector_grid(params: FieldParams):
    """(z, kernel_l1_norm(z), bound_ratios(z, (-2, 2))) at each sector grid point."""
    for arg in np.linspace(-1.4, 1.4, 7):
        for mod in np.logspace(-2, 2, 5):
            z = complex(mod * math.cos(arg), mod * math.sin(arg))
            yield z, kernel.kernel_l1_norm(z, params), kernel.bound_ratios(z, (-2, 2), params)


def verify_kernel_bounds(update: bool = False) -> dict:
    baselines = load_baselines()
    combos = []
    ok = True
    for q in (2, 3):
        for n in (1, 2):
            for alpha in (0.5, 1.0, 2.0):
                params = FieldParams(q, n, alpha)
                top = {"bound": 0.0, "l1": 0.0, "majorant_l1": 0.0}
                for z, res, (_, ratios) in _sector_grid(params):
                    top["l1"] = max(top["l1"], res.l1 * z.real / abs(z))
                    top["majorant_l1"] = max(top["majorant_l1"], res.majorant_l1 * z.real / abs(z))
                    if res.majorant_l1 < res.l1 - 1e-12:
                        ok = False  # the majorant must dominate
                    top["bound"] = max(top["bound"], *ratios.tolist())
                if not all(map(math.isfinite, top.values())):
                    ok = False
                combo = {"q": q, "n": n, "alpha": alpha}
                for name, value in top.items():
                    key = _bkey(f"kernel_{name}_ratio", params)
                    ok_c, combo[f"baseline_{name}_ratio"] = _check_baseline(
                        baselines, key, value, update
                    )
                    combo[f"max_{name}_ratio"] = value
                    ok = ok and ok_c
                combos.append(combo)
    if update:
        save_baselines(baselines)
    return {"suite": "kernel-bounds", "combos": combos, "slack": SLACK, "pass": ok}


# -- criterion 7: Taibleson oracle equivalence ----------------------------------


def verify_taibleson(
    q: int | None = None, n: int | None = None, alpha: float | None = None
) -> dict:
    given = (q, n, alpha)
    if None in given and given != (None, None, None):
        raise ValueError("the taibleson suite takes all of q, n and alpha or none of them")
    rng = np.random.default_rng(SEED_PROFILES)
    triples = [(2, 1, 1.0), (3, 2, 0.5), (2, 2, 2.0), (5, 1, 2.0)] if q is None else [given]
    worst = 0.0
    for qq, nn, aa in triples:
        params = FieldParams(qq, nn, aa)
        profiles = [
            RadialProfile.sphere_indicator(params, k0) for k0 in range(-4, 5)
        ]
        rv = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        profiles.append(RadialProfile(params, -4, 4, rv))  # 9 <= 10 crowns
        for prof in profiles:
            D = taibleson.taibleson_fourier(prof)
            for k_x in list(range(-5, 6)) + [None]:
                hs = taibleson.taibleson_hypersingular(prof, k_x)
                fo = D.tail if k_x is None else D.value_at(k_x)
                scale = max(1.0, abs(fo), abs(hs))
                worst = max(worst, abs(hs - fo) / scale)
    # worked value: q=2, n=1, alpha=1, D(indicator of the unit ball) at 0 = 2/3
    params = FieldParams(2, 1, 1.0)
    ball = RadialProfile.ball_indicator(params, 0)
    v1 = taibleson.taibleson_hypersingular(ball, None)
    v2 = taibleson.taibleson_fourier(ball).tail
    worked = max(abs(v1 - 2.0 / 3.0), abs(v2 - 2.0 / 3.0))
    return {
        "suite": "taibleson",
        "max_defect": worst,
        "worked_value_defect": worked,
        "tol": TOL_TAIBLESON,
        "pass": worst <= TOL_TAIBLESON and worked <= 1e-12,
    }


# -- criterion 8: contour calculus ----------------------------------------------


@functools.cache  # built once, so the memoised contour rules and kernels G hit
def standard_symbols() -> tuple[calculus.SymbolFunction, ...]:
    """The calculus suites' symbols, whose certificates (the contour's bound is
    only as strong as they are) hold on their sectors thus, with r = |z|:
    - z / (1 + z)**2 and sqrt(z) / (1 + z), theta = 1.4 <= pi / 2: |1 + z|**2 =
      1 + r**2 + 2 r cos(arg z) >= 1 + r**2, so |f| <= min(r, 1 / r)**s;
    - z / (1 + z**2), theta = 1.0: w = z**2 and 1 / w have |arg| <= 2 theta < pi,
      so their rays pass -1 at a distance >= sin 2 = 0.909, |1 + w| =
      |w| |1 + 1 / w| >= 0.909 max(1, r**2) and |f| <= 1.1 min(r, 1 / r)."""
    return (
        calculus.SymbolFunction(lambda t: t / (1 + t) ** 2, (1.0, 1.1), 1.4),
        calculus.SymbolFunction(lambda t: np.sqrt(t) / (1 + t), (0.5, 1.2), 1.4),
        calculus.SymbolFunction(lambda t: t / (1 + t * t), (1.0, 1.3), 1.0),
    )


def verify_calculus() -> dict:
    rng = np.random.default_rng(SEED_PROFILES)
    params = FieldParams(2, 1, 1.0)
    g = RadialProfile(params, -3, 4, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    worst, symbols = 0.0, standard_symbols()
    for sym in symbols:
        direct = calculus.hinf_apply_direct(sym, g)
        res = calculus.hinf_apply_contour(sym, g)
        worst = max(worst, lp_norm(res.profile - direct, 2) / max(lp_norm(direct, 2), 1e-300))
    profs = [calculus.hinf_apply_contour(symbols[0], g, nu).profile for nu in (0.3, 0.6, 1.0)]
    worst_nu = max(lp_norm(profs[0] - p, 2) for p in profs[1:]) / lp_norm(profs[0], 2)
    return {
        "suite": "calculus",
        "max_contour_vs_direct": worst,
        "max_nu_dependence": worst_nu,
        "tol": TOL_CONTOUR,
        "pass": worst <= TOL_CONTOUR and worst_nu <= TOL_CONTOUR,
    }


# -- criterion 9: square functions ----------------------------------------------


def verify_squarefn(update: bool = False) -> dict:
    baselines = load_baselines()
    rng = np.random.default_rng(SEED_PROFILES)
    params = FieldParams(2, 1, 1.0)
    phi = standard_symbols()[0]
    target = math.sqrt(1.0 / 6.0)
    worst_l2 = 0.0
    ratios = {1.5: [], 3.0: []}
    for _ in range(50):
        kmin = int(rng.integers(-5, 0))
        kmax = kmin + int(rng.integers(3, 8))
        m = kmax - kmin + 1
        g = RadialProfile(
            params, kmin, kmax, rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        s2, *others = calculus.square_function(g, phi, p=(2.0, 1.5, 3.0))
        worst_l2 = max(worst_l2, abs(s2 / lp_norm(g, 2) - target))
        for p, s in zip((1.5, 3.0), others):
            ratios[p].append(s / lp_norm(g, p))
    ok = worst_l2 <= TOL_SQUAREFN_L2
    bands = {}
    for p in (1.5, 3.0):
        lo, hi = min(ratios[p]), max(ratios[p])
        key_lo = _bkey(f"squarefn_p{p}_lo", params)
        key_hi = _bkey(f"squarefn_p{p}_hi", params)
        if update:
            baselines[key_lo] = lo / SLACK  # store with margin
            baselines[key_hi] = hi * SLACK
            ok_band = True
            ref_lo, ref_hi = baselines[key_lo], baselines[key_hi]
        else:
            ref_lo, ref_hi = baselines.get(key_lo), baselines.get(key_hi)
            ok_band = (
                ref_lo is not None
                and ref_hi is not None
                and lo >= ref_lo
                and hi <= ref_hi
            )
        ok = ok and ok_band
        bands[str(p)] = {"lo": lo, "hi": hi, "band_lo": ref_lo, "band_hi": ref_hi}
    if update:
        save_baselines(baselines)
    return {
        "suite": "squarefn",
        "max_l2_defect": worst_l2,
        "l2_target": target,
        "bands": bands,
        "tol_l2": TOL_SQUAREFN_L2,
        "pass": ok,
    }


# -- criterion 10: Doob and domination on the finite quotient --------------------


def verify_doob() -> dict:
    rng = np.random.default_rng(SEED_PROFILES)
    worst_excess = -math.inf
    l2_ratios = []
    ok = True
    for q in (2, 3):
        params = FieldParams(q, 1, 1.0, FieldModel.QADIC_QUOTIENT)
        lat = QuotientLattice(params, 3, 3)
        F = np.empty((INSTANCES, lat.size), dtype=complex)
        ps = np.empty(INSTANCES)
        for r in range(INSTANCES):  # each instance draws f, then its p
            F[r] = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
            ps[r] = float(rng.choice([1.5, 2.0, 3.0]))
        for p in np.unique(ps).tolist():  # one block per p
            for lhs, rhs in zip(*vilenkin._doob_rows(lat, F[ps == p], p)):
                ok = ok and lhs <= rhs + 1e-10
                worst_excess = max(worst_excess, lhs - rhs)
        tup = [
            vilenkin.QuotientFunction(lat, rng.standard_normal(lat.size))
            for _ in range(6)
        ]
        lhs, rhs = vilenkin.doob_check_tuple(tup, 2.0)
        l2_ratios.append(lhs / rhs)
    return {
        "suite": "doob",
        "instances": 2 * INSTANCES,
        "max_excess": worst_excess,
        "l2_tuple_ratios": l2_ratios,
        "tol": TOL_DOOB,
        "pass": ok,
    }


def _random_radial_growing_outward(rng: np.random.Generator, lat: QuotientLattice) -> np.ndarray:
    """Crown values on -M..N-1, then the zero coset's, falling as k rises, so
    growing away from the origin (majorant v_{-M}): uniform [0.3, 1) steps
    from a uniform [0.5, 2) start, the zero coset the last."""
    level = float(rng.uniform(0.5, 2.0))
    crowns = []
    for _ in range(-lat.M, lat.N):
        crowns.append(level)
        level *= float(rng.uniform(0.3, 1.0))
    return np.array(crowns + [level])


def verify_domination() -> dict:
    rng = np.random.default_rng(SEED_PROFILES + 1)
    worst = -math.inf
    for q in (2, 3):
        params = FieldParams(q, 1, 1.0, FieldModel.QADIC_QUOTIENT)
        lat = QuotientLattice(params, 3, 3)
        crowns = np.empty((INSTANCES, lat.M + lat.N + 1))
        F = np.empty((INSTANCES, lat.size), dtype=complex)
        for r in range(INSTANCES):  # each instance draws phi, then f
            crowns[r] = _random_radial_growing_outward(rng, lat)
            F[r] = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
        Phi = crowns[:, lat.scales() + lat.M].astype(complex)  # the lifts, one gather
        worst = max(worst, float(np.max(vilenkin._domination_rows(lat, Phi, F))))
    return {
        "suite": "domination",
        "instances": 2 * INSTANCES,
        "max_defect": worst,
        "tol": TOL_DOMINATION,
        "pass": worst <= TOL_DOMINATION,
    }


# -- criterion 11: R-bound witness ----------------------------------------------


def rbound_family(theta: float = 1.3, points: int = 16) -> list[complex]:
    half = points // 2
    mods = np.logspace(-2, 2, half)
    fam = [complex(m * math.cos(theta), m * math.sin(theta)) for m in mods]
    fam += [complex(m * math.cos(theta), -m * math.sin(theta)) for m in mods]
    return fam


def verify_rbound(update: bool = False) -> dict:
    baselines = load_baselines()
    params = FieldParams(2, 1, 1.0)
    p, theta, points = RBOUND_FAMILY
    fam = rbound_family(theta, points)
    ratio = calculus.rademacher_ratio(fam, p, RBOUND_TRIALS, SEED_RBOUND, params)
    ratio2 = calculus.rademacher_ratio(fam, p, RBOUND_TRIALS, SEED_RBOUND + 7, params)
    seed_stable = abs(ratio2 - ratio) <= 0.10 * ratio
    key = _bkey("rbound_p4", params)
    ok_base, ref = _check_baseline(baselines, key, ratio, update)
    if update:
        save_baselines(baselines)
    return {
        "suite": "rbound",
        "p": p,
        "trials": RBOUND_TRIALS,
        "seed": SEED_RBOUND,
        "ratio": ratio,
        "ratio_other_seed": ratio2,
        "baseline": ref,
        "seed_stable": seed_stable,
        "pass": ok_base and seed_stable,
    }


# -- criterion 12: maximal regularity --------------------------------------------


def verify_maxreg(update: bool = False) -> dict:
    baselines = load_baselines()
    rng = np.random.default_rng(SEED_PROFILES + 2)
    params = FieldParams(2, 1, 1.0)

    # single-mode forcing: one Fourier crown
    delta_hat = RadialProfile(params, 1, 1, [1.0])
    mode = radial.radial_fourier(delta_hat)
    single = evolution.ForcingSignal((0.0, 0.5, 1.0), (mode, -0.7 * mode))
    ratios = [evolution.max_regularity_report(single, 2.0, 2.0, n_time=4097)]
    for _ in range(10):
        profs = tuple(
            RadialProfile(
                params, -3, 3, rng.standard_normal(7) + 1j * rng.standard_normal(7)
            )
            for _ in range(2)
        )
        fs = evolution.ForcingSignal((0.0, 0.6, 1.0), profs)
        ratios.append(evolution.max_regularity_report(fs, 2.0, 2.0, n_time=4097))
    worst = max(ratios)

    profs = tuple(
        RadialProfile(
            params, -3, 3, rng.standard_normal(7) + 1j * rng.standard_normal(7)
        )
        for _ in range(3)
    )
    fs = evolution.ForcingSignal((0.0, 0.3, 0.7, 1.0), profs)
    x0 = RadialProfile(
        params, -3, 3, rng.standard_normal(7) + 1j * rng.standard_normal(7)
    )
    y_exact = evolution.solve_master(x0, fs, [1.0])[0]
    y_rk4 = evolution.solve_master_rk4(x0, fs, 1.0, steps_per_interval=8192)
    oracle_err = lp_norm(y_exact - y_rk4, 2) / lp_norm(y_exact, 2)

    p4 = evolution.max_regularity_report(fs, 4.0, 4.0, n_time=4097)
    ok_base, ref = _check_baseline(baselines, _bkey("maxreg_p4", params), p4, update)
    if update:
        save_baselines(baselines)
    return {
        "suite": "maxreg",
        "max_l2_ratio": worst,
        "oracle_rel_err": oracle_err,
        "p4_ratio": p4,
        "p4_baseline": ref,
        "tol_ratio": TOL_MAXREG,
        "tol_oracle": TOL_MAXREG_ORACLE,
        "pass": worst <= 1.0 + TOL_MAXREG and oracle_err <= TOL_MAXREG_ORACLE and ok_base,
    }


# -- kernel sweep rows (CSV backend for the CLI) ---------------------------------


def kernel_sweep_rows(params: FieldParams) -> list[dict]:
    """One row per sector grid point: kernel modulus and both estimate ratios."""
    rows = []
    for z, l1, (mags, ratios) in _sector_grid(params):
        l1_ratio = l1.l1 * z.real / abs(z)
        for k_x, mag, ratio in zip(range(-2, 3), mags.tolist(), ratios.tolist()):
            rows.append(
                {
                    "q": params.q,
                    "n": params.n,
                    "alpha": params.alpha,
                    "re_z": z.real,
                    "im_z": z.imag,
                    "k_x": k_x,
                    "abs_K": mag,
                    "bound_ratio": ratio,
                    "l1_ratio": l1_ratio,
                }
            )
    return rows


ALL_SUITES = {
    "spheres": verify_spheres,
    "gamma": verify_gamma,
    "levy": verify_levy,
    "kernel-agree": verify_kernel_agreement,
    "semigroup": verify_semigroup,
    "kernel-bounds": verify_kernel_bounds,
    "taibleson": verify_taibleson,
    "calculus": verify_calculus,
    "squarefn": verify_squarefn,
    "doob": verify_doob,
    "domination": verify_domination,
    "rbound": verify_rbound,
    "maxreg": verify_maxreg,
}
