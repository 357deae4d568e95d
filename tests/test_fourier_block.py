"""The batched Fourier-diagonal routes against their loop versions.

Each reference below is the loop the batched code replaced: one transform
per row, time or trial, built from the public ``radial_fourier``,
``semigroup_apply`` and ``lp_norm``, with scalar symbol calls.  The batched
routes change the order of no sum, so the tolerance is set in advance at a
few hundred float64 ulps.  The square function is the exception: it is an
exact quadratic form in time, and its reference is the log-midpoint time
grid it replaced, which for a symbol of decay exponent 1 on these windows
agrees with that form to a few ulps, so the same tolerance holds there.
The Rademacher witness sums its z rows before the back transform, not
after; that reorders sums by a few ulps, within the same tolerance.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qharm
from qharm import radial
from qharm.calculus import rademacher_ratio, semigroup_apply, square_function
from qharm.evolution import (
    ForcingSignal,
    _fourier_window,
    max_regularity_report,
    solve_master,
)
from qharm.field import FieldParams, ball_measure
from qharm.radial import LOG_FLOOR, RadialProfile, lp_norm, radial_fourier
from qharm.verification import rbound_family, standard_symbols

from conftest import make_profile

REL = 1e-13

# the field triples of the benchmark's diagonal workload
DIAG = (FieldParams(2, 1, 1.0), FieldParams(3, 2, 0.5), FieldParams(2, 2, 2.0))
DIAG_IDS = ["q2n1a1", "q3n2a0.5", "q2n2a2"]


# square_function (tuple and scalar p, the standard symbols), semigroup_apply
# and solve_master on the DIAG fields and windows, and apart from them
# rademacher_ratio (one family over three blocks): two SHA-256 a field of
# every output's bytes, in a fresh process at the BLAS thread count the
# environment sets (one when it sets none).  No sum on these routes depends
# on that count: the digests are the same at one and two threads.
PIN_SCRIPT = """
import hashlib
import math

import numpy as np
from qharm.calculus import rademacher_ratio, semigroup_apply, square_function
from qharm.evolution import ForcingSignal, solve_master
from qharm.field import FieldParams
from qharm.radial import RadialProfile
from qharm.verification import rbound_family, standard_symbols


def update(digest, prof):
    digest.update(np.array([prof.kmin, prof.kmax]).tobytes())
    digest.update(prof.coeffs.tobytes())
    digest.update(np.array([prof.tail], dtype=complex).tobytes())


for params in (FieldParams(2, 1, 1.0), FieldParams(3, 2, 0.5), FieldParams(2, 2, 2.0)):
    top = math.floor(math.log(16.0) / (params.alpha * math.log(params.q))) - 1
    kmin, kmax = top - 5, top
    rng = np.random.default_rng(20240810)
    digest, ratios = hashlib.sha256(), hashlib.sha256()
    gs = [RadialProfile(params, kmin, kmax, rng.standard_normal(6) + 1j * rng.standard_normal(6),
                        tail=tail) for tail in (0.0, 0.3, -0.4 + 0.2j)]
    for g in gs:
        for sym in standard_symbols():
            digest.update(np.array(square_function(g, sym, (2.0, 1.5, 3.0))).tobytes())
            digest.update(np.array(square_function(g, sym, 4.0)).tobytes())
        for z in (0.5, 1.0 + 2.0j, 30.0 - 0.5j):
            update(digest, semigroup_apply(z, g))
    for theta, trials in ((1.3, 40), (0.7, 3)):
        ratio = rademacher_ratio(rbound_family(theta, 16), 4.0, trials, 99, params, (kmin, kmax))
        ratios.update(np.array(ratio).tobytes())
    forcing = ForcingSignal((0.0, 0.3, 0.7, 1.0), tuple(gs))
    for prof in solve_master(gs[0], forcing, [0.0, 0.1, 0.55, 1.0]):
        update(digest, prof)
    print(digest.hexdigest(), ratios.hexdigest())
"""
DIAG_SHA256 = [
    "04407cf63ad0a62d3975d963157a1d9b594f3dae73ab6b99581720fb27cf24ca",
    "b43b6f47a3ea9ad799711cce7ab1ec8b6779fd736bd9fdf97aa923516f1d4691",
    "c3297fcf0def960e8b5959fae4c0f21590dc7ef4290a3407616fbe9935d07641",
]
RATIO_SHA256 = [
    "ddeea75de2902720cea52fe073a28ab00c87b909020dcd49f50adbd22ad488bb",
    "7d124d1b4dc10291a33fe0752e5827de4551dfa4c63d38a0144d0e5534305540",
    "4b93fcdbd8239112621415db90573ebcbfc22e8f36dc97327e559d37e712e80e",
]
# the one-profile multiplier routes on wide windows: hinf_apply_direct for the
# standard symbols, semigroup_apply and taibleson_fourier on seeded profiles
# of 190 and 910 crowns, with and without a tail, on four fields of small
# alpha (long tail extensions); one SHA-256 a field of every output window,
# coefficient array and tail, in a fresh process with BLAS at one thread
WIDE_PIN_SCRIPT = """
import hashlib

import numpy as np
from qharm.calculus import hinf_apply_direct, semigroup_apply
from qharm.field import FieldParams
from qharm.radial import RadialProfile
from qharm.taibleson import taibleson_fourier
from qharm.verification import standard_symbols

for params in (FieldParams(2, 1, 0.25), FieldParams(2, 1, 0.5), FieldParams(3, 1, 0.25),
               FieldParams(3, 1, 0.5)):
    rng = np.random.default_rng(20240810)
    digest = hashlib.sha256()
    for m in (190, 910):
        for tail in (0.0, 0.3 - 0.2j):
            vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            g = RadialProfile(params, -(m // 2), m - m // 2 - 1, vals, tail=tail)
            outs = [hinf_apply_direct(sym, g) for sym in standard_symbols()]
            outs += [semigroup_apply(z, g) for z in (0.5, 1.0 + 2.0j)]
            for p in [*outs, taibleson_fourier(g)]:
                digest.update(np.array([p.kmin, p.kmax]).tobytes())
                digest.update(p.coeffs.tobytes())
                digest.update(np.array([p.tail], dtype=complex).tobytes())
    print(digest.hexdigest())
"""
WIDE_SHA256 = [
    "4d89ce6b0f5a7359e90446203b5aaf29921837db9d9c375f9fb7a32a3ee35a97",
    "b52c951caa3c3c5d723b5f75f2ee009815ad9a58fb00f6952f58f7b37f6c05b4",
    "43a706acbc31b234af053f5e1b4cd22c72fcb92b618c1ab01a32088fe8f06f5c",
    "4acf0daf33f5d4577ea0555aca3281b8780b03a89eeabe4c2acdd05b5b3f859f",
]


def diag_window(params):
    """Six crowns whose largest eigenvalue is at most 16."""
    top = math.floor(math.log(16.0) / (params.alpha * math.log(params.q))) - 1
    return top - 5, top


def assert_close(a: RadialProfile, b: RadialProfile):
    assert (a.kmin, a.kmax) == (b.kmin, b.kmax)
    scale = max(np.max(np.abs(b.coeffs)), abs(b.tail))
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= REL * scale
    assert abs(a.tail - b.tail) <= REL * scale


# -- references ----------------------------------------------------------------


def fourier_1d(f: RadialProfile) -> RadialProfile:
    """The one-row suffix-sum transform, written on 1-d arrays."""
    q, n = f.params.q, f.params.n
    ks = np.arange(f.kmin, f.kmax + 1, dtype=float)
    terms = f.coeffs * ((1.0 - float(q) ** (-n)) * np.power(float(q), -ks * n))
    T = np.empty(f.kmax - f.kmin + 2, dtype=complex)
    T[-1] = f.tail * float(ball_measure(f.kmax + 1, f.params))
    T[:-1] = np.cumsum(terms[::-1])[::-1] + T[-1]
    js = np.arange(-f.kmax - 1, -f.kmin + 1, dtype=float)
    prev = np.concatenate((f.coeffs[::-1], [0.0 + 0.0j]))
    out = T[::-1] - prev * np.power(float(q), n * js)
    return RadialProfile(f.params, -f.kmax - 1, -f.kmin, out, tail=complex(T[0]))


def square_function_loop(g, phi, p):
    kmin, kmax, ghat, _, lams = radial._extended_hat(g, phi.decay)
    # log-midpoint times with 12 per decade, t * lam covering [1e-7, 1e7]
    t_min, t_max = 1e-7 / float(lams.max()), 1e7 / float(lams.min())
    nn = math.ceil(12 * math.log10(t_max / t_min))
    edges = np.linspace(math.log(t_min), math.log(t_max), nn + 1)
    grid = np.exp((edges[:-1] + edges[1:]) / 2.0)
    dlog = float(np.mean(np.diff(np.log(grid))))
    acc, acc_tail = 0.0, 0.0
    for t in grid:
        factors = np.array([phi.fn(t * lam) for lam in lams], dtype=complex)
        prof = radial_fourier(RadialProfile(g.params, kmin, kmax, ghat * factors))
        acc = acc + np.abs(prof.coeffs) ** 2 * dlog
        acc_tail += abs(prof.tail) ** 2 * dlog
    s = RadialProfile(g.params, prof.kmin, prof.kmax, np.sqrt(acc), tail=math.sqrt(acc_tail))
    return lp_norm(s, p)


def rademacher_loop(family, p, trials, seed, params, window):
    zs = [complex(z) for z in family]
    rng = np.random.default_rng(seed)
    kmin, kmax = window
    m = kmax - kmin + 1
    best = 0.0
    for _ in range(trials):
        eps = rng.integers(0, 2, size=len(zs)) * 2 - 1
        gs = [
            RadialProfile(params, kmin, kmax, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            for _ in zs
        ]
        num = den = RadialProfile.zeros(params, kmin, kmax)
        for e, z, g in zip(eps, zs, gs):
            num = num + float(e) * (z.real / abs(z)) * semigroup_apply(z, g)
            den = den + float(e) * g
        if lp_norm(den, p) > 0:
            best = max(best, lp_norm(num, p) / lp_norm(den, p))
    return best


def duhamel_scalar(lams, t, a, b):
    """int_a^{min(b,t)} exp(-lam (t-s)) ds at one time t."""
    b_eff = min(b, t)
    if b_eff <= a:
        return np.zeros_like(lams)
    lead = np.exp(np.maximum(LOG_FLOOR, -lams * (t - b_eff)))
    return -lead * np.expm1(-lams * (b_eff - a)) / lams


def solve_master_loop(x0, forcing, times):
    kmin, kmax, H, tails, lams = _fourier_window(x0, forcing.profiles, max(times))
    tails = tails.tolist()
    intervals = list(zip(H[1:], tails[1:], forcing.breakpoints, forcing.breakpoints[1:]))
    outs = []
    for t in times:
        coef = H[0] * np.exp(-t * lams)
        tail = tails[0]
        for fc, ft, a, b in intervals:
            coef = coef + fc * duhamel_scalar(lams, t, a, b)
            tail = tail + ft * max(0.0, min(b, t) - a)
        prof = RadialProfile(x0.params, kmin, kmax, coef, tail=tail)
        outs.append(radial_fourier(prof))
    return outs


def max_regularity_loop(forcing, p, q_space, n_time):
    den = sum(
        lp_norm(pr, q_space) ** p * (b - a)
        for pr, a, b in zip(forcing.profiles, forcing.breakpoints, forcing.breakpoints[1:])
    ) ** (1.0 / p)
    grid = np.union1d(np.linspace(0.0, forcing.T, n_time), np.array(forcing.breakpoints))
    kmin, kmax, H, _, lams = _fourier_window(None, forcing.profiles, forcing.T)
    norms = []
    for t in grid:
        coef = np.zeros(lams.size, dtype=complex)
        for fc, a, b in zip(H, forcing.breakpoints, forcing.breakpoints[1:]):
            coef += fc * duhamel_scalar(lams, float(t), a, b)
        dhat = RadialProfile(forcing.params, kmin, kmax, coef * lams)
        norms.append(lp_norm(radial_fourier(dhat), q_space))
    return float(np.trapezoid(np.array(norms) ** p, grid)) ** (1.0 / p) / den


# -- the block -------------------------------------------------------------------


@pytest.mark.parametrize("params", [*DIAG, FieldParams(5, 1, 0.5)], ids=[*DIAG_IDS, "q5n1"])
@pytest.mark.parametrize(
    "rows, kmin, kmax", [(1, 0, 0), (3, -3, 4), (17, -12, 9), (256, -30, 35)]
)
def test_block_rows_equal_one_row_transforms(params, rows, kmin, kmax, rng):
    """Every row bit for bit, for C contiguous and for C a view with reversed
    rows and reversed, strided crowns; the 256-row block on 66 crowns has
    the shape of the Rademacher back transform."""
    m = kmax - kmin + 1
    wide = rng.standard_normal((rows, 2 * m)) + 1j * rng.standard_normal((rows, 2 * m))
    tails = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    for C in (np.ascontiguousarray(wide[:, :m]), wide[::-1, ::-2]):
        okmin, okmax, out, out_tails = radial._fourier_block(params, kmin, kmax, C, tails)
        for i in range(rows):
            f = RadialProfile(params, kmin, kmax, C[i], tail=tails[i])
            for ref in (radial_fourier(f), fourier_1d(f)):
                assert (okmin, okmax) == (ref.kmin, ref.kmax)
                assert np.array_equal(out[i], ref.coeffs)
                assert out_tails[i] == ref.tail


def test_block_default_tails_are_zero(rng):
    C = rng.standard_normal((4, 6)) + 0j
    a = radial._fourier_block(DIAG[0], -2, 3, C)
    b = radial._fourier_block(DIAG[0], -2, 3, C, np.zeros(4))
    assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])


# -- batched routes against their loops ------------------------------------------


@pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
def test_square_function_matches_loop(params, rng):
    phi = standard_symbols()[0]
    g = make_profile(rng, params, *diag_window(params), tail=0.3)
    for p in (2.0, 1.5, 3.0):
        ref = square_function_loop(g, phi, p)
        assert abs(square_function(g, phi, p=p) - ref) <= REL * ref


@pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
def test_rademacher_matches_loop(params):
    fam, window = rbound_family(1.3, 16), diag_window(params)
    ref = rademacher_loop(fam, 4.0, 6, 99, params, window)
    assert abs(rademacher_ratio(fam, 4.0, 6, 99, params, window) - ref) <= REL * ref


@pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
def test_solve_master_matches_loop(params, rng):
    window = diag_window(params)
    profs = tuple(make_profile(rng, params, *window, tail=0.2) for _ in range(3))
    forcing = ForcingSignal((0.0, 0.3, 0.7, 1.0), profs)
    x0 = make_profile(rng, params, *window, tail=-0.4)
    times = [0.0, 0.1, 0.3, 0.55, 0.7, 1.0]
    for out, ref in zip(solve_master(x0, forcing, times), solve_master_loop(x0, forcing, times)):
        assert_close(out, ref)


@pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
def test_max_regularity_matches_loop(params, rng):
    profs = tuple(make_profile(rng, params, *diag_window(params)) for _ in range(2))
    forcing = ForcingSignal((0.0, 0.6, 1.0), profs)
    for p in (2.0, 4.0):
        ref = max_regularity_loop(forcing, p, p, 1025)
        assert abs(max_regularity_report(forcing, p, p, n_time=1025) - ref) <= REL * ref


@pytest.fixture(scope="module")
def diag_digests():
    """The (routes, ratio) digest pair of each DIAG field, from one PIN_SCRIPT run."""
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           **os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qharm.__file__))}
    out = subprocess.run([sys.executable, "-c", PIN_SCRIPT], env=env, capture_output=True,
                         text=True, check=True).stdout
    return [line.split() for line in out.splitlines()]


def test_diag_outputs_pinned(diag_digests):
    assert [routes for routes, _ in diag_digests] == DIAG_SHA256


def test_diag_ratio_pinned(diag_digests):
    assert [ratio for _, ratio in diag_digests] == RATIO_SHA256


def test_wide_outputs_pinned():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.path.dirname(os.path.dirname(qharm.__file__))}
    out = subprocess.run([sys.executable, "-c", WIDE_PIN_SCRIPT], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == WIDE_SHA256
