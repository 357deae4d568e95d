import cmath
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import qharm
from qharm import calculus, radial, verification
from qharm.calculus import (
    _BLOCK_ELEMS,
    _CONTOUR_EPS,
    _CONTOUR_NODES,
    _G_EPS,
    SymbolFunction,
    _contour_factors,
    _contour_nodes,
    _contour_rule,
    _semigroup_decay,
    _semigroup_factors,
    _toeplitz_kernel,
    hinf_apply_contour,
    hinf_apply_direct,
    rademacher_ratio,
    semigroup_apply,
    square_function,
)
from qharm.errors import QuadratureError, WindowOverflowError
from qharm.field import FieldParams
from qharm.kernel import default_mass_window, kernel_profile
from qharm.radial import (
    RadialProfile,
    convolve,
    fourier_multiplier_apply,
    lp_norm,
)
from qharm.taibleson import taibleson_fourier
from qharm.verification import (
    RBOUND_FAMILY,
    SEED_RBOUND,
    TOL_CONTOUR,
    rbound_family,
    standard_symbols,
)

from conftest import make_profile

P21 = FieldParams(2, 1, 1.0)

PHI = SymbolFunction(lambda t: t / (1 + t) ** 2, (1.0, 1.1), 1.4)
ROOT = SymbolFunction(lambda t: np.sqrt(t) / (1 + t), (0.5, 1.2), 1.4)
NARROW = SymbolFunction(lambda t: t / (1 + t * t), (1.0, 1.3), 1.0)
# decay exponent 0.03: the cut-off eigenvalue (1e-16 / C)**(1/s) underflows
SLOW = SymbolFunction(lambda t: t**0.03 / (1 + t**0.06), (0.03, 1.1), 1.0)
# the contour radius range of DECAY_01 spans about 10**(+-157), past the float
# ratio r1 / r0; on ONES at s = 0.05 the cut-off eigenvalue is 1e-320, subnormal
DECAY_01 = SymbolFunction(lambda t: t**0.1 / (1 + t) ** 0.2, (0.1, 2.0), 1.4)
DECAY_005 = SymbolFunction(lambda t: t**0.05 / (1 + t) ** 0.1, (0.05, 1.0), 1.4)
ONES = RadialProfile(P21, -3, 2, np.ones(6))

# the field triples of the benchmark's diagonal workload
DIAG = (FieldParams(2, 1, 1.0), FieldParams(3, 2, 0.5), FieldParams(2, 2, 2.0))
DIAG_IDS = ["q2n1a1", "q3n2a0.5", "q2n2a2"]
# semigroup times with a NaN or infinite part; each has Re z > 0 or a NaN real part
NONFINITE_TIMES = (
    complex(1, math.nan), complex(math.nan, 1), complex(math.inf, 0), complex(1, math.inf)
)
NONFINITE_IDS = ["nan-im", "nan-re", "inf-re", "inf-im"]
# standard_symbols() in mpmath arithmetic, and their G(0) = int_0^oo |phi(u)|**2 du/u
MP_SYMBOLS = (
    lambda t: t / (1 + t) ** 2,
    lambda t: mpmath.sqrt(t) / (1 + t),
    lambda t: t / (1 + t * t),
)
G0 = (Fraction(1, 6), Fraction(1), Fraction(1, 2))

ROUTES = {
    "direct": hinf_apply_direct,
    "squarefn": lambda sym, g: square_function(g, sym),
    "contour": hinf_apply_contour,
}

CONTOUR_FIELDS = (FieldParams(2, 1, 1.0), FieldParams(3, 2, 0.5), FieldParams(5, 1, 2.0))
CONTOUR_FIELD_IDS = ["q2n1a1", "q3n2a0.5", "q5n1a2"]
# the grid of the bound's test: 5 fields x 4 symbols x 5 angles, less the two
# (field, s = 0.2) pairs whose window extension leaves the floats: 90 cases
BOUND_FIELDS = (*CONTOUR_FIELDS, FieldParams(2, 2, 2.0), FieldParams(2, 1, 0.25))
BOUND_FIELD_IDS = [*CONTOUR_FIELD_IDS, "q2n2a2", "q2n1a0.25"]
BOUND_SYMBOLS = (
    *standard_symbols(), SymbolFunction(lambda t: t**0.2 / (1 + t) ** 0.4, (0.2, 1.0), 1.4)
)
# hinf_apply_contour(sym, g) of the standard symbols on seeded profiles with
# and without a tail: one SHA-256 a field of every output window, coefficient
# array, tail and error bound, in a fresh process with BLAS at one thread
PIN_SCRIPT = """
import hashlib

import numpy as np
from qharm.calculus import hinf_apply_contour
from qharm.field import FieldParams
from qharm.radial import RadialProfile
from qharm.verification import standard_symbols
for params in (FieldParams(2, 1, 1.0), FieldParams(3, 2, 0.5), FieldParams(5, 1, 2.0),
               FieldParams(2, 2, 2.0)):
    rng = np.random.default_rng(20240810)
    digest = hashlib.sha256()
    for tail in (0.0, 0.25 - 0.1j):
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g = RadialProfile(params, -3, 4, vals, tail=tail)
        for sym in standard_symbols():
            res = hinf_apply_contour(sym, g)
            p = res.profile
            digest.update(np.array([p.kmin, p.kmax]).tobytes())
            digest.update(p.coeffs.tobytes())
            digest.update(np.array([p.tail, res.bound], dtype=complex).tobytes())
    print(digest.hexdigest())
"""
CONTOUR_SHA256 = [
    "41b938de6023407177a3caa82b8bdf5009e173af4c7e6f7fa8c269473797fd6a",
    "21582a6df8a902b66b84bd8bb3f59ba47ec113aea70c4d1f3351eb54374a2459",
    "1b4641fbdc5bf0341d972460335f3ef0fde0570fd331bbc3f71d53152170cf56",
    "c965911246ea77a3f9486316a89725e3f7c8bf876436c70f72b012c4adf49b79",
]


# -- references ------------------------------------------------------------------


def contour_factors_rays(lams, sym, nu, u, w):
    """The quadrature on log-radius nodes u with weights w as one complex
    division per ray, summed ray by ray."""
    r = np.exp(u)
    total = np.zeros(lams.size, dtype=complex)
    for sign, orient in ((-1.0, +1.0), (+1.0, -1.0)):
        zs = r * np.exp(1j * sign * nu)
        integ = (w * sym.fn(zs) * zs)[:, None] / (zs[:, None] - lams[None, :])
        total += orient * integ.sum(axis=0)
    return total / (2j * math.pi)


def toeplitz_kernel_lags(phi, step, m):
    """G(0..m) and its bound, summed for the m + 1 lags asked for only: the
    per-call kernel that the memoised one replaced."""
    s, C = phi.decay
    a = 0.99 * phi.sector_angle
    K = math.ceil(step * math.log(4 * C * C / (s * _G_EPS) + 1) / (2 * math.pi * a))
    h, S = step / K, math.log(2 * C * C / (s * _G_EPS)) / s
    half = math.ceil(S / h)
    v = np.zeros(1 << (2 * half).bit_length(), dtype=complex)
    v[: 2 * half + 1] = phi.fn(np.exp(h * np.arange(-half, half + 1)))
    D, rows = min(m, 2 * half // K), max(1, _BLOCK_ELEMS // v.size)
    lagged = np.lib.stride_tricks.sliding_window_view(np.pad(v, (0, D * K)), v.size)[::K]
    G = np.zeros(m + 1, dtype=complex)
    for d in range(0, D + 1, rows):
        P = lagged[d : d + rows] * v.conj()
        while P.shape[1] > 1:
            P = P[:, : P.shape[1] // 2] + P[:, P.shape[1] // 2 :]
        G[d : d + len(P)] = h * P[:, 0]
    return G, 2.0**-53 * (math.log2(v.size) + 8) * G[0].real + 2 * _G_EPS


def rademacher_trial_loop(family, p, trials, seed, params, window=(-4, 4)):
    """The Rademacher ratio as one transform block per trial."""
    zs = [complex(z) for z in family]
    coss = np.array([z.real / abs(z) for z in zs])
    decays = [_semigroup_decay(z) for z in zs]
    zcol = np.array(zs)[:, None]
    rng = np.random.default_rng(seed)
    kmin, kmax = window
    best = 0.0
    for _ in range(trials):
        eps = (rng.integers(0, 2, size=len(zs)) * 2 - 1).astype(float)
        draws = rng.standard_normal((len(zs), 2, kmax - kmin + 1))
        gs = draws[:, 0] + 1j * draws[:, 1]
        hkmin, hkmax, hats, htails = radial._fourier_block(params, kmin, kmax, gs)
        top = max(
            radial._hat_depth(params, hkmax, abs(t), d) for t, d in zip(htails.tolist(), decays)
        )
        hats = np.column_stack((hats, np.repeat(htails[:, None], top - hkmax, axis=1)))
        lams = np.power(float(params.q), -params.alpha * np.arange(hkmin, top + 1, dtype=float))
        hats *= _semigroup_factors(zcol, lams)
        okmin, okmax, outs, otails = radial._fourier_block(params, hkmin, top, hats, htails)
        num = ((eps * coss)[:, None] * np.column_stack((outs, otails))).sum(axis=0)
        den = (eps[:, None] * np.column_stack((gs, 0.0 * eps))).sum(axis=0)
        dval = radial._lp_norms(params, kmin, kmax, den[None, :-1], den[-1:], p)[0]
        nval = radial._lp_norms(params, okmin, okmax, num[None, :-1], num[-1:], p)[0]
        if dval > 0:
            best = max(best, nval / dval)
    return best


class TestSymbolFunction:
    def test_decay_certificate_checked(self):
        with pytest.raises(ValueError):
            SymbolFunction(lambda t: 1.0 + 0 * t, (1.0, 1.0), 1.0)  # no decay
        with pytest.raises(ValueError):
            SymbolFunction(lambda t: t / (1 + t * t), (1.0, 1.0), 1.0)  # C too small

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            SymbolFunction(lambda t: t / (1 + t) ** 2, (1.0, 1.1), 3.5)


class TestDirectCalculus:
    def test_identity_symbol(self, rng):
        g = make_profile(rng, P21, -3, 3)  # zero tail: no zero-frequency mass
        out = fourier_multiplier_apply(g, lambda lam: 1.0, 1.0, (1.0, 1.0))
        assert lp_norm(out - g, 2) < 1e-12

    def test_exponential_symbol_is_semigroup(self, rng):
        g = make_profile(rng, P21, -3, 3, tail=0.5)
        t = 0.7
        a = fourier_multiplier_apply(g, lambda lam: np.exp(-t * lam), 1.0, (1.0, 1.0))
        b = semigroup_apply(t, g)
        assert lp_norm(a - b, 2) < 1e-13

    def test_diagonal_contraction(self, rng):
        g = make_profile(rng, P21, -4, 4)
        out = hinf_apply_direct(PHI, g)
        sup = 0.25  # max of t/(1+t)^2 on (0, inf)
        assert lp_norm(out, 2) <= sup * lp_norm(g, 2) * (1 + 1e-12)

    def test_multiplicativity(self, rng):
        g = make_profile(rng, P21, -3, 4, tail=0.3)
        prod = SymbolFunction(
            lambda t: PHI.fn(t) * ROOT.fn(t), (1.5, 1.4), 1.4
        )
        a = hinf_apply_direct(prod, g)
        b = hinf_apply_direct(PHI, hinf_apply_direct(ROOT, g))
        assert lp_norm(a - b, 2) <= 1e-12 * max(1.0, lp_norm(a, 2))


class TestContourCalculus:
    @pytest.mark.parametrize("sym", [PHI, ROOT, NARROW], ids=["phi", "root", "narrow"])
    def test_matches_direct(self, sym, rng):
        g = make_profile(rng, P21, -3, 4, tail=0.25)
        direct = hinf_apply_direct(sym, g)
        res = hinf_apply_contour(sym, g)
        rel = lp_norm(res.profile - direct, 2) / lp_norm(direct, 2)
        assert rel <= 1e-6
        assert lp_norm(res.profile - direct, 2) <= res.bound <= 1e-6 * lp_norm(direct, 2)

    def test_nu_independence(self, rng):
        g = make_profile(rng, P21, -3, 4)
        outs = [hinf_apply_contour(PHI, g, nu).profile for nu in (0.3, 0.6, 1.0)]
        base = lp_norm(outs[0], 2)
        assert lp_norm(outs[0] - outs[1], 2) <= 1e-6 * base
        assert lp_norm(outs[0] - outs[2], 2) <= 1e-6 * base

    @pytest.mark.parametrize("params", CONTOUR_FIELDS, ids=CONTOUR_FIELD_IDS)
    def test_matches_direct_at_every_angle(self, params, rng):
        for sym in standard_symbols():
            g = make_profile(rng, params, -3, 4, tail=0.25 - 0.1j)
            direct = hinf_apply_direct(sym, g)
            for nu in (0.3, 0.6, 0.95):
                res = hinf_apply_contour(sym, g, nu)
                assert lp_norm(res.profile - direct, 2) <= TOL_CONTOUR * lp_norm(direct, 2)

    @pytest.mark.parametrize("params", BOUND_FIELDS, ids=BOUND_FIELD_IDS)
    def test_bound_holds_on_the_grid(self, params, rng):
        # every angle of the grid, nu = 0.1 too, is certified, and the bound holds
        g = make_profile(rng, params, -3, 4, tail=0.25 - 0.1j)
        for sym in BOUND_SYMBOLS:
            try:
                direct = hinf_apply_direct(sym, g)
            except WindowOverflowError:  # s = 0.2 past the floats: both routes refuse
                with pytest.raises(WindowOverflowError):
                    hinf_apply_contour(sym, g)
                continue
            for nu in (0.1, 0.3, 0.5, 0.9, 0.95 * sym.sector_angle):
                res = hinf_apply_contour(sym, g, nu)
                assert lp_norm(res.profile - direct, 2) <= res.bound
                assert res.bound <= _CONTOUR_EPS * lp_norm(g, 2)

    def test_edge_angle_refused_before_any_allocation(self):
        # at nu = 0.999 theta the least rule has about 350,000 nodes
        sym, g = standard_symbols()[2], RadialProfile(P21, -3, 4, np.ones(8))
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match=(
                r"^contour angle 0\.999 in the sector of half-angle 1\.0 needs \d+ nodes "
                rf"\(cap {_CONTOUR_NODES}\)$"
            )):
                hinf_apply_contour(sym, g, 0.999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the rule's W alone would take 11 MB

    def test_default_angle_pinned(self):
        # BLAS at one thread: the quadrature's matrix product sums in an order
        # that depends on the thread count
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.path.dirname(os.path.dirname(qharm.__file__)))
        out = subprocess.run([sys.executable, "-c", PIN_SCRIPT], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == CONTOUR_SHA256

    def test_linearity_in_symbol(self, rng):
        g = make_profile(rng, P21, -2, 3)
        scaled = SymbolFunction(lambda t: 3.5 * PHI.fn(t), (1.0, 4.0), 1.4)
        a = hinf_apply_contour(scaled, g).profile
        b = 3.5 * hinf_apply_contour(PHI, g).profile
        assert lp_norm(a - b, 2) <= 1e-9 * lp_norm(b, 2)

    def test_angle_outside_sector_rejected(self, rng):
        g = make_profile(rng, P21, -2, 2)
        for nu in (1.2, 1.0, 0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="must lie inside the symbol sector"):
                hinf_apply_contour(NARROW, g, nu)

    @pytest.mark.parametrize(
        "sym",
        [*standard_symbols(), SymbolFunction(lambda t: t**0.2 / (1 + t) ** 0.4, (0.2, 1.0), 1.4)],
        ids=["s1", "s0.5", "s1narrow", "s0.2"],
    )
    def test_factors_match_per_ray_division(self, sym, rng):
        g = make_profile(rng, P21, -3, 4, tail=0.25)
        kmin, _, _, _, lams = radial._extended_hat(g, sym.decay)
        rule = _contour_rule(sym, 0.5, math.log(2.0), _CONTOUR_EPS)
        h, D = rule[0], rule[2]
        got = _contour_factors(rule, kmin, lams, 0.5)
        ref = contour_factors_rays(lams, sym, 0.5, h * np.arange(-D, D + 1), h)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_one_symbol_call_per_apply(self, rng):
        # one call builds the rule; it is memoised per (symbol, angle, step)
        calls = []
        sym = SymbolFunction(lambda t: calls.append(t.size) or PHI.fn(t), PHI.decay, 1.4)
        calls.clear()  # the construction's spot check
        hinf_apply_contour(sym, make_profile(rng, P21, -3, 4, tail=0.25))
        assert len(calls) == 1
        hinf_apply_contour(sym, make_profile(rng, P21, -2, 5))
        assert len(calls) == 1
        hinf_apply_contour(sym, make_profile(rng, P21, -2, 5), 0.7)
        assert len(calls) == 2
        assert not _contour_rule(sym, 0.5, math.log(2.0), _CONTOUR_EPS)[3].flags.writeable

    def test_radius_range_past_the_float_ratio(self):
        res = hinf_apply_contour(DECAY_01, ONES)
        direct = hinf_apply_direct(DECAY_01, ONES)
        assert lp_norm(res.profile - direct, 2) <= TOL_CONTOUR * lp_norm(direct, 2)

    def test_nonconvergence_detected(self, rng, monkeypatch):
        # a rule sized for 1e-4 cannot certify a result to 1e-10
        monkeypatch.setattr(calculus, "_CONTOUR_EPS", 1e-4)
        monkeypatch.setattr(calculus, "_CONTOUR_TOL", 1e-10)
        g = make_profile(rng, P21, -2, 2)
        with pytest.raises(QuadratureError, match=r"not certified: .* \(tol 1e-10\)$"):
            hinf_apply_contour(PHI, g)


class TestContourNodes:
    """The contour nodes sit on the eigenvalue lattice of the field step, and
    the range and step are the least that meet the a-priori bound."""

    # (decay (s, C), sector angle theta, angle nu), field step
    CONFIGS = [
        (((1.0, 1.1), 1.4, 0.5), math.log(2.0)),
        (((0.5, 1.2), 1.4, 0.1), 0.5 * math.log(3.0)),
        (((1.0, 1.3), 1.0, 0.95), 2.0 * math.log(5.0)),
        (((0.2, 1.0), 1.4, 1.33), 0.5 * math.log(2.0)),
        (((10.0 / 3.0, 1.0), 2.0, 1.7), 0.002 * math.log(2.0)),  # K = 1, nu > pi / 2
    ]

    @staticmethod
    def end_term(contour, h, D):
        """The truncation bound of the nodes past one end of d = -D..D."""
        (s, C), _theta, nu = contour
        return C * math.exp(-s * D * h) / (math.pi * s * math.sin(min(nu, math.pi / 2)))

    @staticmethod
    def strip_terms(contour, h):
        """The discretisation bound at every a of the rule's grid."""
        (s, C), theta, nu = contour
        a = min(nu, theta - nu) * np.arange(1, 64) / 64
        M = 2 * C / (s * np.sin(np.minimum(nu - a, math.pi / 2)))
        with np.errstate(over="ignore"):
            return 2 * M / math.pi / np.expm1(2 * math.pi * a / h)

    @pytest.mark.parametrize("contour, step", CONFIGS)
    def test_lattice_spacing_and_cover(self, contour, step):
        h, K, D, _bound = _contour_nodes(contour[0], *contour[1:], step, _CONTOUR_EPS)
        assert K * h == pytest.approx(step, rel=1e-15)
        # the range e**(+-D h) is the least whose either end meets eps / 4
        assert self.end_term(contour, h, D) <= _CONTOUR_EPS / 4 < self.end_term(contour, h, D - 1)
        assert math.exp(-D * h) >= sys.float_info.min and math.isfinite(math.exp(D * h))

    @pytest.mark.parametrize("contour, step", CONFIGS)
    def test_step_is_the_least_meeting_the_bound(self, contour, step):
        h, K, D, bound = _contour_nodes(contour[0], *contour[1:], step, _CONTOUR_EPS)
        assert self.strip_terms(contour, h).min() <= _CONTOUR_EPS / 2
        assert K == 1 or self.strip_terms(contour, step / (K - 1)).min() > _CONTOUR_EPS / 2
        strip = self.strip_terms(contour, h).min()
        assert bound == pytest.approx(2 * self.end_term(contour, h, D) + strip, rel=1e-14)
        assert bound <= _CONTOUR_EPS

    @staticmethod
    def float_edge():
        """Decay exponents ok > bad on either side of where the rule for
        C = 1.1, theta = 1.0, nu = 0.5 at q = 3 first leaves the normal floats."""
        ok, bad = 0.1, 0.03
        for _ in range(40):
            mid = 0.5 * (ok + bad)
            try:
                _contour_nodes((mid, 1.1), 1.0, 0.5, math.log(3.0), _CONTOUR_EPS)
                ok = mid
            except QuadratureError:
                bad = mid
        return ok, bad

    @pytest.mark.parametrize("end", ["min-normal", "subnormal", "max"])
    def test_nodes_past_the_normal_floats_refused(self, end):
        # min-normal: the range is normal, the node rounded outward is not;
        # subnormal: the range itself is not; max: the widest rule accepted,
        # whose end nodes are normal floats
        ok, bad = self.float_edge()
        s = {"min-normal": bad, "subnormal": 0.03, "max": ok}[end]
        sym = SymbolFunction(lambda t: t**s / (1 + t ** (2 * s)), (s, 1.1), 1.0)
        g = 1e-30 * RadialProfile.ball_indicator(FieldParams(3, 1, 1.0), 0)  # no extension
        if end == "max":
            h, _K, D, _bound = _contour_nodes((s, 1.1), 1.0, 0.5, math.log(3.0), _CONTOUR_EPS)
            assert math.exp(-D * h) >= sys.float_info.min and math.isfinite(math.exp(D * h))
            res = hinf_apply_contour(sym, g)
            assert np.all(np.isfinite(_contour_rule(sym, 0.5, math.log(3.0), _CONTOUR_EPS)[3]))
            assert lp_norm(res.profile - hinf_apply_direct(sym, g), 2) <= res.bound
            return
        what = "contour nodes" if end == "min-normal" else "contour radius range"
        with pytest.raises(QuadratureError, match=f"^{what} .* leaves? the normal floats$"):
            _contour_nodes((s, 1.1), 1.0, 0.5, math.log(3.0), _CONTOUR_EPS)
        with pytest.raises(QuadratureError, match=f"^{what} .* leaves? the normal floats$"):
            hinf_apply_contour(sym, g)


class TestSemigroup:
    @pytest.mark.parametrize("z", NONFINITE_TIMES, ids=NONFINITE_IDS)
    def test_nonfinite_z_refused_before_any_work(self, z, monkeypatch):
        def no_transform(*args):
            raise AssertionError("the Fourier transform ran before z was checked")

        monkeypatch.setattr(radial, "_fourier_block", no_transform)
        with pytest.raises(ValueError, match=f"must be finite, got {re.escape(str(z))}"):
            semigroup_apply(z, ONES)

    def test_strong_continuity_at_zero(self, rng):
        g = make_profile(rng, P21, -3, 3, tail=0.4)
        for t in (1e-3, 1e-6):
            diff = lp_norm(semigroup_apply(t, g) - g, 2)
            assert diff <= 10 * t * lp_norm(g, 2)

    def test_matches_kernel_convolution(self, rng):
        g = make_profile(rng, P21, -3, 3)
        t = 0.8
        win = default_mass_window(t + 0j, P21, tol=1e-11)
        K = kernel_profile(t + 0j, win, P21)
        assert lp_norm(semigroup_apply(t, g) - convolve(K, g), 2) <= 1e-8

    def test_composition(self, rng):
        g = make_profile(rng, P21, -3, 3, tail=0.1)
        a = semigroup_apply(0.3 + 0.2j, semigroup_apply(0.5 - 0.1j, g))
        b = semigroup_apply(0.8 + 0.1j, g)
        assert lp_norm(a - b, 2) <= 1e-12 * max(1.0, lp_norm(b, 2))

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_lp_contraction_real_time(self, p, rng):
        for _ in range(5):
            g = make_profile(rng, P21, -3, 3)
            out = semigroup_apply(1.3, g)
            assert lp_norm(out, p) <= lp_norm(g, p) * (1 + 1e-10)


class TestSquareFunction:
    def test_zero_input(self):
        assert square_function(RadialProfile.zeros(P21, -2, 2), PHI, p=2.0) == 0.0

    def test_l2_constant(self, rng):
        target = math.sqrt(1.0 / 6.0)
        for _ in range(5):
            g = make_profile(rng, P21, -4, 3, tail=0.3)
            ratio = square_function(g, PHI, p=2.0) / lp_norm(g, 2)
            assert abs(ratio - target) <= 1e-5

    def test_several_p_from_one_block(self, rng):
        g = make_profile(rng, P21, -4, 3, tail=0.3)
        ps = (2.0, 1.5, 3.0, math.inf)
        assert square_function(g, PHI, p=ps) == [square_function(g, PHI, p=p) for p in ps]

    @pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
    def test_toeplitz_kernel_against_mpmath(self, params):
        """G(0..8) against 30-digit quadrature, within the returned bound, and
        that bound below 1e-14 G(0)."""
        step = params.alpha * math.log(params.q)
        for sym, mp_fn, g0 in zip(standard_symbols(), MP_SYMBOLS, G0):
            G, bound = _toeplitz_kernel(sym, step)
            assert bound <= 1e-14 * G[0].real
            with mpmath.workdps(30):
                for d in range(9):
                    c = mpmath.exp(-d * mpmath.mpf(step))
                    ref = mpmath.quad(lambda u: mp_fn(u) * mp_fn(u * c) / u, [0, c, 1, mpmath.inf])
                    assert abs(G[d] - complex(ref)) <= bound
                    if d == 0:
                        assert abs(ref - mpmath.mpf(g0.numerator) / g0.denominator) <= 1e-25

    @pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
    def test_parseval(self, params, rng):
        """||Sg||_2 = sqrt(G(0)) ||g||_2, the inner tail included."""
        for sym, g0 in zip(standard_symbols(), G0):
            for tail in (0.3, -0.7 + 0.2j):
                g = make_profile(rng, params, -4, 3, tail=tail)
                want = math.sqrt(float(g0)) * lp_norm(g, 2)
                assert abs(square_function(g, sym, p=2.0) - want) <= 1e-13 * want

    def test_nodes_past_float_range_refused(self):
        # at s = 0.0535 the nodes reach e**(+-S), S = ln(2 C**2 / (s 1e-17)) / s ~ 800
        sym = SymbolFunction(lambda t: t**0.0535 / (1 + t) ** 0.107, (0.0535, 1.0), 1.4)
        with pytest.raises(QuadratureError, match="float range"):
            square_function(ONES, sym)
        # an exception is not memoised: the second call raises too
        with pytest.raises(QuadratureError, match="float range"):
            square_function(ONES, sym)

    @pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
    def test_memoised_kernel_equals_m_lag_loop(self, params):
        """G[:m + 1], zero-padded, and the bound equal the per-call m-lag
        kernel bit for bit, below, at and past the last nonzero lag D."""
        step = params.alpha * math.log(params.q)
        for sym in (*standard_symbols(), PHI, ROOT, NARROW):
            G, bound = _toeplitz_kernel(sym, step)
            D = G.size - 1
            for m in (1, 8, D, D + 20):
                ref, ref_bound = toeplitz_kernel_lags(sym, step, m)
                padded = np.pad(G[: m + 1], (0, m + 1 - min(m + 1, G.size)))
                assert padded.tobytes() == ref.tobytes()
                assert bound == ref_bound

    def test_memoised_kernel_read_only_and_shared(self):
        step = math.log(2.0)
        G = _toeplitz_kernel(PHI, step)[0]
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[0] = 0.0
        assert _toeplitz_kernel(PHI, step)[0] is G
        # an equal symbol (same fn object, decay and angle) shares the entry
        assert _toeplitz_kernel(SymbolFunction(PHI.fn, PHI.decay, PHI.sector_angle), step)[0] is G
        # so does one whose decay certificate came as a list
        assert _toeplitz_kernel(SymbolFunction(PHI.fn, list(PHI.decay), 1.4), step)[0] is G

    def test_memoised_kernel_keyed_by_fn(self):
        """Two symbols equal in decay and angle but not in fn get their own G."""
        step = math.log(2.0)
        half = SymbolFunction(lambda t: 0.5 * t / (1 + t) ** 2, PHI.decay, PHI.sector_angle)
        G, G_half = _toeplitz_kernel(PHI, step)[0], _toeplitz_kernel(half, step)[0]
        assert G_half is not G
        assert abs(G[0].real - 1.0 / 6.0) <= 1e-15
        assert abs(G_half[0].real - 1.0 / 24.0) <= 1e-15

    def test_verify_squarefn_cold_and_warm(self, monkeypatch):
        """The suite dict is the same from an empty cache and from a full one."""
        symbols = standard_symbols()
        monkeypatch.setattr(verification, "standard_symbols", lambda: symbols)
        _toeplitz_kernel.cache_clear()
        cold = verification.verify_squarefn()
        hits = _toeplitz_kernel.cache_info().hits
        warm = verification.verify_squarefn()
        assert _toeplitz_kernel.cache_info().hits >= hits + 50
        assert warm == cold

    @pytest.mark.parametrize("p", [0.5, math.nan, -math.inf, (), [], (2.0, math.nan), [3.0, 0.0]])
    def test_bad_p_refused_before_any_work(self, p, monkeypatch):
        def no_transform(*args):
            raise AssertionError("the Fourier transform ran before p was checked")

        monkeypatch.setattr(radial, "_extended_hat", no_transform)
        with pytest.raises(ValueError, match="p must be"):
            square_function(ONES, PHI, p=p)

    def test_p_sequence_types(self):
        ps = (2.0, 1.5, math.inf)
        want = square_function(ONES, PHI, p=ps)
        assert isinstance(want, list) and len(want) == 3
        assert square_function(ONES, PHI, p=list(ps)) == want
        assert square_function(ONES, PHI, p=np.array(ps)) == want
        assert square_function(ONES, PHI, p=2) == want[0]
        assert isinstance(square_function(ONES, PHI, p=2.0), float)


class TestWindowExtension:
    """Every route extends the Fourier window by one rule and refuses the
    extensions it cannot make with a typed error."""

    @pytest.mark.parametrize("route", ["direct", "squarefn", "contour"])
    def test_underflowing_cutoff_refused(self, route):
        g = RadialProfile.ball_indicator(P21, 0)
        with pytest.raises(WindowOverflowError):
            ROUTES[route](SLOW, g)

    @pytest.mark.parametrize("route", ["direct", "squarefn", "contour"])
    def test_subnormal_cutoff_refused(self, route):
        with pytest.raises(WindowOverflowError, match="underflows"):
            ROUTES[route](DECAY_005, ONES)

    @pytest.mark.parametrize("route", ["direct", "squarefn", "contour"])
    def test_extension_cap(self, route):
        g = RadialProfile.ball_indicator(FieldParams(2, 1, 0.002), 0)
        with pytest.raises(WindowOverflowError):  # about 26,600 crowns needed
            ROUTES[route](PHI, g)

    def test_negligible_tail_needs_no_extension(self):
        # (1e-16 / lip)**(1/s) overflows: every eigenvalue is below the cut-off
        g = 1e-30 * RadialProfile.ball_indicator(P21, 0)
        out = hinf_apply_direct(SLOW, g)
        assert (out.kmin, out.kmax) == (-1, 1)
        assert np.all(np.isfinite(out.coeffs))

    def test_contour_radius_range_past_float_range_refused(self):
        # no extension is needed, but the radius range sized for s = 0.03
        # spans e**(+-1303)
        g = 1e-30 * RadialProfile.ball_indicator(P21, 0)
        with pytest.raises(QuadratureError):
            hinf_apply_contour(SLOW, g)

    # alpha > n: the top eigenvalue q**(2 * 601) of the Fourier window
    # [-601, 2] overflows while every crown weight, up to q**601, is a float
    # (the input of the solver's test in test_evolution.py)
    TOP = RadialProfile(FieldParams(2, 1, 2.0), -2, 600, np.eye(1, 603, 2)[0])

    @pytest.mark.parametrize(
        "route",
        [
            lambda f: fourier_multiplier_apply(f, lambda lam: lam),
            taibleson_fourier,
            lambda f: semigroup_apply(1.0, f),
            lambda f: hinf_apply_direct(PHI, f),
            lambda f: hinf_apply_contour(PHI, f),
            lambda f: square_function(f, PHI),
            lambda f: rademacher_ratio([1.0], 2.0, 1, 0, f.params, (f.kmin, f.kmax)),
        ],
        ids=["multiplier", "taibleson", "semigroup", "direct", "contour", "squarefn",
             "rademacher"],
    )
    def test_eigenvalue_past_float_range_raises_before_any_warning(self, route):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WindowOverflowError, match=r"^eigenvalue q\*\*\(1202\) at q=2"):
                route(self.TOP)

    def test_contour_checks_back_transform_window_before_any_symbol_call(self):
        # alpha = 0.1: the tail extension reaches Fourier crown 1069, so the
        # back transform's outermost crown weight q**1070 is no float; the
        # direct route and the square function refuse the input as early
        s05 = standard_symbols()[1]
        calls = []
        sym = SymbolFunction(lambda z: calls.append(z) or s05.fn(z), s05.decay, s05.sector_angle)
        calls.clear()
        g = RadialProfile(FieldParams(2, 1, 0.1), -3, 3, np.ones(7), tail=0.3)
        for route in (hinf_apply_contour, hinf_apply_direct, lambda s, f: square_function(f, s)):
            with pytest.raises(WindowOverflowError, match=r"^crown weight q\*\*\(1070\) at q=2"):
                route(sym, g)
        assert calls == []

    @pytest.mark.parametrize(
        "route",
        [
            lambda f: fourier_multiplier_apply(f, lambda lam: lam),
            lambda f: semigroup_apply(1.0, f),
        ],
        ids=["multiplier", "semigroup"],
    )
    def test_multiplier_routes_check_back_transform_window(self, route):
        # decay exponent 1 at alpha = 0.05: the extension reaches Fourier crown
        # 1064, whose back-transform weight is no float
        # (taibleson_fourier: test_taibleson.py)
        g = RadialProfile(FieldParams(2, 1, 0.05), -3, 3, np.ones(7), tail=0.3)
        with pytest.raises(WindowOverflowError, match=r"^crown weight q\*\*\(1065\) at q=2"):
            route(g)


class TestRademacher:
    def test_single_contraction(self):
        assert rademacher_ratio([1.0 + 0j], 4.0, 60, 7, P21) <= 1.0 + 1e-8

    def test_seed_replay_identical(self):
        fam = [cmath.exp(1j * 0.9) * m for m in (0.1, 1.0, 10.0)]
        a = rademacher_ratio(fam, 4.0, 40, 321, P21)
        b = rademacher_ratio(fam, 4.0, 40, 321, P21)
        assert a == b

    def test_rejects_nan_p(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            rademacher_ratio([1.0 + 0j], math.nan, 4, 0, P21)

    @pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
    def test_bad_p_refused_before_any_work(self, p, monkeypatch):
        def no_transform(*args):
            raise AssertionError("the Fourier transform ran before p was checked")

        monkeypatch.setattr(radial, "_fourier_block", no_transform)
        with pytest.raises(ValueError, match="p must be >= 1"):
            rademacher_ratio(rbound_family(1.3, 16), p, 200, 1, P21)

    @pytest.mark.parametrize("z", NONFINITE_TIMES, ids=NONFINITE_IDS)
    def test_nonfinite_z_refused_before_any_work(self, z, monkeypatch):
        def no_transform(*args):
            raise AssertionError("the Fourier transform ran before z was checked")

        monkeypatch.setattr(radial, "_fourier_block", no_transform)
        with pytest.raises(ValueError, match=f"must be finite, got {re.escape(str(z))}"):
            rademacher_ratio([0.5 + 0.5j, z], 4.0, 20, 1, P21)

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            rademacher_ratio([-1.0 + 0j], 2.0, 10, 0, P21)

    def test_rejects_empty_family_trials_or_window(self):
        with pytest.raises(ValueError, match="nonempty"):
            rademacher_ratio([], 2.0, 10, 0, P21)
        for trials, window in ((0, (-4, 4)), (10, (0, -1))):
            with pytest.raises(ValueError, match="trial and a crown window"):
                rademacher_ratio([1.0 + 0j], 2.0, trials, 0, P21, window)

    @pytest.mark.parametrize("seed", [SEED_RBOUND, SEED_RBOUND + 7])
    def test_suite_family_equals_trial_loop(self, seed):
        p, theta, points = RBOUND_FAMILY
        fam = rbound_family(theta, points)
        assert rademacher_ratio(fam, p, 200, seed, P21) == rademacher_trial_loop(
            fam, p, 200, seed, P21
        )

    @pytest.mark.parametrize(
        "params, window",
        [(FieldParams(3, 2, 0.5), (-2, 3)), (FieldParams(2, 2, 2.0), (1, 4)), (P21, (3, 8))],
        ids=["q3n2", "q2n2-small-tails", "q2n1-small-tails"],
    )
    def test_other_fields_match_trial_loop(self, params, window):
        # 40 trials of 16 rows run as three blocks
        fam = rbound_family(1.2, 16)
        ref = rademacher_trial_loop(fam, 3.0, 40, 11, params, window)
        assert abs(rademacher_ratio(fam, 3.0, 40, 11, params, window) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("params", DIAG, ids=DIAG_IDS)
    @pytest.mark.parametrize("p", [1.0, 4.0, math.inf])
    @pytest.mark.parametrize("points", [6, 10])
    def test_ragged_blocks_match_trial_loop(self, points, p, params):
        # 55 trials run as blocks of 42 + 13 (6 points) or 25 + 25 + 5 (10 points)
        fam = rbound_family(1.3, points)
        ref = rademacher_trial_loop(fam, p, 55, 5, params)
        assert abs(rademacher_ratio(fam, p, 55, 5, params) - ref) <= 1e-14 * ref


class TestSuiteSymbols:
    """The suites' symbols are built once, so their memoised contour rules and
    Toeplitz kernels serve every later run of a suite in the process."""

    def test_built_once(self):
        assert verification.standard_symbols() is verification.standard_symbols()

    def test_second_calculus_run_builds_no_rule(self):
        first = verification.verify_calculus()
        misses = _contour_rule.cache_info().misses
        assert verification.verify_calculus() == first
        assert _contour_rule.cache_info().misses == misses

    def test_two_squarefn_runs_build_one_kernel(self):
        _toeplitz_kernel.cache_clear()
        first = verification.verify_squarefn()
        assert verification.verify_squarefn() == first
        assert _toeplitz_kernel.cache_info().misses == 1
