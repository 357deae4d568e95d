"""Command-line surface: evaluators, verification suites, the master-equation
solver and the seeded R-bound experiment.

Exit codes: 0 on success/pass, 2 on verification failure, 1 on usage or
parameter errors.  All output is deterministic for identical argv (and
seed): floats are serialized with repr and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from . import calculus, evolution, gamma, kernel, verification
from .errors import (
    CancellationError,
    LatticeWindowError,
    PoleError,
    QuadratureError,
    SpectrumError,
    ToleranceError,
    WindowOverflowError,
)
from .field import FieldParams
from .radial import RadialProfile

_NUMERIC_ERRORS = (
    PoleError,
    SpectrumError,
    CancellationError,
    ToleranceError,
    LatticeWindowError,
    WindowOverflowError,
    QuadratureError,
    ValueError,
)

SWEEP_HEADER = "q,n,alpha,re_z,im_z,k_x,abs_K,bound_ratio,l1_ratio"


def sweep_csv(rows: list[dict]) -> str:
    """Kernel-sweep rows as CSV text: SWEEP_HEADER, then one line per row."""
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{r['q']},{r['n']},{r['alpha']!r},{r['re_z']!r},"
            f"{r['im_z']!r},{r['k_x']},{r['abs_K']!r},"
            f"{r['bound_ratio']!r},{r['l1_ratio']!r}"
        )
    return "\n".join(lines)


CONFIG_HELP = """\
evolve config file (INI syntax, values space separated):

  [field]    q, n, alpha
  [window]   kmin, kmax           crown window shared by all profiles
  [initial]  c_<k> = re im        optional crown values of x0, tail = re im
  [forcing]  breakpoints = t0 t1 ... tJ   (t0 = 0)
  [forcing.<j>]  c_<k> = re im    profile on [t_j, t_{j+1}), tail = re im
  [output]   times = ... ; file = path (optional, default stdout)

Output CSV rows: t,k,re,im (one row per output time per crown)."""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _print_json(payload: dict) -> None:
    print(json.dumps(_jsonify(payload), sort_keys=True))


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise UsageError(f"--z expects RE or RE,IM, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qharm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="evaluate the Gelfand-Graev Gamma function")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--z", type=str, required=True, help="RE,IM")

    k = sub.add_parser("kernel", help="heat-kernel values or the estimate sweep")
    k.add_argument("--q", type=int, required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--alpha", type=float, required=True)
    k.add_argument("--z", type=str, help="RE,IM (required unless --sweep)")
    group = k.add_mutually_exclusive_group(required=True)
    group.add_argument("--kx", type=int, help="scale index of ||x|| = q**(-kx)")
    group.add_argument("--sweep", action="store_true", help="emit the sector CSV")

    v = sub.add_parser("verify", help="run one acceptance suite, print JSON verdict")
    v.add_argument("suite", choices=sorted(verification.ALL_SUITES))
    v.add_argument("--q", type=int)
    v.add_argument("--n", type=int)
    v.add_argument("--alpha", type=float)
    v.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the recorded constants for baseline-guarded suites",
    )

    e = sub.add_parser(
        "evolve",
        help="solve the master equation from a config file",
        epilog=CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    e.add_argument("--config", type=str, required=True)

    r = sub.add_parser("rbound", help="seeded Rademacher-ratio experiment")
    r.add_argument("--theta", type=float, default=1.3)
    r.add_argument("--points", type=int, default=16)
    r.add_argument("--trials", type=int, default=200)
    r.add_argument("--seed", type=int, default=verification.SEED_RBOUND)
    r.add_argument("--p", type=float, default=4.0)
    r.add_argument("--q", type=int, default=2)
    r.add_argument("--n", type=int, default=1)
    r.add_argument("--alpha", type=float, default=1.0)
    return parser


def _cmd_gamma(args) -> int:
    params = FieldParams(args.q, args.n, 1.0)
    z = _parse_complex(args.z)
    value = gamma.gamma_qn(z, params)
    defect = gamma.reflection_defect(z, params)
    if value.imag == 0.0:
        print(f"value={value.real!r} reflection_defect={defect!r}")
    else:
        print(f"value={value.real!r}{value.imag:+}j reflection_defect={defect!r}")
    return 0


def _cmd_kernel(args) -> int:
    params = FieldParams(args.q, args.n, args.alpha)
    if args.sweep:
        print(sweep_csv(verification.kernel_sweep_rows(params)))
        return 0
    if args.z is None:
        raise UsageError("--z is required unless --sweep is given")
    z = _parse_complex(args.z)
    res = kernel.kernel_exp_form(z, args.kx, params)
    ratio = kernel.bound_ratio(z, args.kx, params)
    print(
        f"K={res.value.real!r}{res.value.imag:+}j tail_bound={res.tail_bound!r} "
        f"bound_ratio={ratio!r}"
    )
    return 0


def _cmd_verify(args) -> int:
    fn = verification.ALL_SUITES[args.suite]
    kwargs = {}
    if args.suite in ("levy", "taibleson"):
        kwargs = {"q": args.q, "n": args.n, "alpha": args.alpha}
    elif args.suite in ("kernel-bounds", "squarefn", "rbound", "maxreg"):
        kwargs = {"update": args.update_baselines}
    result = fn(**kwargs)
    _print_json(result)
    return 0 if result["pass"] else 2


def _profile_from_section(
    section, params: FieldParams, kmin: int, kmax: int
) -> RadialProfile:
    coeffs = np.zeros(kmax - kmin + 1, dtype=complex)
    tail = 0.0 + 0.0j
    for key, raw in section.items():
        parts = raw.split()
        val = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
        if key == "tail":
            tail = val
            continue
        if not key.startswith("c_"):
            raise UsageError(f"unknown profile key {key!r} (expected c_<k> or tail)")
        k = int(key[2:])
        if not kmin <= k <= kmax:
            raise UsageError(f"crown {k} outside the window [{kmin}, {kmax}]")
        coeffs[k - kmin] = val
    return RadialProfile(params, kmin, kmax, coeffs, tail=tail)


def _cmd_evolve(args) -> int:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(args.config)
    if not read:
        raise UsageError(f"config file {args.config!r} not found")
    try:
        params = FieldParams(
            cp.getint("field", "q"),
            cp.getint("field", "n"),
            cp.getfloat("field", "alpha"),
        )
        kmin = cp.getint("window", "kmin")
        kmax = cp.getint("window", "kmax")
        breakpoints = tuple(float(t) for t in cp.get("forcing", "breakpoints").split())
        profiles = tuple(
            _profile_from_section(cp[f"forcing.{j}"], params, kmin, kmax)
            if cp.has_section(f"forcing.{j}")
            else RadialProfile.zeros(params, kmin, kmax)
            for j in range(len(breakpoints) - 1)
        )
        x0 = (
            _profile_from_section(cp["initial"], params, kmin, kmax)
            if cp.has_section("initial")
            else RadialProfile.zeros(params, kmin, kmax)
        )
        times = [float(t) for t in cp.get("output", "times").split()]
        out_path = cp.get("output", "file", fallback=None)
    except (configparser.Error, KeyError) as exc:
        raise UsageError(f"bad config: {exc}") from exc

    forcing = evolution.ForcingSignal(breakpoints, profiles)
    outs = evolution.solve_master(x0, forcing, times)
    lines = ["t,k,re,im"]
    for t, prof in zip(times, outs):
        for k in range(prof.kmin, prof.kmax + 1):
            v = prof.value_at(k)
            lines.append(f"{t!r},{k},{v.real!r},{v.imag!r}")
    text = "\n".join(lines)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(lines) - 1} rows to {out_path}")
    else:
        print(text)
    return 0


def _cmd_rbound(args) -> int:
    params = FieldParams(args.q, args.n, args.alpha)
    fam = verification.rbound_family(args.theta, args.points)
    ratio = calculus.rademacher_ratio(fam, args.p, args.trials, args.seed, params)
    baselines = verification.load_baselines()
    ref = baselines.get(("rbound_p4", str(args.q), str(args.n), repr(args.alpha)))
    passed = ref is None or ratio <= verification.SLACK * ref
    _print_json(
        {
            "family": f"cos(arg z) T_z, {args.points} points on rays arg = "
            f"+-{args.theta}",
            "p": args.p,
            "trials": args.trials,
            "seed": args.seed,
            "ratio": ratio,
            "baseline": ref,
            "pass": passed,
        }
    )
    return 0 if passed else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gamma":
            return _cmd_gamma(args)
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "rbound":
            return _cmd_rbound(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; exit quietly
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
