"""Command-line surface: evaluators, verification suites, the master-equation
solver and the seeded R-bound experiment.

Exit codes: 0 on success/pass, 2 on verification failure, 1 on usage or
parameter errors.  All output is deterministic for identical argv (and
seed): floats are serialized with repr and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import inspect
import json
import math
import re
import sys

import numpy as np

from . import calculus, evolution, gamma, kernel, verification
from .errors import CancellationError, QuadratureError, ToleranceError, WindowOverflowError
from .field import FieldParams
from .radial import RadialProfile

# PoleError and LatticeWindowError are ValueErrors
_NUMERIC_ERRORS = (
    CancellationError, QuadratureError, ToleranceError, WindowOverflowError, ValueError
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

A crown named twice, or a crown or tail value that is not finite, is a
usage error.  Output CSV rows: t,k,re,im (one row per output time per crown)."""


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
    try:
        z = complex(*map(float, parts)) if len(parts) in (1, 2) else None
    except ValueError:
        z = None
    if z is None:
        raise UsageError(f"--z expects RE or RE,IM, got {text!r}")
    if not cmath.isfinite(z):
        raise UsageError(f"--z must be finite, got {text!r}")
    return z


@functools.cache  # one argparse tree per process
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
    r.add_argument("--trials", type=int, default=verification.RBOUND_TRIALS)
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
    given = dict(q=args.q, n=args.n, alpha=args.alpha, update=args.update_baselines or None)
    kwargs = {name: v for name, v in given.items() if v is not None}
    if extra := [name for name in kwargs if name not in inspect.signature(fn).parameters]:
        flags = ", ".join("--update-baselines" if k == "update" else f"--{k}" for k in extra)
        raise UsageError(f"suite {args.suite} does not take {flags}")
    result = fn(**kwargs)
    _print_json(result)
    return 0 if result["pass"] else 2


_COMMENT = re.compile(r"(?<!\S)[;#]")  # at the line start or after whitespace


def _read_config(path: str) -> dict[str, dict[str, str]]:
    """The sections of an INI config file, ``{section: {key: value}}`` in
    file order, read in one pass.

    The subset of configparser's syntax (with ``interpolation=None`` and
    ``inline_comment_prefixes=(";", "#")``) that ``qharm evolve`` documents:
    ``[section]`` headers; ``key = value`` or ``key: value``, keys
    lower-cased and values stripped and taken literally; ``;`` or ``#``
    starting a comment at the line start or after whitespace; indented
    lines continuing the value above, joined with newlines.  A repeated
    section or key, a key before any section, a line with no delimiter and
    a ``[DEFAULT]`` section are usage errors.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise UsageError(f"config file {path!r} cannot be read: {exc.strerror}") from exc
    sections: dict[str, dict[str, str]] = {}
    section = key = None
    indent = 0
    for lineno, line in enumerate(lines, 1):
        comment = _COMMENT.search(line) if "#" in line or ";" in line else None
        text = (line[: comment.start()] if comment else line).strip()
        if not text:  # a blank line inside a value stays in it, a comment does not
            if key is not None and comment is None:
                section[key] += "\n"
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            section[key] += "\n" + text
            continue
        indent = depth
        if text[0] == "[" and (end := text.rfind("]")) > 1:
            name, key = text[1:end], None
            if name == "DEFAULT":  # configparser would copy its keys into every section
                raise UsageError(f"bad config: line {lineno}: [DEFAULT] is not supported")
            if name in sections:
                raise UsageError(f"bad config: line {lineno}: section [{name}] repeated")
            section = sections[name] = {}
            continue
        key, sep, value = text.partition("=")
        if not sep or ":" in key:  # the first '=' or ':' splits
            key, sep, value = text.partition(":")
        key = key.rstrip().lower()
        if section is None or not sep or not key:
            raise UsageError(
                f"bad config: line {lineno}: expected [section] or key = value "
                f"inside a section, got {text!r}"
            )
        if key in section:
            raise UsageError(f"bad config: line {lineno}: key {key!r} repeated in [{name}]")
        section[key] = value.lstrip()
    return {name: {k: v.rstrip() for k, v in sec.items()} for name, sec in sections.items()}


def _value(cfg: dict, section: str, key: str) -> str:
    try:
        return cfg[section][key]
    except KeyError:
        raise UsageError(f"bad config: no {key!r} in section [{section}]") from None


def _number(cfg: dict, section: str, key: str, kind=float):
    """One int or float config value; other text raises UsageError."""
    raw = _value(cfg, section, key)
    try:
        return kind(raw)
    except ValueError:
        want = "an integer" if kind is int else "a number"
        raise UsageError(f"[{section}] {key} = {raw!r}: expected {want}") from None


def _floats(section: str, key: str, raw: str, sizes=None) -> list[float]:
    """The space-separated numbers of one config value; text that is not a
    number, or a count not in ``sizes``, raises UsageError."""
    parts = raw.split()
    try:
        if sizes is None or len(parts) in sizes:
            return [float(p) for p in parts]
    except ValueError:
        pass
    want = "numbers" if sizes is None else "RE or RE IM"
    raise UsageError(f"[{section}] {key} = {raw!r}: expected {want}")


def _profile_from_section(
    cfg: dict, name: str, params: FieldParams, kmin: int, kmax: int
) -> RadialProfile:
    """The profile that config section ``name`` gives; zero when there is none.

    Every crown index comes from its key and every number goes through one
    array conversion, real and imaginary parts set apart so the values stay
    exact.  Only when that pass fails does the per-key pass run, to name
    the key and value at fault."""
    section = cfg.get(name, {})
    coeffs = np.zeros(kmax - kmin + 1, dtype=complex)
    keys = [key for key in section if key != "tail"]
    try:
        idx = [int(key[2:]) - kmin for key in keys if key.startswith("c_")]
        texts = [section.get("tail", "0 0")] + [section[key] for key in keys]
        vals = np.array([t.split() for t in texts], float).reshape(len(texts), 2)
        ok = (
            len(set(idx)) == len(keys)  # every key names a crown, each one once
            and 0 <= min(idx, default=0)
            and max(idx, default=0) < coeffs.size
            and np.isfinite(vals).all()
        )
    except ValueError:
        ok = False
    if not ok:
        return _profile_per_key(section, name, params, kmin, kmax)
    coeffs.real[idx] = vals[1:, 0]
    coeffs.imag[idx] = vals[1:, 1]
    return RadialProfile(params, kmin, kmax, coeffs, tail=complex(vals[0, 0], vals[0, 1]))


def _profile_per_key(
    section: dict, name: str, params: FieldParams, kmin: int, kmax: int
) -> RadialProfile:
    """``_profile_from_section`` one key at a time: a value that is not one
    or two finite numbers, a key other than c_<k> or tail, a crown outside
    the window and a crown named twice raise UsageError."""
    coeffs = np.zeros(kmax - kmin + 1, dtype=complex)
    tail = 0.0 + 0.0j
    seen: dict[int, str] = {}
    for key, raw in section.items():
        val = complex(*_floats(name, key, raw, (1, 2)))
        if not cmath.isfinite(val):
            raise UsageError(f"[{name}] {key} = {raw!r}: expected finite numbers")
        if key == "tail":
            tail = val
            continue
        try:
            if not key.startswith("c_"):
                raise ValueError
            k = int(key[2:])
        except ValueError:
            raise UsageError(f"[{name}] {key} = {raw!r}: expected a key c_<k> or tail") from None
        if not kmin <= k <= kmax:
            raise UsageError(f"[{name}] {key} = {raw!r}: crown {k} outside [{kmin}, {kmax}]")
        if k in seen:
            raise UsageError(f"[{name}] {seen[k]} and {key} both name crown {k}")
        seen[k] = key
        coeffs[k - kmin] = val
    return RadialProfile(params, kmin, kmax, coeffs, tail=tail)


def _cmd_evolve(args) -> int:
    cfg = _read_config(args.config)
    params = FieldParams(
        _number(cfg, "field", "q", int),
        _number(cfg, "field", "n", int),
        _number(cfg, "field", "alpha"),
    )
    kmin = _number(cfg, "window", "kmin", int)
    kmax = _number(cfg, "window", "kmax", int)
    if kmin > kmax:
        raise UsageError(f"[window] kmin = {kmin}: above kmax = {kmax}")
    breakpoints = tuple(_floats("forcing", "breakpoints", _value(cfg, "forcing", "breakpoints")))
    profiles = tuple(
        _profile_from_section(cfg, f"forcing.{j}", params, kmin, kmax)
        for j in range(len(breakpoints) - 1)
    )
    x0 = _profile_from_section(cfg, "initial", params, kmin, kmax)
    times = _floats("output", "times", _value(cfg, "output", "times"))
    out_path = cfg["output"].get("file")

    forcing = evolution.ForcingSignal(breakpoints, profiles)
    outs = evolution.solve_master(x0, forcing, times)
    lines = ["t,k,re,im"]
    for t, prof in zip(times, outs):
        ts, c = repr(t), prof.coeffs
        rows = zip(range(prof.kmin, prof.kmax + 1), c.real.tolist(), c.imag.tolist())
        lines += [f"{ts},{k},{re!r},{im!r}" for k, re, im in rows]
    text = "\n".join(lines)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(lines) - 1} rows to {out_path}")
    else:
        print(text)
    return 0


def _cmd_rbound(args) -> int:
    if not math.isfinite(args.theta):
        raise UsageError(f"--theta must be finite, got {args.theta!r}")
    params = FieldParams(args.q, args.n, args.alpha)
    fam = verification.rbound_family(args.theta, args.points)
    ratio = calculus.rademacher_ratio(fam, args.p, args.trials, args.seed, params)
    ref = None  # the recorded constant holds for the suite's family only
    if (args.p, args.theta, args.points) == verification.RBOUND_FAMILY:
        ref = verification.load_baselines().get(verification._bkey("rbound_p4", params))
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


_COMMANDS = {
    "gamma": _cmd_gamma,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
    "evolve": _cmd_evolve,
    "rbound": _cmd_rbound,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
