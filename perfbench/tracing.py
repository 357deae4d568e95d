"""Span tracing for the traced benchmark run, installed from outside qharm.

Every public function of every qharm layer (module) is wrapped under every
name a qharm module binds it to, so ``qharm.radial.radial_fourier`` and the
``radial_fourier`` imported into ``calculus`` and ``evolution`` record the
same spans.  ``QuotientLattice.add`` and ``RadialProfile.__post_init__`` are
wrapped as well.  Private helpers and numpy count toward the nearest wrapped
caller.  A span records its name, start, end, parent span and op id; spans
stay in memory until the run ends.  Calls outside an op (set-up, input
generation) pass straight through and record nothing.

Nothing here runs in the untraced run: end-to-end numbers come from a
process that never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# The package's modules, one layer each; ``errors`` holds no code path.
LAYERS = (
    "field",
    "radial",
    "gamma",
    "kernel",
    "taibleson",
    "calculus",
    "vilenkin",
    "evolution",
    "verification",
    "cli",
)
METHODS = (("field", "QuotientLattice", "add"), ("radial", "RadialProfile", "__post_init__"))


class Tracer:
    """In-memory spans plus the work counters measured at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_op = array("l")
        self.failed = array("b")
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._open: list[int] = []

    def wrap(self, fn, name: str, hook=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.span_op.append(self.op_id)
            self.failed.append(0)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    def summary(self) -> dict:
        """calls, self_s and failed per span name and per layer, plus the
        work counters.  Self time is a span minus its direct children."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(
            self.start, dtype=np.float64
        )[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        names = np.frombuffer(self.span_name, dtype=np.int64)[:n]
        failed = np.frombuffer(self.failed, dtype=np.int8)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)
        fails = np.bincount(names, weights=failed, minlength=k)
        out: dict = dict(self.counts)
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.failed"] = 0
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_s[nid])
            out[f"{name}.failed"] = int(fails[nid])
            out[f"{layer}.calls"] += int(calls[nid])
            out[f"{layer}.self_s"] += float(self_s[nid])
            out[f"{layer}.failed"] += int(fails[nid])
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: op, span, parent, name, start, end,
        failed (times in seconds on the process's perf_counter clock)."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\tfailed\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.span_op[i]}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.failed[i]}\n"
                )


# -- work counters measured at the wrapped calls ------------------------------------


def _count_crowns(counts, args, out) -> None:
    counts["radial.crowns"] += args[0].coeffs.size


def _count_ext_crowns(counts, args, out) -> None:
    # the output window starts at -(ext_to)-1, the unextended one at kmin-1
    counts["radial.ext_crowns"] += args[0].kmin - out.kmin - 1


def _count_cosets(counts, args, out) -> None:
    for a in args:
        lattice = getattr(a, "lattice", a)
        size = getattr(lattice, "size", None)
        if isinstance(size, int):
            counts["vilenkin.cosets"] += size
            return


HOOKS = {
    "radial.radial_fourier": _count_crowns,
    "radial.fourier_multiplier_apply": _count_ext_crowns,
}


def install(tracer: Tracer) -> None:
    """Replace every public qharm function, under every name bound to it in
    any qharm module, by a tracing wrapper."""
    import qharm

    layer_mods = {name: importlib.import_module(f"qharm.{name}") for name in LAYERS}
    modules = [qharm, *layer_mods.values()]
    for layer, mod in layer_mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            hook = _count_cosets if layer == "vilenkin" else HOOKS.get(name)
            wrapped = tracer.wrap(obj, name, hook)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is obj:
                        setattr(m, bound, wrapped)
    for layer, cls_name, meth in METHODS:
        cls = getattr(layer_mods[layer], cls_name)
        setattr(cls, meth, tracer.wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))


class CountedSymbol:
    """A symbol callable that counts the elements it is evaluated on inside
    ops, for scalar and array arguments alike."""

    def __init__(self, fn, tracer: Tracer) -> None:
        self.fn = fn
        self.tracer = tracer

    def __call__(self, z):
        if self.tracer.op_id is not None:
            self.tracer.counts["calculus.symbol_evals"] += int(np.size(z))
        return self.fn(z)


def counted_symbols(symbols, tracer: Tracer) -> list:
    from qharm.calculus import SymbolFunction

    return [
        SymbolFunction(CountedSymbol(s.fn, tracer), s.decay, s.sector_angle)
        for s in symbols
    ]
