"""Outside-in layer trace of twistlab: wrappers installed from the benchmark, not the library.

While a ``Tracer`` is installed, every public module-level function of each
twistlab module is rebound, in every twistlab namespace that holds it, to a
wrapper that opens a span named ``<module>.<function>``; a few methods are
wrapped on their classes (``METHOD_SPANS``).  A span's parent is the span open
when it starts.  Spans are folded into per-name totals as they close, so
memory stays flat however many calls a job makes:

* ``calls``  - spans closed;
* ``busy_s`` - time inside the outermost span of that name;
* ``self_s`` - span time minus the time covered by its child spans.

A layer (module) spends the sum of its spans' self time.  Exiting the tracer
restores every original object.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import time
import types

import numpy as np

LAYERS = ("linalg", "algebra", "triple", "pert", "gauge", "morita", "models", "files", "cli")

# (module, class, method) -> span name
METHOD_SPANS = {
    ("algebra", "AlgebraElement", "__post_init__"): "algebra.element_init",
    ("algebra", "Automorphism", "__call__"): "algebra.sigma",
    ("triple", "Representation", "__call__"): "triple.pi",
    ("triple", "Representation", "homomorphism_defect"): "triple.homomorphism_defect",
    ("triple", "TwistedTriple", "pi_opp"): "triple.pi_opp",
    ("triple", "TwistedTriple", "first_order_defect"): "triple.first_order_defect",
    ("linalg", "AntilinearOp", "conjugate"): "linalg.j_conjugate",
    ("morita", "AlgebraMatrix", "__mul__"): "morita.amat_mul",
}


def _span_name(layer: str, func: str) -> str:
    # the CLI subcommands cmd_check, cmd_pert_mul, ... are reported as cli.check, cli.pert_mul
    return f"{layer}.{func[4:]}" if layer == "cli" and func.startswith("cmd_") else f"{layer}.{func}"


def _count_pi(counters, args) -> None:
    rep, a = args
    nonzero = sum(np.count_nonzero(b) for b in a.blocks)
    if nonzero == 1 and sum(b.sum() for b in a.blocks) == 1:
        counters["triple.pi.unit_args"] += 1
    d2 = rep.dim * rep.dim
    counters["triple.pi.macs_computed"] += sum(n * n * d2 for n in rep.shape.block_dims)


def _count_fluctuate(counters, args) -> None:
    counters["pert.fluctuate.pairs"] += len(args[1].pairs)


def _count_read(counters, args) -> None:
    counters["files.bytes_read"] += os.path.getsize(args[0])


def _count_written(counters, args) -> None:
    out = getattr(args[0], "out", None)   # `model --out FILE` is the CLI's only file write
    if out:
        counters["files.bytes_written"] += os.path.getsize(out)


# hooks run after the call returns, outside its span; twistlab passes these arguments positionally
COUNT_HOOKS = {
    "triple.pi": _count_pi,
    "pert.fluctuate": _count_fluctuate,
    "files.load_json": _count_read,
    "cli.model": _count_written,
}


class Tracer:
    """Context manager: install the wrappers on enter, restore the originals on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}        # name -> [calls, busy_s, self_s, open depth]
        self.counters: collections.Counter = collections.Counter()
        self.recording = True
        self._stack = [[0.0]]                   # child time of each open span; root at the bottom
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            rec[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                rec[3] -= 1
                rec[0] += 1
                rec[2] += elapsed - frame[0]
                if rec[3] == 0:
                    rec[1] += elapsed
            if hook is not None:
                hook(tracer.counters, args)
            return result

        return span

    @contextlib.contextmanager
    def paused(self):
        """Run the body without recording, e.g. the harness's own verification."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- install / restore ----------------------------------------------------

    def _rebind(self, namespace, attr: str, new) -> None:
        self._undo.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, new)

    def __enter__(self) -> Tracer:
        modules = {layer: importlib.import_module(f"twistlab.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("twistlab"), *modules.values()]
        try:
            for layer, mod in modules.items():
                for attr, obj in list(vars(mod).items()):
                    if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                            or obj.__module__ != mod.__name__):
                        continue
                    wrapper = self._wrap(_span_name(layer, attr), obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                self._rebind(ns, name, wrapper)
            for (layer, cls_name, meth), name in METHOD_SPANS.items():
                cls = getattr(modules[layer], cls_name)
                self._rebind(cls, meth, self._wrap(name, cls.__dict__[meth]))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value per job, unit)."""

        def calls(name):
            return self.stats.get(name, [0])[0]

        def busy(name):
            return self.stats.get(name, [0, 0.0])[1] / jobs

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            self_s = sum(rec[2] for name, rec in self.stats.items() if name.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = (self_s / jobs, "s")
        for name in ("triple.pi", "triple.pi_opp", "triple.first_order_defect", "algebra.element_init",
                     "algebra.sigma", "linalg.cmatrix", "linalg.j_conjugate", "morita.amat_mul",
                     "pert.fluctuate"):
            out[f"{name}.calls"] = (calls(name) / jobs, "count")
        for name in ("triple.pi", "triple.homomorphism_defect", "triple.check_axioms",
                     "algebra.element_init", "algebra.sigma", "linalg.cmatrix", "linalg.j_conjugate",
                     "morita.amat_mul", "morita.lift_maps", "morita.check_hermitian",
                     "morita.build_right_triple", "morita.build_left_triple", "morita.build_real_triple",
                     "morita.check_morita_triple", "morita.check_real_triple",
                     "pert.fluctuate", "pert.eta", "pert.act_mu",
                     "gauge.gauge_dirac", "gauge.selfadjointness_report",
                     "models.build_u1u2", "models.verify_fluctuation_formula",
                     "files.load_triple", "files.triple_to_json",
                     "cli.check", "cli.fluctuate", "cli.gauge", "cli.pert_mul", "cli.model", "cli.morita"):
            out[f"{name}.busy_s"] = (busy(name), "s")
        c = self.counters
        pi_calls, fluct_calls = calls("triple.pi"), calls("pert.fluctuate")
        out["triple.pi.unit_arg_share"] = (c["triple.pi.unit_args"] / pi_calls if pi_calls else 0.0,
                                           "fraction")
        out["triple.pi.macs_computed"] = (c["triple.pi.macs_computed"] / jobs, "count")
        out["pert.pairs_per_fluctuate"] = (c["pert.fluctuate.pairs"] / fluct_calls if fluct_calls else 0.0,
                                           "count")
        out["files.bytes_read"] = (c["files.bytes_read"] / jobs, "B")
        out["files.bytes_written"] = (c["files.bytes_written"] / jobs, "B")
        return out
