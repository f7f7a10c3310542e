"""Outside-in tracing of lpkit's layers for the benchmark's traced run.

The tracer replaces public functions at every module attribute that binds
them with wrappers that record a span (name, start, end, parent) and, for
a few layers, the counts the per-layer metrics need.  The program's code is
untouched: spans sit at the boundaries between modules, seen from outside.
``Tracer.install`` patches the sites; ``uninstall`` restores them.

The matmat/rmatmat callables handed to ``boyd_lower`` are wrapped too.
Their time and column counts are summed into the enclosing ``pnorm.boyd``
span instead of becoming spans of their own, because one job makes tens of
thousands of them.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# spans: name -> list of (module, attribute) sites that bind the function
SITES = {
    "pnorm.boyd": [("lpkit.cyclic", "boyd_lower"), ("lpkit.pnorm", "boyd_lower")],
    "pnorm.opnorm": [("lpkit.lamperti", "opnorm")],
    "cyclic.fpzn": [("lpkit.cyclic", "fpzn_norm"), ("lpkit.zline", "fpzn_norm"),
                    ("lpkit.specconf", "fpzn_norm"), ("lpkit.cli", "fpzn_norm")],
    "zline.fpz": [("lpkit.cli", "fpz_norm"), ("lpkit.specconf", "fpz_norm")],
    "zline.sup_exact": [("lpkit.zline", "sup_exact"), ("lpkit.specconf", "sup_exact")],
    "zline.cyclic_lower": [("lpkit.cli", "cyclic_lower")],
    "specconf.fpsigma": [("lpkit.cli", "fpsigma_norm"), ("lpkit.lamperti", "fpsigma_norm")],
    "specconf.lattice": [("lpkit.cli", name) for name in (
        "saturate", "leq", "lattice_sup", "lattice_inf", "classify", "canonically_equivalent")],
    "lamperti.fpv": [("lpkit.cli", "fpv_norm")],
    "lamperti.structure": [("lpkit.cli", name) for name in (
        "decompose", "periods", "gauge_trivialize", "spectral_configuration_of")],
    "lamperti.standardized_matrix": [("lpkit.lamperti", "standardized_matrix")],
    "lamperti.sigma_of": [("lpkit.lamperti", "spectral_configuration_of")],
    "cli.dumps": [("lpkit.cli", "dumps")],
}

# a rise of the best ascent value smaller than this (relative) is roundoff
RISE_TOL = 1e-13

class Tracer:
    """Holds the spans of one traced pass in memory.

    A span is ``[name, start, end, parent, extra]`` with parent the index
    of the enclosing span (-1 at the root) and extra a dict or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._in_dumps = False

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "pnorm.boyd":
            return self._wrap_boyd(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "cli.dumps":
                if tracer._in_dumps:  # dumps recurses through its module global
                    return fn(*args, **kwargs)
                tracer._in_dumps = True
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
                if name == "cli.dumps":
                    tracer._in_dumps = False
            if name == "cyclic.fpzn":
                p = args[1] if len(args) > 1 else kwargs["p"]
                span[4] = {"n": int(args[0].n), "p": float(getattr(p, "value", p)),
                           "lower": float(out.lower)}
            return out

        return wrapper

    def _wrap_boyd(self, fn):
        tracer = self

        @functools.wraps(fn)
        def boyd(matmat, rmatmat, starts, p, *args, **kwargs):
            rec = {"matvec_s": 0.0, "cols": 0, "best": [], "tracer_s": 0.0}

            def timed(apply, track):
                def inner(X):
                    t0 = time.perf_counter()
                    Y = apply(X)
                    t1 = time.perf_counter()
                    rec["matvec_s"] += t1 - t0
                    rec["cols"] += X.shape[1]
                    if track:
                        # X has unit p-norm columns, so column p-norms of Y are
                        # the ascent values the iteration compares
                        rec["best"].append(float(np.max(np.sum(np.abs(Y) ** p, axis=0))
                                                 ** (1.0 / p)))
                        rec["tracer_s"] += time.perf_counter() - t1
                    return Y
                return inner

            span = tracer.open("pnorm.boyd")
            try:
                return fn(timed(matmat, True), timed(rmatmat, False), starts, p,
                          *args, **kwargs)
            finally:
                tracer.close(span)
                values = rec.pop("best")[:-1]  # the last call re-evaluates the witness
                useful, best = 0, 0.0
                for i, v in enumerate(values):
                    if v > best * (1.0 + RISE_TOL):
                        useful = i + 1
                    best = max(best, v)
                rec.update(iters=len(values), useful=useful)
                span[4] = rec

        return boyd

    def install(self) -> None:
        import importlib

        for name, sites in SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    out = []
    for i, (name, start, end, parent, extra) in enumerate(spans):
        inner = child[i]
        if name == "pnorm.boyd" and extra:
            inner += extra["matvec_s"] + extra["tracer_s"]
        out.append(end - start - inner)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = _self_times(spans)
    m = {key: 0.0 for key in (
        "pnorm.boyd_self_s", "pnorm.opnorm_self_s", "pnorm.dense_matvec_s",
        "cyclic.fpzn_self_s", "cyclic.matvec_s", "zline.fpz_self_s", "zline.sup_exact_s",
        "zline.cyclic_lower_s", "specconf.fpsigma_self_s", "specconf.lattice_s",
        "lamperti.direct_build_s", "lamperti.via_sigma_s", "lamperti.structure_s",
        "cli.self_s", "cli.dumps_s")}
    counts = {key: 0 for key in (
        "boyd", "iters", "cols", "useful", "opnorm", "fpzn", "n_max", "fpz", "fpz_fpzn",
        "fpz_ascent_fpzn", "fpz_gain", "sup", "fpsigma", "slot_fpzn", "slot_gain", "fpv")}
    running: dict[int, float] = {}  # best lower so far per fpz/fpsigma span
    direct_start: dict[int, float] = {}  # fpv span -> start of its direct build
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        pname = spans[parent][0] if parent >= 0 else None
        if name == "pnorm.boyd":
            counts["boyd"] += 1
            counts["iters"] += extra["iters"]
            counts["cols"] += extra["cols"]
            counts["useful"] += extra["useful"]
            m["pnorm.boyd_self_s"] += selfs[i]
            key = "pnorm.dense_matvec_s" if pname == "pnorm.opnorm" else "cyclic.matvec_s"
            m[key] += extra["matvec_s"]
        elif name == "pnorm.opnorm":
            counts["opnorm"] += 1
            m["pnorm.opnorm_self_s"] += selfs[i]
            if parent in direct_start:
                m["lamperti.direct_build_s"] += start - direct_start.pop(parent)
        elif name == "cyclic.fpzn":
            counts["fpzn"] += 1
            counts["n_max"] = max(counts["n_max"], extra["n"])
            m["cyclic.fpzn_self_s"] += selfs[i]
            if pname == "zline.fpz":
                counts["fpz_fpzn"] += 1
                if extra["p"] not in (1.0, 2.0):
                    counts["fpz_ascent_fpzn"] += 1
                    if extra["lower"] > running.get(parent, 0.0):
                        counts["fpz_gain"] += 1
                        running[parent] = extra["lower"]
            elif pname == "specconf.fpsigma":
                counts["slot_fpzn"] += 1
                if extra["lower"] > running.get(parent, -np.inf):
                    counts["slot_gain"] += 1
                    running[parent] = extra["lower"]
        elif name == "zline.fpz":
            counts["fpz"] += 1
            m["zline.fpz_self_s"] += selfs[i]
        elif name == "zline.sup_exact":
            counts["sup"] += 1
            m["zline.sup_exact_s"] += dur
        elif name == "zline.cyclic_lower":
            m["zline.cyclic_lower_s"] += dur
        elif name == "specconf.fpsigma":
            counts["fpsigma"] += 1
            m["specconf.fpsigma_self_s"] += selfs[i]
            if pname == "lamperti.fpv":
                m["lamperti.via_sigma_s"] += dur
        elif name == "specconf.lattice":
            m["specconf.lattice_s"] += dur
        elif name == "lamperti.fpv":
            counts["fpv"] += 1
        elif name == "lamperti.standardized_matrix" and pname == "lamperti.fpv":
            direct_start[parent] = start
        elif name == "lamperti.sigma_of" and pname == "lamperti.fpv":
            m["lamperti.via_sigma_s"] += dur
        elif name == "lamperti.structure":
            m["lamperti.structure_s"] += dur
        elif name == "cli.main":
            m["cli.self_s"] += selfs[i]
        elif name == "cli.dumps":
            m["cli.dumps_s"] += dur
    m.update({
        "pnorm.boyd_calls": counts["boyd"],
        "pnorm.boyd_iters": counts["iters"],
        "pnorm.boyd_matvec_cols": counts["cols"],
        "pnorm.boyd_useful_frac": _ratio(counts["useful"], counts["iters"]),
        "pnorm.opnorm_calls": counts["opnorm"],
        "cyclic.fpzn_calls": counts["fpzn"],
        "cyclic.fpzn_n_max": counts["n_max"],
        "zline.fpz_calls": counts["fpz"],
        "zline.fpzn_per_fpz": _ratio(counts["fpz_fpzn"], counts["fpz"]),
        "zline.gain_frac": _ratio(counts["fpz_gain"], counts["fpz_ascent_fpzn"]),
        "zline.sup_exact_calls": counts["sup"],
        "specconf.fpsigma_calls": counts["fpsigma"],
        "specconf.slot_fpzn_calls": counts["slot_fpzn"],
        "specconf.slot_gain_frac": _ratio(counts["slot_gain"], counts["slot_fpzn"]),
        "lamperti.fpv_calls": counts["fpv"],
        "cli.output_bytes": output_bytes,
    })
    return m
