"""Batch command line driver: JSON in, JSON/CSV out, deterministic output.

Subcommands::

    lpkit norm zn|z|sigma|isometry   --p P --in FILE [--poly FILE] ...
    lpkit config saturate|leq|sup|inf|classify|equiv --in FILE [--in FILE] ...
    lpkit isom decompose|periods|trivialize|sigma    --in FILE ...
    lpkit sweep --kind zn|z --in FILE (--p-grid A:B:S | --n-grid N1,N2,...) ...

Exit codes: 0 success (wide brackets included), 2 schema violation or bad
grid, 3 precondition violation, 4 empty lattice meet.  All numbers are
serialized with 17 significant digits; repeated runs with the same
configuration (including seed) produce byte-identical output.  Timing
columns in sweeps are zero unless --timings is passed, keeping the default
output reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .cyclic import CyclicElement, fpzn_norm, json_complex
from .lamperti import (
    AtomicSpace,
    SpatialIsometry,
    decompose,
    fpv_norm,
    gauge_trivialize,
    periods,
    spectral_configuration_of,
)
from .pnorm import as_exponent
from .specconf import (
    EmptyMeetError,
    SpectralConfiguration,
    canonically_equivalent,
    classify,
    fpsigma_norm,
    lattice_inf,
    lattice_sup,
    leq,
    saturate,
)
from .zline import LaurentPolynomial, check_tol, cyclic_lower, fpz_norm, fpz_upper

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_EMPTY_MEET = 4


class SchemaError(ValueError):
    pass


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in output")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits for floats."""
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    # ValueError: malformed JSON, or an integer past Python's digit limit for int <-> str
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot parse {path}: {exc}") from exc


def _parse(loader, obj, what: str):
    try:
        return loader(obj)
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc


def _audit(args: argparse.Namespace, **extra) -> dict:
    out = {"version": __version__}
    for key in ("command", "kind", "op", "p", "tol", "n_max", "resolution",
                "seed", "mode", "format"):
        if hasattr(args, key) and getattr(args, key) is not None:
            out[key] = getattr(args, key)
    for key in ("inputs", "poly"):
        val = getattr(args, key, None)
        if val:
            out[key] = val
    out.update(extra)
    return out


def _require_seed(args) -> int:
    if args.seed is None:
        raise SchemaError("--seed is required when a randomized path can run")
    return args.seed


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: text and integers as they are,
    floats with 17 significant digits as in dumps."""
    lines = [header] + [",".join(str(v) if isinstance(v, (str, int)) else _fmt_float(v)
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _cmd_norm(args) -> dict | str:
    p = args.p
    as_exponent(p)  # p < 1 is a precondition violation, not a schema problem
    randomized = p not in (1.0, 2.0)
    seed = args.seed if not randomized else _require_seed(args)
    seed = 0 if seed is None else seed

    if args.kind == "zn":
        x = _parse(CyclicElement.from_json, _load_json(args.inputs[0]), "cyclic element")
        payload = fpzn_norm(x, p, seed=seed).to_json()
    elif args.kind == "z":
        f = _parse(LaurentPolynomial.from_json, _load_json(args.inputs[0]), "polynomial")
        payload = fpz_norm(f, p, tol=args.tol, n_max=args.n_max, seed=seed).to_json()
    elif args.kind == "sigma":
        if not args.poly:
            raise SchemaError("norm sigma needs --poly")
        config = _parse(SpectralConfiguration.from_json, _load_json(args.inputs[0]),
                        "configuration")
        f = _parse(LaurentPolynomial.from_json, _load_json(args.poly), "polynomial")
        payload = fpsigma_norm(f, config, p, resolution=args.resolution,
                               n_max=args.n_max, seed=seed).to_json()
    else:  # isometry
        if not args.poly:
            raise SchemaError("norm isometry needs --poly")
        v = _parse(SpatialIsometry.from_json, _load_json(args.inputs[0]), "isometry")
        f = _parse(LaurentPolynomial.from_json, _load_json(args.poly), "polynomial")
        mode = args.mode or "both"
        result = fpv_norm(f, v, p, mode, seed=seed, n_max=args.n_max)
        if mode == "both":
            direct, via = result
            slack = 1e-9 * max(1.0, direct.upper, via.upper)  # roundoff guard
            payload = {
                "direct": direct.to_json(),
                "via_sigma": via.to_json(),
                "overlap": direct.overlaps(via, slack),
            }
        else:
            payload = result.to_json()

    if args.format != "csv":
        return payload
    if "direct" in payload:
        d, v = payload["direct"], payload["via_sigma"]
        return _csv("direct_lower,direct_upper,via_lower,via_upper,overlap",
                    [(d["lower"], d["upper"], v["lower"], v["upper"],
                      "true" if payload["overlap"] else "false")])
    return _csv("lower,upper,method", [(payload["lower"], payload["upper"], payload["method"])])


def _cmd_config(args) -> dict:
    configs = [
        _parse(SpectralConfiguration.from_json, _load_json(path), "configuration")
        for path in args.inputs
    ]
    op = args.op
    if op in ("leq", "equiv") and len(configs) != 2:
        raise SchemaError(f"config {op} needs exactly two --in files")
    if op in ("saturate", "classify") and len(configs) != 1:
        raise SchemaError(f"config {op} needs exactly one --in file")

    if op == "saturate":
        return {"result": saturate(configs[0]).to_json()}
    if op == "leq":
        return {
            "result": leq(configs[0], configs[1]),
            "saturated_inputs": configs[0].is_saturated and configs[1].is_saturated,
        }
    if op == "sup":
        return {"result": lattice_sup(configs).to_json()}
    if op == "inf":
        return {"result": lattice_inf(configs).to_json()}
    if op == "classify":
        if args.p is None:
            raise SchemaError("config classify needs --p")
        return {"result": classify(configs[0], args.p).to_json()}
    return {"result": canonically_equivalent(configs[0], configs[1])}  # equiv


def _cmd_isom(args) -> dict:
    obj = _load_json(args.inputs[0])
    if args.op == "decompose":
        if args.p is None:
            raise SchemaError("isom decompose needs --p")
        space = _parse(AtomicSpace.from_json, obj, "space")
        matrix = _parse(
            lambda o: np.array([[json_complex(z, "matrix") for z in row] for row in o["matrix"]]),
            obj, "matrix")
        return {"result": decompose(matrix, space, args.p, tol=args.tol).to_json()}
    v = _parse(SpatialIsometry.from_json, obj, "isometry")
    if args.op == "periods":
        return {"result": periods(v).to_json()}
    if args.op == "trivialize":
        g, vp = gauge_trivialize(v)
        return {"result": {"gauge": [[z.real, z.imag] for z in g], "isometry": vp.to_json()}}
    return {"result": spectral_configuration_of(v).to_json()}  # sigma


_MAX_P_GRID = 10_000  # most points one --p-grid may hold


def _parse_p_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise SchemaError(f"bad --p-grid {spec!r}, expected START:STOP:STEP") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise SchemaError(f"bad --p-grid {spec!r}, START, STOP and STEP must be finite")
    if step <= 0 or stop < start:
        raise SchemaError("empty p grid")
    if (stop + 1e-12 - start) / step >= _MAX_P_GRID:  # the loop appends floor(this) + 1 points
        raise SchemaError(f"--p-grid {spec!r} has more than {_MAX_P_GRID} points")
    out = []
    k = 0
    while start + k * step <= stop + 1e-12:
        out.append(round(start + k * step, 12))
        k += 1
    return out


def _parse_n_grid(spec: str) -> list[int]:
    try:
        out = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad --n-grid {spec!r}") from exc
    if not out or any(n < 1 for n in out):
        raise SchemaError("empty or invalid n grid")
    return out


def _cmd_sweep(args) -> str:
    seed = _require_seed(args)
    if bool(args.p_grid) == bool(args.n_grid):
        raise SchemaError("declare exactly one of --p-grid or --n-grid")
    if args.p is not None:
        as_exponent(args.p)
    p_grid = _parse_p_grid(args.p_grid) if args.p_grid else []
    for p in p_grid:
        as_exponent(p)

    rows = []
    if args.kind == "zn":
        x = _parse(CyclicElement.from_json, _load_json(args.inputs[0]), "cyclic element")
        if args.n_grid:
            raise SchemaError("sweep zn varies p; use --p-grid")
        for p in p_grid:
            t0 = time.perf_counter()
            est = fpzn_norm(x, p, seed=seed)
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append((p, x.n, est.lower, est.upper, ms if args.timings else 0.0))
    else:
        f = _parse(LaurentPolynomial.from_json, _load_json(args.inputs[0]), "polynomial")
        if p_grid:
            for p in p_grid:
                t0 = time.perf_counter()
                est = fpz_norm(f, p, tol=args.tol, n_max=args.n_max, seed=seed)
                ms = (time.perf_counter() - t0) * 1000.0
                rows.append((p, args.n_max, est.lower, est.upper, ms if args.timings else 0.0))
        else:
            if args.p is None:
                raise SchemaError("sweep z over --n-grid needs --p")
            check_tol(args.tol)
            upper = fpz_upper(f, args.p)
            for n in _parse_n_grid(args.n_grid):
                t0 = time.perf_counter()
                low = cyclic_lower(f, n, args.p, seed=seed)
                ms = (time.perf_counter() - t0) * 1000.0
                rows.append((args.p, n, low, upper, ms if args.timings else 0.0))
    return _csv("p,n,lower,upper,runtime_ms", rows)


@functools.cache  # one parser per process, built on first use (not at import: setup time)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, formats=("json", "csv")):
        sp.add_argument("--in", dest="inputs", action="append", required=True,
                        metavar="FILE", help="input JSON file (repeatable)")
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--format", choices=["json", "csv"], default=None)
        sp.set_defaults(formats=formats)
        if seed:
            sp.add_argument("--seed", type=int, default=None)

    p_norm = sub.add_parser("norm", help="norm brackets")
    p_norm.add_argument("kind", choices=["zn", "z", "sigma", "isometry"])
    p_norm.add_argument("--p", type=float, required=True)
    p_norm.add_argument("--tol", type=float, default=1e-6)
    p_norm.add_argument("--n-max", dest="n_max", type=int, default=512)
    p_norm.add_argument("--resolution", type=float, default=1.0 / 2048)
    p_norm.add_argument("--poly", help="Laurent polynomial JSON (sigma/isometry)")
    p_norm.add_argument("--mode", choices=["direct", "via-sigma", "both"], default=None)
    common(p_norm)
    p_norm.set_defaults(func=_cmd_norm)

    p_cfg = sub.add_parser("config", help="spectral configuration algebra")
    p_cfg.add_argument("op", choices=["saturate", "leq", "sup", "inf", "classify", "equiv"])
    p_cfg.add_argument("--p", type=float, default=None)
    common(p_cfg, seed=False, formats=("json",))
    p_cfg.set_defaults(func=_cmd_config)

    p_isom = sub.add_parser("isom", help="isometry analysis")
    p_isom.add_argument("op", choices=["decompose", "periods", "trivialize", "sigma"])
    p_isom.add_argument("--p", type=float, default=None)
    p_isom.add_argument("--tol", type=float, default=1e-9)
    common(p_isom, seed=False, formats=("json",))
    p_isom.set_defaults(func=_cmd_isom)

    p_sweep = sub.add_parser("sweep", help="grid sweeps to CSV")
    p_sweep.add_argument("--kind", choices=["zn", "z"], required=True)
    p_sweep.add_argument("--p", type=float, default=None)
    p_sweep.add_argument("--p-grid", dest="p_grid", default=None, metavar="START:STOP:STEP")
    p_sweep.add_argument("--n-grid", dest="n_grid", default=None, metavar="N1,N2,...")
    p_sweep.add_argument("--tol", type=float, default=1e-6)
    p_sweep.add_argument("--n-max", dest="n_max", type=int, default=512)
    p_sweep.add_argument("--timings", action="store_true",
                         help="measure runtimes (breaks byte-reproducibility)")
    common(p_sweep, formats=("csv",))
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format not in (None, *args.formats):
            raise SchemaError(f"{args.command} emits {' or '.join(args.formats).upper()} only")
        out = args.func(args)  # a JSON payload, or CSV text
        if isinstance(out, dict):
            out["config"] = _audit(args)
            out = dumps(out) + "\n"
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except EmptyMeetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_MEET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
