"""Spectral configurations: rotation-invariant circle sets, one per order n.

A configuration assigns to each n a closed subset of the circle invariant
under rotation by 1/n of a turn (finitely many slots nonempty), plus an
infinity slot that is empty or the full circle.  Configurations carry a
norm on Laurent polynomials (slotwise sup of cyclic tuple norms), a
saturation operation, a complete lattice order, a dichotomy classifier and
a bump-function membership probe.

Angles are stored in turns.  Rational angles are kept as exact fractions, so
rotations and saturation stay exact; irrational inputs stay floats.  Any two
angles are equal when their circular distance is at most 5e-12: snapping
two nearby float roots can give two distinct fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .cyclic import CyclicElement, fpzn_norm, fpzn_norms, gap_witness
from .pnorm import TIGHT_TOL, NormEstimate, as_exponent, method_of, section_max
from .zline import LaurentPolynomial, _upper_from_sup, fpz_norm, sup_exact

__all__ = [
    "ArcSet",
    "DichotomyResult",
    "EmptyMeetError",
    "ProbeResult",
    "SpectralConfiguration",
    "canonically_equivalent",
    "classify",
    "closure_union",
    "fpsigma_norm",
    "lattice_inf",
    "lattice_sup",
    "leq",
    "membership_probe",
    "order",
    "saturate",
]

_SNAP_TOL = 1e-12
# comparisons tolerate a few snap steps' worth of drift
_ANGLE_TOL = 5e-12
_SNAP_DENOMINATOR = 10**6
# steps of an arc slot's k-section refinement (see pnorm.section_max), a factor
# 2/9 each; (2/9)^10 = 2.9e-7 <= phi^-30 = 5.4e-7, so the final window is no
# wider than 30 sequential golden-section steps leave
_SECTION_STEPS = 10
# finest arc-grid resolution, 32 times finer than the default 1/2048; an arc grid's
# time and memory grow as 1/resolution, and 1e-9 would ask for about 10^9 angles
_MIN_RESOLUTION = 2.0**-16
# largest order of an arc or full slot, whose confirmation solves n tuples of order n:
# order 256 took 20-30 s and 233 MB, and order 4,096 exhausted memory
_MAX_ARC_ORDER = 256

Angle = object  # Fraction or float, in turns, normalized to [0, 1)


class EmptyMeetError(ValueError):
    """The slotwise intersection produced no valid configuration."""


def snap_angle(a) -> Angle:
    """Normalize an angle in turns to [0, 1), snapping near-rationals exact.

    Big-denominator rationals are accepted only at float-roundoff distance;
    at tolerance 1e-12 alone, denominator-10^6 rationals are dense enough to
    capture genuinely irrational angles.
    """
    if isinstance(a, Fraction):
        return a % 1
    if isinstance(a, (bool, str)):
        raise ValueError(f"an angle must be a number, got {a!r}")
    if isinstance(a, int):
        return Fraction(a) % 1
    a = float(a) % 1.0
    frac = Fraction(a).limit_denominator(_SNAP_DENOMINATOR)
    err = abs(a - float(frac))
    if err <= _SNAP_TOL and (frac.denominator <= 10**4 or err <= 5e-14):
        return frac % 1
    return a


def _exact_or_float(*xs) -> tuple:
    """The operands unchanged when all are exact fractions, else as floats."""
    if all(isinstance(x, Fraction) for x in xs):
        return xs
    return tuple(float(x) for x in xs)


def _add(a: Angle, b: Angle) -> Angle:
    a, b = _exact_or_float(a, b)
    return (a + b) % 1


def rotation_orbits(bases, n: int):
    """The orbits {b + j/n} of the rotation by 1/n, one after another:
    _add(b, j/n), exact for exact b.  A float array of bases, as arc grids
    pass, gives a float array from one broadcast of _add's float branch
    (b + j/n) % 1, with the same bits as Python floats."""
    if isinstance(bases, np.ndarray):
        return ((bases[:, None] + np.arange(n) / n) % 1).reshape(-1)
    return [_add(b, Fraction(j, n)) if isinstance(b, Fraction) else (float(b) + j / n) % 1
            for b in bases for j in range(n)]


def _circ_dist(a: Angle, b: Angle) -> float:
    d = abs(float(a) - float(b)) % 1.0
    return min(d, 1.0 - d)


def _angle_eq(a: Angle, b: Angle) -> bool:
    return _circ_dist(a, b) <= _ANGLE_TOL


@dataclass(frozen=True)
class ArcSet:
    """Closed subset of the circle: finitely many points and closed arcs.

    Arcs are (start, length) in turns with 0 < length < 1, traversed
    counterclockwise; construction merges overlapping and abutting arcs,
    absorbs points lying on arcs, and collapses to ``full`` when the arcs
    cover the whole circle.
    """

    points: tuple = ()
    arcs: tuple = ()
    full: bool = False

    def __post_init__(self):
        pts = [snap_angle(p) for p in self.points]
        raw = []
        for a, b in self.arcs:
            a, b = snap_angle(a), snap_angle(b)
            x, y = _exact_or_float(a, b)
            length = (y - x) % 1
            if length == 0 or (not isinstance(length, Fraction) and length <= _ANGLE_TOL):
                pts.append(a)
            else:
                raw.append((a, length))
        full = bool(self.full)
        if not full and raw:
            raw.sort(key=lambda ar: float(ar[0]))
            merged = [raw[0]]
            for s, ln in raw[1:]:
                ps, pln = merged[-1]
                gap = float(s) - (float(ps) + float(pln))
                if gap <= _ANGLE_TOL:  # overlap or closed arcs touching
                    a, b, c, d = _exact_or_float(ps, pln, s, ln)
                    merged[-1] = (ps, max(a + b, c + d) - a)
                else:
                    merged.append((s, ln))
            if len(merged) > 1:
                s0, ln0 = merged[0]
                sl, lnl = merged[-1]
                wrap = float(sl) + float(lnl) - 1.0
                if wrap >= float(s0) - _ANGLE_TOL:  # last arc reaches around to the first
                    a, b, c, d = _exact_or_float(sl, lnl, s0, ln0)
                    merged = merged[1:-1] + [(sl, max(a + b, c + d + 1) - a)]
            total = sum(float(ln) for _, ln in merged)
            if total >= 1.0 - _ANGLE_TOL:
                full = True
                merged = []
            raw = merged
        if full:
            pts, raw = [], []
        else:
            pts = [p for p in pts if not _arc_list_contains(raw, p)]
            unique = []
            for p in sorted(pts, key=float):
                if not unique or not _angle_eq(unique[-1], p):
                    unique.append(p)
            pts = unique
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "arcs", tuple(raw))
        object.__setattr__(self, "full", full)

    @property
    def is_empty(self) -> bool:
        return not self.full and not self.points and not self.arcs

    def contains(self, a) -> bool:
        if self.full:
            return True
        a = snap_angle(a)
        return any(_angle_eq(a, p) for p in self.points) or _arc_list_contains(self.arcs, a)

    def rotated(self, delta: Angle) -> "ArcSet":
        if self.full:
            return self
        return ArcSet(
            tuple(_add(p, delta) for p in self.points),
            tuple((_add(s, delta), _add(_add(s, delta), ln)) for s, ln in self.arcs),
            False,
        )

    def same_as(self, other: "ArcSet") -> bool:
        if self.full or other.full:
            return self.full == other.full
        if len(self.points) != len(other.points) or len(self.arcs) != len(other.arcs):
            return False
        if not all(_angle_eq(p, q) for p, q in zip(self.points, other.points)):
            return False
        return all(
            _angle_eq(s, t) and abs(float(ln) - float(lm)) <= _ANGLE_TOL
            for (s, ln), (t, lm) in zip(self.arcs, other.arcs)
        )

    def subset_of(self, other: "ArcSet") -> bool:
        if other.full:
            return True
        if self.full:
            return False
        for p in self.points:
            if not other.contains(p):
                return False
        for s, ln in self.arcs:
            # a connected closed arc fits in a union of disjoint closed arcs
            # only by fitting inside a single one
            ok = False
            for t, lm in other.arcs:
                off = (float(s) - float(t)) % 1.0
                if off <= _ANGLE_TOL:
                    off = 0.0
                if off + float(ln) <= float(lm) + _ANGLE_TOL:
                    ok = True
                    break
            if not ok:
                return False
        return True

    def union(self, other: "ArcSet") -> "ArcSet":
        if self.full or other.full:
            return ArcSet(full=True)
        return ArcSet(
            self.points + other.points,
            tuple((s, _add(s, ln)) for s, ln in self.arcs + other.arcs),
            False,
        )

    def intersection(self, other: "ArcSet") -> "ArcSet":
        if self.full:
            return other
        if other.full:
            return self
        pts = [p for p in self.points if other.contains(p)]
        pts += [p for p in other.points if self.contains(p)]
        arcs = []
        for s1, l1 in self.arcs:
            for s2, l2 in other.arcs:
                for shift in (-1, 0, 1):
                    lo = max(float(s1), float(s2) + shift)
                    hi = min(float(s1) + float(l1), float(s2) + float(l2) + shift)
                    if hi - lo > _ANGLE_TOL:
                        a, b, c, d = _exact_or_float(s1, l1, s2, l2)
                        arcs.append((max(a, c + shift), min(a + b, c + d + shift)))
                    elif abs(hi - lo) <= _ANGLE_TOL:
                        pts.append(lo)
        return ArcSet(tuple(pts), tuple(arcs), False)

    def arc_grid(self, resolution: float) -> list:
        """Sample angles over the arcs at `resolution`: a uniform grid of at
        least 8 angles on the full circle, else each arc's ends and evenly
        spaced angles between them (no isolated points)."""
        if self.full:
            count = max(8, int(math.ceil(1.0 / resolution)))
            return [k / count for k in range(count)]
        out = []
        for s, ln in self.arcs:
            count = max(2, int(math.ceil(float(ln) / resolution)) + 1)
            out.extend(float(s) + float(ln) * k / (count - 1) for k in range(count))
        return out

    def orbit_representatives(self, n: int) -> "ArcSet":
        """One member of each orbit of the rotation by 1/n, for a set invariant
        under it: the first len/n sorted points and arcs (each orbit has one in
        [0, 1/n)); for a full set the arc [0, 1/n], or the set itself at n = 1."""
        if self.full:
            return self if n == 1 else ArcSet(arcs=((0, Fraction(1, n)),))
        reps = ArcSet()
        object.__setattr__(reps, "points", self.points[:len(self.points) // n])
        object.__setattr__(reps, "arcs", self.arcs[:len(self.arcs) // n])
        return reps

    def to_json(self) -> dict:
        return {
            "points": [float(p) for p in self.points],
            "arcs": [[float(s), float(s) + float(ln)] for s, ln in self.arcs],
            "full": self.full,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ArcSet":
        return cls(
            tuple(obj.get("points", ())),
            tuple((a, b) for a, b in obj.get("arcs", ())),
            json_flag(obj, "full"),
        )


def json_flag(obj: dict, key: str) -> bool:
    """obj[key] if it is a JSON boolean, False if absent; ValueError otherwise."""
    flag = obj.get(key, False)
    if not isinstance(flag, bool):
        raise ValueError(f"{key!r} must be true or false, got {flag!r}")
    return flag


def _arc_list_contains(arcs, a) -> bool:
    for s, ln in arcs:
        if isinstance(s, Fraction) and isinstance(ln, Fraction) and isinstance(a, Fraction):
            if 0 <= (a - s) % 1 <= ln:
                return True
        else:
            off = (float(a) - float(s)) % 1.0
            if off <= float(ln) + _ANGLE_TOL or off >= 1.0 - _ANGLE_TOL:
                return True
    return False


def roots_of_unity_set(n: int, base: Angle = Fraction(0)) -> ArcSet:
    """The orbit {base + j/n} as an ArcSet (rotation-by-1/n invariant)."""
    return ArcSet(tuple(rotation_orbits([snap_angle(base)], n)))


@dataclass(frozen=True)
class SpectralConfiguration:
    """Finitely supported family n -> ArcSet plus an infinity flag.

    ``maximal`` encodes the one configuration with every slot equal to the
    full circle (the only saturated configuration of infinite order), which
    has no finite-support representation.
    """

    finite_slots: Mapping[int, ArcSet] = field(default_factory=dict)
    infinity_full: bool = False
    maximal: bool = False

    def __post_init__(self):
        if self.maximal:
            object.__setattr__(self, "finite_slots", {})
            object.__setattr__(self, "infinity_full", True)
            return
        slots = {}
        for n, arcset in dict(self.finite_slots).items():
            n = int(n)
            if n < 1:
                raise ValueError("slot indices must be positive integers")
            if arcset.is_empty:
                continue
            slots[n] = arcset
        if not slots and not self.infinity_full:
            raise ValueError("a configuration needs at least one nonempty slot")
        for n, arcset in slots.items():
            if not arcset.rotated(Fraction(1, n)).same_as(arcset):
                raise ValueError(f"slot {n} is not invariant under rotation by 1/{n}")
        object.__setattr__(self, "finite_slots", dict(sorted(slots.items())))

    @classmethod
    def maximal_configuration(cls) -> "SpectralConfiguration":
        return cls(maximal=True)

    @property
    def is_saturated(self) -> bool:
        if self.maximal:
            return True
        if self.infinity_full:
            return False
        slots = self.finite_slots
        for m in slots:
            for n in slots:
                if m % n == 0 and not slots[m].subset_of(slots[n]):
                    return False
            for n in range(1, m):
                if m % n == 0 and n not in slots:
                    return False
        return True

    def slot(self, n: int) -> ArcSet:
        if self.maximal:
            return ArcSet(full=True)
        return self.finite_slots.get(n, ArcSet())

    def to_json(self) -> dict:
        return {
            "finite": {str(n): s.to_json() for n, s in self.finite_slots.items()},
            "infinity": "full" if self.infinity_full else "empty",
            "maximal": self.maximal,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SpectralConfiguration":
        if json_flag(obj, "maximal"):
            return cls(maximal=True)
        infinity = obj.get("infinity", "empty")
        if infinity not in ("full", "empty"):
            raise ValueError(f"'infinity' must be \"full\" or \"empty\", got {infinity!r}")
        return cls(
            {int(n): ArcSet.from_json(s) for n, s in obj.get("finite", {}).items()},
            infinity == "full",
        )


def order(config: SpectralConfiguration):
    """Largest n with a nonempty slot; math.inf when the infinity slot is full."""
    if config.maximal or config.infinity_full:
        return math.inf
    return max(config.finite_slots)


def saturate(config: SpectralConfiguration) -> SpectralConfiguration:
    """Minimum saturated configuration containing the input.

    Infinite order forces the maximal configuration; otherwise slot n of the
    saturation is the union of the slots at all multiples of n.
    """
    if order(config) == math.inf:
        return SpectralConfiguration.maximal_configuration()
    slots: dict[int, ArcSet] = {}
    for m, arcset in config.finite_slots.items():
        for n in range(1, m + 1):
            if m % n == 0:
                slots[n] = slots.get(n, ArcSet()).union(arcset)
    return SpectralConfiguration(slots, False)


def leq(cfg_small: SpectralConfiguration, cfg_big: SpectralConfiguration) -> bool:
    """Slotwise containment of saturations (inputs are saturated first)."""
    a = saturate(cfg_small)
    b = saturate(cfg_big)
    if b.maximal:
        return True
    if a.maximal:
        return False
    return all(arcset.subset_of(b.slot(n)) for n, arcset in a.finite_slots.items())


def lattice_sup(configs: Sequence[SpectralConfiguration]) -> SpectralConfiguration:
    """Slotwise union of saturated configurations (saturating inputs first)."""
    configs = [saturate(c) for c in configs]
    if not configs:
        raise ValueError("need at least one configuration")
    if any(c.maximal for c in configs):
        return SpectralConfiguration.maximal_configuration()
    slots: dict[int, ArcSet] = {}
    for c in configs:
        for n, arcset in c.finite_slots.items():
            slots[n] = slots.get(n, ArcSet()).union(arcset)
    return SpectralConfiguration(slots, False)


def lattice_inf(configs: Sequence[SpectralConfiguration]) -> SpectralConfiguration:
    """Slotwise intersection; raises EmptyMeetError when everything vanishes."""
    configs = [saturate(c) for c in configs]
    if not configs:
        raise ValueError("need at least one configuration")
    non_max = [c for c in configs if not c.maximal]
    if not non_max:
        return SpectralConfiguration.maximal_configuration()
    slots: dict[int, ArcSet] = dict(non_max[0].finite_slots)
    for c in non_max[1:]:
        slots = {n: arcset.intersection(c.slot(n)) for n, arcset in slots.items()}
    slots = {n: s for n, s in slots.items() if not s.is_empty}
    if not slots:
        raise EmptyMeetError("slotwise intersection is empty; no configuration exists")
    return SpectralConfiguration(slots, False)


def closure_union(config: SpectralConfiguration) -> ArcSet:
    """Union of all slots (the closed support on the circle)."""
    if config.maximal or config.infinity_full:
        return ArcSet(full=True)
    out = ArcSet()
    for arcset in config.finite_slots.values():
        out = out.union(arcset)
    return out


def canonically_equivalent(a: SpectralConfiguration, b: SpectralConfiguration) -> bool:
    """Equal saturations, i.e. the associated algebras are canonically isometric."""
    sa, sb = saturate(a), saturate(b)
    if sa.maximal or sb.maximal:
        return sa.maximal == sb.maximal
    if set(sa.finite_slots) != set(sb.finite_slots):
        return False
    return all(sa.finite_slots[n].same_as(sb.finite_slots[n]) for n in sa.finite_slots)


@dataclass(frozen=True)
class DichotomyResult:
    """Isomorphism type of the configuration algebra.

    kind "fpz" (infinite order: the bilateral-shift algebra) or "continuous"
    (finite order N: all continuous functions on the support, isometrically
    the sup norm exactly when p = 2 or N = 1).
    """

    kind: str
    order: float
    isometric_to_sup: bool | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "order": None if math.isinf(self.order) else int(self.order)}
        if self.isometric_to_sup is not None:
            out["isometric_to_sup"] = self.isometric_to_sup
        return out


def classify(config: SpectralConfiguration, p) -> DichotomyResult:
    p = as_exponent(p)
    n = order(config)
    if n == math.inf:
        return DichotomyResult("fpz", math.inf)
    return DichotomyResult("continuous", n, isometric_to_sup=(p == 2.0 or n == 1))


def _slots_lower(evaluate: Callable, slots: Mapping[int, ArcSet], p, resolution: float,
                 seed: int) -> list[tuple[float, np.ndarray, bool, float]]:
    """Sup of tuple norms over each slot n -> ArcSet, exact over points and
    searched over arcs: one (lower bound, witness, exact, point upper) per slot,
    in slot order.  Exact means no arcs, so the sup is a finite max of
    certified point values; point upper is the largest over the slot's points.

    The tuple at a + j/n is a rotation of the one at a, with the same norm, so a
    slot is solved over one orbit (ArcSet.orbit_representatives): one tuple per
    orbit of its points, every slot's in one fpzn_norms call at TIGHT_TOL; on its
    arcs, a grid at `resolution` refined by _SECTION_STEPS steps of
    pnorm.section_max on [g - resolution, g + resolution] around the best grid
    angle g, each step from the witness of the slot's best arc tuple so far
    (fpzn_norms' `starts`), then the best arc angle's n rotations from the full
    start block at TIGHT_TOL.  The arc slots advance in lockstep, one column of
    the search each, so the grids, each step and the confirmations are one
    fpzn_norms call apiece, where each array's solve is its own.  A slot's lower
    bound is the best value it evaluated, a point's on ties.  ValueError, before
    any solve, for an arc or full slot of order above _MAX_ARC_ORDER.
    """
    if any(n > _MAX_ARC_ORDER and (s.arcs or s.full) for n, s in slots.items()):
        raise ValueError(f"arc and full slots must have order at most {_MAX_ARC_ORDER}")
    reps = [rotation_orbits(arcset.orbit_representatives(n).points, n)
            for n, arcset in slots.items()]
    points = fpzn_norms([evaluate(np.array(angles, dtype=float)).reshape(-1, n)
                         for angles, n in zip(reps, slots)], p, tol=TIGHT_TOL, seed=seed)
    best = [(float(lo.max()), wit[lo.argmax()]) if lo.size else (-math.inf, None)
            for lo, _, wit in points]
    grids = {i: np.array(arcset.orbit_representatives(n).arc_grid(resolution), dtype=float)
             for i, (n, arcset) in enumerate(slots.items()) if arcset.arcs or arcset.full}
    orders = [n for i, n in enumerate(slots) if i in grids]
    arc = [(-math.inf, None, None)] * len(grids)  # best arc tuple: lower bound, angle, witness

    def solve(angles, **kwargs) -> list:
        """fpzn_norms of the order-n tuples at the rotates of angles[s] for each arc
        slot s, one `evaluate` per slot; each slot keeps its best lower bound and
        best arc tuple."""
        found = fpzn_norms([evaluate(rotation_orbits(a, n)).reshape(-1, n)
                            for a, n in zip(angles, orders)], p, seed=seed, **kwargs)
        for s, (i, a, (lower, _, witnesses)) in enumerate(zip(grids, angles, found)):
            if lower.max() > best[i][0]:
                best[i] = float(lower.max()), witnesses[lower.argmax()]
            if lower.max() > arc[s][0]:
                arc[s] = lower.max(), a[lower.argmax()], witnesses[lower.argmax()]
        return [lower for lower, _, _ in found]

    if grids:
        solve(list(grids.values()))
        section_max(lambda angles: np.stack(solve(angles.T, starts=[w for *_, w in arc]), 1),
                    np.array([a for _, a, _ in arc]), np.full(len(arc), resolution),
                    _SECTION_STEPS)
        solve([rotation_orbits(np.array([a]), n) for (_, a, _), n in zip(arc, orders)],
              tol=TIGHT_TOL)
    return [(lo, wit, not arcset.arcs and not arcset.full, float(upper.max(initial=-math.inf)))
            for (lo, wit), arcset, (_, upper, _) in zip(best, slots.values(), points)]


def _check_resolution(resolution) -> None:
    if not (math.isfinite(resolution) and resolution >= _MIN_RESOLUTION):
        raise ValueError("resolution must be finite and positive, at least 2^-16, "
                         f"got {resolution!r}")


def fpsigma_norm(f: LaurentPolynomial, config: SpectralConfiguration, p,
                 resolution: float = 1.0 / 2048, *, n_max: int = 512,
                 seed: int = 0) -> NormEstimate:
    """Configuration norm of f: sup over slots of cyclic tuple norms.

    Point slots are exact finite maxima over one tuple per rotation orbit,
    every slot's in one fpzn_norms call (see _slots_lower).  Arc slots
    contribute lower bounds from a grid at `resolution` over one rotation
    orbit, refined by a batched k-section search from carried starts and
    confirmed over the best angle's n rotations (see _slot_lower), and a
    certified upper bound uniform over the arc from interpolation, computed
    only when a slot has arcs; a full infinity slot contributes the
    bilateral convolution norm bracket.  ValueError unless `resolution` is
    finite and at least 2^-16, before any solve.
    """
    p = as_exponent(p)
    _check_resolution(resolution)
    evaluate = lambda angles: f(np.exp(2j * math.pi * angles))

    lower = -math.inf
    upper = 0.0
    witness = np.array([1.0 + 0.0j])
    method = method_of(p)
    all_exact = True

    arc_upper = None  # uniform over any arc: computed once, for the first slot with arcs

    slots = {} if config.maximal else config.finite_slots
    for lo, wit, exact, point_upper in _slots_lower(evaluate, slots, p, resolution, seed):
        if lo > lower:
            lower, witness = lo, wit
        if exact:
            slot_upper = point_upper
        else:
            if arc_upper is None:
                arc_upper = _upper_from_sup(f, p, sup_exact(f)[0] * (1.0 + 1e-12))
            slot_upper = arc_upper
            all_exact = False
        upper = max(upper, slot_upper)

    if config.maximal or config.infinity_full:
        est = fpz_norm(f, p, n_max=n_max, seed=seed)
        if est.lower > lower:
            lower, witness = est.lower, est.witness
        upper = max(upper, est.upper)
        all_exact = all_exact and est.upper - est.lower <= 1e-10 * max(1.0, est.lower)

    if not all_exact and method.startswith("exact"):
        method = "boyd+interp"
    return NormEstimate(lower, max(upper, lower), witness, method)


def config_value(evaluate: Callable, config: SpectralConfiguration, p,
                 resolution: float = 1.0 / 2048, *, seed: int = 0) -> float:
    """Slotwise sup of cyclic tuple norms for a pointwise-defined function.

    Lower-bound semantics on arc slots, searched as in fpsigma_norm (one
    orbit, then the best angle's rotations); exact on point slots, solved
    as in fpsigma_norm.  This is
    the engine behind the membership probe, which feeds piecewise-linear
    bump functions that are not Laurent polynomials.  ValueError unless
    `resolution` is finite and at least 2^-16.
    """
    p = as_exponent(p)
    _check_resolution(resolution)
    if config.maximal or config.infinity_full:
        raise ValueError("pointwise evaluation needs a finite-order configuration")
    best = 0.0
    for lo, _, _, _ in _slots_lower(evaluate, config.finite_slots, p, resolution, seed):
        best = max(best, lo)
    return best


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the bump-function membership test.

    verdict: "member", "not-member", or "inconclusive"; trace holds the
    configuration-norm value at each bump sharpness k of the schedule.
    """

    verdict: str
    trace: tuple[tuple[int, float], ...]


def _probe_witness(n: int, relevant_divisors: list[int], p, margin: float,
                   seed: int) -> tuple[np.ndarray, float]:
    """Tuple alpha with all order-d restrictions of norm <= 1 and norm > 1 + margin."""
    if n == 1:
        return np.array([1.0 + 2.0 * margin + 0.0j]), 2.0 * margin
    best: tuple[float, np.ndarray] | None = None
    for d in sorted(relevant_divisors, reverse=True) or [max(
            d for d in range(1, n) if n % d == 0)]:
        alpha, _ = gap_witness(n, d, p, seed=seed, target_margin=2.0 * margin)
        scale = max(upper.max() for _, upper, _ in fpzn_norms(
            [alpha.xi.reshape(dd, -1).T for dd in relevant_divisors or [d]], p, seed=seed))
        scaled = alpha.xi / scale
        gap = fpzn_norm(CyclicElement(n, scaled), p, seed=seed).lower - 1.0
        if best is None or gap > best[0]:
            best = (gap, scaled)
        if gap > margin:
            return scaled, gap
    return best[1], best[0]


def membership_probe(t, n: int, config: SpectralConfiguration, p,
                     k_schedule: Sequence[int] = (4, 16, 64, 256), *,
                     margin: float = 0.05, resolution: float = 1.0 / 2048,
                     seed: int = 0) -> ProbeResult:
    """Bump-function test for whether angle t belongs to slot n.

    Builds functions with bumps of sharpness k at the n rotates of t whose
    values there are a normalized gap witness; the configuration norm of the
    bumps stabilizes above 1 exactly when t lies in the slot.  Requires a
    saturated configuration of finite order and p != 2.
    """
    p = as_exponent(p)
    if p == 2.0:
        raise ValueError("the probe needs p != 2 (at p = 2 all slots carry the sup norm)")
    if config.maximal or config.infinity_full:
        raise ValueError("the probe needs a finite-order configuration")
    if not config.is_saturated:
        raise ValueError("the probe needs a saturated configuration")
    ks = list(k_schedule)
    if ks != sorted(set(ks)) or ks[0] < 2:
        raise ValueError("k_schedule must be strictly increasing with k >= 2")

    t = snap_angle(t)
    relevant = sorted({math.gcd(m, n) for m in config.finite_slots} - {n})
    alpha, _ = _probe_witness(n, relevant, p, margin, seed)

    centers = [float(c) for c in rotation_orbits([t], n)]

    def bump_function(k: int) -> Callable:
        radius = 1.0 / (2.0 * k * n)

        def evaluate(angles: np.ndarray) -> np.ndarray:
            out = np.zeros(len(angles), dtype=complex)
            for j, c in enumerate(centers):
                d = np.abs((angles - c) % 1.0)
                d = np.minimum(d, 1.0 - d)
                out += alpha[j] * np.maximum(0.0, 1.0 - d / radius)
            return out

        return evaluate

    trace = []
    for k in ks:
        val = config_value(bump_function(k), config, p, resolution, seed=seed)
        trace.append((int(k), float(val)))

    last = trace[-1][1]
    stabilized = len(trace) >= 2 and abs(trace[-1][1] - trace[-2][1]) <= 1e-9
    if stabilized and last > 1.0 + margin:
        return ProbeResult("member", tuple(trace))
    if last <= 1.0 - margin:
        return ProbeResult("not-member", tuple(trace))
    return ProbeResult("inconclusive", tuple(trace))
