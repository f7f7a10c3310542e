"""Invertible isometries of weighted atomic ell^p spaces.

For p != 2, every invertible isometry of L^p factors as a unimodular
multiplication composed with a weighted permutation: v = m_h o u_T.  On a
space with finitely many atoms this is a matrix with exactly one nonzero
entry per row and column, of modulus equal to a weight ratio to the power
1/p.  This module realizes the factorization both ways, analyses the cycle
structure of T, gauges the phases onto cycle cross-sections, normalizes the
measure along cycles, extracts the spectral configuration of v, and checks
the headline identity: the norm of f(v) equals the configuration norm of f.

An ``aperiodic`` flag models a formal positive-mass component on which T
has infinite period; its only effect is a full infinity slot (the
bilateral-shift branch of the dichotomy).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cyclic import json_complex, json_int, json_real
from .pnorm import NormEstimate, as_exponent, grouped_opnorm, method_of, opnorm
from .specconf import (
    ArcSet,
    SpectralConfiguration,
    fpsigma_norm,
    json_flag,
    rotation_orbits,
    snap_angle,
)
from .zline import LaurentPolynomial

__all__ = [
    "AtomicSpace",
    "NotSpatialError",
    "AmbiguousExponentError",
    "PeriodDecomposition",
    "SpatialIsometry",
    "conjugation_identity_check",
    "decompose",
    "fpv_norm",
    "gauge_trivialize",
    "measure_normalize",
    "periods",
    "spectral_configuration_of",
    "to_matrix",
]


class NotSpatialError(ValueError):
    """Matrix is not a weighted complex permutation, hence not an isometry."""


class AmbiguousExponentError(ValueError):
    """At p = 2 isometries are not determined by a (phase, permutation) pair."""


@dataclass(frozen=True)
class AtomicSpace:
    """Purely atomic measure space: positive weight per atom."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be positive and finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @classmethod
    def from_json(cls, obj: dict) -> "AtomicSpace":
        return cls(np.array([json_real(w, "weights") for w in obj["weights"]]))


@dataclass(frozen=True)
class SpatialIsometry:
    """Invertible isometry m_h o u_T of a weighted atomic ell^p space.

    h holds the unimodular phase at each atom, T the permutation as an image
    list (atom i maps to T[i]).  The aperiodic flag adds a formal component
    of positive mass on which the transformation has infinite period.
    """

    space: AtomicSpace
    h: np.ndarray
    T: np.ndarray
    aperiodic: bool = False

    def __post_init__(self):
        n = self.space.n_atoms
        h = np.asarray(self.h, dtype=complex)
        if h.shape != (n,):
            raise ValueError("phase vector length must match the atom count")
        if np.max(np.abs(np.abs(h) - 1.0)) > 1e-9:
            raise ValueError("phases must be unimodular")
        T = np.asarray(self.T, dtype=int)
        if T.shape != (n,) or sorted(T.tolist()) != list(range(n)):
            raise ValueError("T must be a permutation of the atoms")
        h = h.copy()
        h.flags.writeable = False
        T = T.copy()
        T.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "T", T)

    def to_json(self) -> dict:
        return {
            "weights": [float(w) for w in self.space.weights],
            "h": [[z.real, z.imag] for z in self.h],
            "T": [int(t) for t in self.T],
            "aperiodic": self.aperiodic,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SpatialIsometry":
        return cls(
            AtomicSpace.from_json(obj),
            np.array([json_complex(z, "h") for z in obj["h"]]),
            [json_int(t, f"T[{i}]") for i, t in enumerate(obj["T"])],
            json_flag(obj, "aperiodic"),
        )


@dataclass(frozen=True)
class Cycle:
    length: int
    atoms: tuple  # in T-order starting at the cross-section
    cross_section: int


@dataclass(frozen=True)
class PeriodDecomposition:
    """Cycle structure of the permutation, grouped by period.

    slots[N] lists the atoms of period N; each cycle records its atoms in
    T-order from the cross-section (the minimal atom index of the cycle).
    The aperiodic flag reports the formal infinite-period component.
    """

    cycles: tuple
    slots: dict
    aperiodic: bool

    def to_json(self) -> dict:
        return {
            "cycles": [
                {"length": c.length, "atoms": list(c.atoms), "cross_section": c.cross_section}
                for c in self.cycles
            ],
            "slots": {str(n) : sorted(atoms) for n, atoms in self.slots.items()},
            "aperiodic": self.aperiodic,
        }


def to_matrix(v: SpatialIsometry, p) -> np.ndarray:
    """Matrix of v on the weighted space: entry h_{T(x)} (w_x / w_{T(x)})^{1/p}
    at position (T(x), x).

    An isometry for the weighted p-norm; conjugating by diag(w^{1/p}) turns
    it into a complex permutation matrix, an isometry of standard ell^p_n.
    """
    p = as_exponent(p)
    if v.aperiodic:
        raise ValueError("no finite matrix realization with an aperiodic component")
    n = v.space.n_atoms
    w = v.space.weights
    A = np.zeros((n, n), dtype=complex)
    for x in range(n):
        y = int(v.T[x])
        A[y, x] = v.h[y] * (w[x] / w[y]) ** (1.0 / p)
    return A


def standardized_matrix(v: SpatialIsometry, p) -> np.ndarray:
    """to_matrix conjugated onto standard ell^p_n (a complex permutation)."""
    p = as_exponent(p)
    d = v.space.weights ** (1.0 / p)
    return (d[:, None] * to_matrix(v, p)) / d[None, :]


def decompose(A, space: AtomicSpace, p, tol: float = 1e-9) -> SpatialIsometry:
    """Recover (h, T) from the matrix of an isometry of the weighted space.

    Rejects with NotSpatialError when A is not a weighted complex
    permutation (e.g. a Hadamard-type unitary), and refuses p = 2 where the
    factorization is not unique.
    """
    p = as_exponent(p)
    if p == 2.0:
        raise AmbiguousExponentError("at p = 2 spatial form does not determine the isometry")
    A = np.asarray(A, dtype=complex)
    n = space.n_atoms
    if A.shape != (n, n):
        raise ValueError("matrix shape must match the atom count")
    w = space.weights
    T = np.full(n, -1, dtype=int)
    h = np.zeros(n, dtype=complex)
    for x in range(n):
        nz = np.nonzero(np.abs(A[:, x]) > tol)[0]
        if len(nz) != 1:
            raise NotSpatialError(f"column {x} has {len(nz)} nonzero entries, expected 1")
        y = int(nz[0])
        T[x] = y
        expected = (w[x] / w[y]) ** (1.0 / p)
        phase = A[y, x] / expected
        if abs(abs(phase) - 1.0) > tol:
            raise NotSpatialError(
                f"entry ({y}, {x}) has modulus {abs(A[y, x]):.6g}, expected {expected:.6g}"
            )
        h[y] = phase / abs(phase)
    if sorted(T.tolist()) != list(range(n)):
        raise NotSpatialError("nonzero pattern is not a permutation (row reused)")
    return SpatialIsometry(space, h, T)


def periods(v: SpatialIsometry) -> PeriodDecomposition:
    """Cycle decomposition of T with minimal-index cross-sections."""
    n = v.space.n_atoms
    seen = np.zeros(n, dtype=bool)
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        atoms = [start]
        seen[start] = True
        cur = int(v.T[start])
        while cur != start:
            atoms.append(cur)
            seen[cur] = True
            cur = int(v.T[cur])
        cycles.append(Cycle(len(atoms), tuple(atoms), min(atoms)))
    slots: dict[int, list[int]] = {}
    for c in cycles:
        slots.setdefault(c.length, []).extend(c.atoms)
    return PeriodDecomposition(tuple(cycles), {n_: sorted(a) for n_, a in slots.items()},
                               v.aperiodic)


def cycle_phase(v: SpatialIsometry, cycle: Cycle) -> complex:
    """Product of the phases along a cycle: the multiplier of v^N on it."""
    z = complex(np.prod(v.h[list(cycle.atoms)]))
    return z / abs(z)


def gauge_trivialize(v: SpatialIsometry) -> tuple[np.ndarray, SpatialIsometry]:
    """Conjugate by a diagonal unimodular g so phases concentrate on cross-sections.

    Returns (g, v') with the same T, phases of v' equal to 1 off the
    cross-sections and to the cycle phase product on them, and
    to_matrix(v') = diag(g) to_matrix(v) diag(conj(g)) exactly.
    """
    n = v.space.n_atoms
    g = np.ones(n, dtype=complex)
    new_h = np.ones(n, dtype=complex)
    for cycle in periods(v).cycles:
        # periods lists a cycle's atoms in T-order from its cross-section x_0,
        # so x_j = T^{-j}(x_0) is atoms[-j]
        layers = [cycle.atoms[0], *cycle.atoms[:0:-1]]
        N = cycle.length
        hs = [complex(v.h[x]) for x in layers]
        # g(x_j) = conj(h(x_{N-1}) ... h(x_j)) makes the phase 1 on x_j, j >= 1,
        # pushing the full product onto the cross-section x_0
        acc = 1.0 + 0.0j
        for j in range(N - 1, 0, -1):
            acc *= hs[j]
            g[layers[j]] = np.conj(acc)
        new_h[layers[0]] = cycle_phase(v, cycle)
    vp = SpatialIsometry(v.space, new_h, v.T, v.aperiodic)
    return g, vp


def measure_normalize(v: SpatialIsometry) -> tuple[AtomicSpace, SpatialIsometry]:
    """Equivalent measure constant along cycles (the cross-section's weight).

    The returned isometry acts on the new space with all weight ratios equal
    to one on finite cycles; norms of polynomials in v are unchanged.
    """
    w = v.space.weights
    nu = w.copy()
    for cycle in periods(v).cycles:
        nu[list(cycle.atoms)] = w[cycle.cross_section]
    space = AtomicSpace(nu)
    return space, SpatialIsometry(space, v.h, v.T, v.aperiodic)


def spectral_configuration_of(v: SpatialIsometry) -> SpectralConfiguration:
    """Configuration of v: slot N collects the N-th roots of each N-cycle's phase.

    Root sets are invariant under rotation by 1/N, and rational phase angles
    are kept exact.  An aperiodic component sets the infinity slot full.
    """
    slot_points: dict[int, list] = {}
    for cycle in periods(v).cycles:
        z = cycle_phase(v, cycle)
        base = snap_angle(cmath.phase(z) / (2.0 * math.pi))
        N = cycle.length
        slot_points.setdefault(N, []).extend(rotation_orbits([base / N], N))
    slots = {N: ArcSet(tuple(pts)) for N, pts in slot_points.items()}
    return SpectralConfiguration(slots, infinity_full=v.aperiodic)


def _cycle_blocks(f: LaurentPolynomial, v: SpatialIsometry, p: float, cycles) -> list[np.ndarray]:
    """f(B) for the block B of v's standardized matrix on each cycle's atoms, in the
    cycle's T-order, read from v's entries: with x_j the cycle's j-th atom, y = T(x_j)
    and d = w^(1/p), B[j + 1, j] = s_j = d[y] (h[y] (w[x_j] / w[y])^(1/p)) / d[x_j]
    and B^-1[j, j + 1] = 1 / s_j (indices mod N), so no n x n matrix is built."""
    w = v.space.weights
    d = w ** (1.0 / p)
    blocks = []
    for c in cycles:
        x = np.array(c.atoms)
        y = v.T[x]
        # one atom at a time, as to_matrix: a vectorized power can differ in the last bit
        s = d[y] * np.array([v.h[b] * (w[a] / w[b]) ** (1.0 / p) for a, b in zip(x, y)]) / d[x]
        j = np.arange(len(x))
        B, B_inv = np.zeros((2, len(x), len(x)), dtype=complex)
        B[(j + 1) % len(x), j], B_inv[j, (j + 1) % len(x)] = s, 1.0 / s
        blocks.append(sum((a * np.linalg.matrix_power(B if m >= 0 else B_inv, abs(m))
                           for m, a in f.terms), np.zeros_like(B)))
    return blocks


def fpv_norm(f: LaurentPolynomial, v: SpatialIsometry, p, mode: str = "both", *,
             seed: int = 0, n_max: int = 512):
    """Norm of f(v): directly as a matrix norm, via the configuration, or both.

    direct: the finite part only.  The standardized matrix of v is the direct
    sum of its blocks on the cycles of T, so f(v) is the direct sum of the
    blocks f(B_c), and its ell^p norm is their largest (Lamperti, Pacific
    J. Math. 8 (1958)).  Each f(B_c) is built from v's entries (_cycle_blocks),
    bracketed exactly at p in {1, 2} (opnorm) and otherwise by
    pnorm.grouped_opnorm: the largest block lower bound, with its witness
    placed at that cycle's atoms, and the largest block Riesz-Thorin bound,
    each at most the whole matrix's.
    via-sigma: configuration norm of f over sigma(v), exact for atomic v
    since all finite slots are point sets.  both: the pair, whose brackets
    must overlap.
    """
    p = as_exponent(p)
    if mode not in ("direct", "via-sigma", "both"):
        raise ValueError(f"unknown mode {mode!r}")

    def direct() -> NormEstimate:
        if v.aperiodic:
            raise ValueError("direct mode needs aperiodic = False")
        cycles = periods(v).cycles
        blocks = _cycle_blocks(f, v, p, cycles)
        if p in (1.0, 2.0):
            ests = [opnorm(B, p) for B in blocks]
        else:
            ests = grouped_opnorm(blocks, p, seed=seed)
        c = max(range(len(ests)), key=lambda i: ests[i].lower)
        witness = np.zeros(v.space.n_atoms, dtype=complex)
        witness[list(cycles[c].atoms)] = ests[c].witness
        return NormEstimate(ests[c].lower, max(e.upper for e in ests), witness, method_of(p))

    def via_sigma() -> NormEstimate:
        return fpsigma_norm(f, spectral_configuration_of(v), p, seed=seed, n_max=n_max)

    if mode == "direct":
        return direct()
    if mode == "via-sigma":
        return via_sigma()
    return direct(), via_sigma()


def conjugation_identity_check(v: SpatialIsometry, p) -> float:
    """Max entrywise deviation of u_{T^-1} m_h u_T from m_{h o T}; ~1e-16."""
    p = as_exponent(p)
    if v.aperiodic:
        raise ValueError("needs aperiodic = False")
    n = v.space.n_atoms
    ones = np.ones(n, dtype=complex)
    uT = to_matrix(SpatialIsometry(v.space, ones, v.T), p)
    Tinv = np.empty_like(v.T)
    Tinv[v.T] = np.arange(n)
    uTinv = to_matrix(SpatialIsometry(v.space, ones, Tinv), p)
    lhs = uTinv @ np.diag(v.h) @ uT
    rhs = np.diag(v.h[v.T])
    return float(np.max(np.abs(lhs - rhs)))
