"""Convolution norms of Laurent polynomials acting on ell^p of the integers.

A finitely supported f = sum a_m x^m acts on ell^p(Z) by convolution.  Its
operator norm is the ell^1 coefficient norm at p = 1 and the sup of |f| on
the unit circle at p = 2.  For other exponents the norm is bracketed:

* from below by norms of cyclic samples (f(t w_n^j))_j, which are images of
  f under contractive finite-dimensional representations, taken along a
  doubling schedule of n and a small set of base points t including the
  peak of |f|;
* from above by Riesz-Thorin interpolation between the ell^1 and sup norms.

The cyclic lower bounds exhaust the true norm as n grows; no rate is
claimed, so results are reported as brackets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cyclic import CyclicElement, fpzn_norm, fpzn_norms, json_complex, json_int
from .pnorm import PAD_ORDER, TIGHT_TOL, NormEstimate, as_exponent, interpolation_upper

__all__ = [
    "LaurentPolynomial",
    "cyclic_lower",
    "fpz_norm",
    "fpz_upper",
    "norm_l1",
    "sup_exact",
]

# widest degree span from_json reads: sup_exact's companion matrix is (2 span)^2
_MAX_SPAN = 1024


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finitely supported map m -> a_m, zero coefficients never stored."""

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        cleaned = {}
        for m, a in self.terms:
            a = complex(a)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError("coefficients must be finite")
            if a != 0:
                cleaned[int(m)] = cleaned.get(int(m), 0.0) + a
        object.__setattr__(
            self, "terms", tuple(sorted((m, a) for m, a in cleaned.items() if a != 0))
        )

    @property
    def exponents(self) -> np.ndarray:
        return np.array([m for m, _ in self.terms], dtype=int)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([a for _, a in self.terms], dtype=complex)

    @property
    def span(self) -> int:
        """Degree span max(m) - min(m); 0 for monomials and the zero polynomial."""
        if not self.terms:
            return 0
        return self.terms[-1][0] - self.terms[0][0]

    def __call__(self, z):
        """Evaluate at a point or array of points on (or off) the unit circle."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for m, a in self.terms:
            out = out + a * z**m
        return out if out.shape else complex(out)

    def reversed(self) -> "LaurentPolynomial":
        """Exponent reversal m -> -m (transpose of the convolution operator)."""
        return LaurentPolynomial(tuple((-m, a) for m, a in self.terms))

    def samples(self, n: int, t: complex = 1.0) -> CyclicElement:
        """Cyclic element of the values (f(t w_n^j))_j at the n-th roots times t."""
        pts = t * np.exp(2j * np.pi * np.arange(n) / n)
        return CyclicElement(n, self(pts))

    def to_json(self) -> dict:
        return {"terms": [{"m": m, "a": [a.real, a.imag]} for m, a in self.terms]}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPolynomial":
        f = cls(tuple((json_int(t["m"], "m"), json_complex(t["a"], "a")) for t in obj["terms"]))
        if f.span > _MAX_SPAN:
            raise ValueError(f"the degree span must be at most {_MAX_SPAN}, got {f.span}")
        return f


def norm_l1(f: LaurentPolynomial) -> float:
    """Sum of |a_m|; equals the convolution norm on ell^1(Z) exactly."""
    return float(np.sum(np.abs(f.coefficients)))


def sup_exact(f: LaurentPolynomial) -> tuple[float, complex]:
    """Sup of |f| on the circle and an argmax, via critical points of |f|^2.

    |f|^2 is a real trigonometric polynomial; its derivative's roots are the
    eigenvalues of a companion matrix, so all interior extrema are found to
    machine precision.  Used for the p = 2 value and as the sup endpoint of
    the interpolation bounds.  The value is |f| at the best candidate in
    floating point, not rounded outward, so it can sit below the true sup by
    roundoff: fpsigma_norm pads it by a relative 1e-12, fpz_upper does not.
    """
    if not f.terms:
        return 0.0, 1.0 + 0.0j
    if f.span == 0:
        return abs(f.terms[0][1]), 1.0 + 0.0j
    exps = f.exponents
    coefs = f.coefficients
    span = f.span
    # autocorrelation: |f(e^{i t})|^2 = sum_k b_k e^{i k t}, k in [-span, span]
    b = np.zeros(2 * span + 1, dtype=complex)
    for m1, a1 in f.terms:
        for m2, a2 in f.terms:
            b[m1 - m2 + span] += a1 * np.conj(a2)
    k = np.arange(-span, span + 1)
    deriv = 1j * k * b  # coefficients of (d/dt) |f|^2
    poly = deriv[::-1]  # z^{k+span} ordering for np.roots (highest first)
    poly = np.trim_zeros(poly, "f")
    candidates = [1.0 + 0.0j]
    if poly.size > 1:
        roots = np.roots(poly)
        on_circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-7]
        candidates.extend(z / abs(z) for z in on_circle)
    # coarse grid as a safety net against ill-conditioned root clusters
    theta = 2.0 * np.pi * np.arange(16 * span) / (16 * span)
    grid_pts = np.exp(1j * theta)
    grid_vals = np.abs(f(grid_pts))
    candidates.append(complex(grid_pts[int(np.argmax(grid_vals))]))
    vals = [abs(f(z)) for z in candidates]
    j = int(np.argmax(vals))
    return float(vals[j]), complex(candidates[j])


# largest n_max fpz_norm and largest n cyclic_lower take: a schedule step's three
# tuples need about 3.9 KB per unit of n before the ascent starts, 64 MB at this n
_N_MAX = 16384


def cyclic_lower(f: LaurentPolynomial, n: int, p, *, seed: int = 0) -> float:
    """Lower bound on the F^p(Z) norm from the order-n cyclic quotient.

    Sampling at the n-th roots of unity evaluates f on an invertible isometry
    of ell^p_n, a contractive representation, so the value never exceeds the
    true norm.  Nondecreasing along divisibility chains of n; the ascent runs
    tighter than the default so that monotonicity survives convergence slack.
    ValueError, before sampling, unless 1 <= n <= _N_MAX (16384).
    """
    if not 1 <= n <= _N_MAX:
        raise ValueError(f"n must satisfy 1 <= n <= {_N_MAX}, got {n!r}")
    return fpzn_norm(f.samples(n), p, tol=TIGHT_TOL, restarts=64, seed=seed).lower


def _schedule(n_max: int) -> list[list[int]]:
    """fpz_norm's orders {2^k, 3 * 2^k} up to n_max, one list per fpzn_norms call:
    n = 1, then every n up to PAD_ORDER together, then each larger n alone."""
    orders = sorted({m for k in range(n_max.bit_length()) for m in (2**k, 3 * 2**k) if m <= n_max})
    small = [n for n in orders if 1 < n <= PAD_ORDER]
    return [[1]] + ([small] if small else []) + [[n] for n in orders if n > PAD_ORDER]


def fpz_upper(f: LaurentPolynomial, p) -> float:
    """fpz_norm's certified upper bound (0 for f = 0): ell^1 at p = 1, the sup at
    p = 2, else Riesz-Thorin between those and ell^1 of the reversal (p = inf)."""
    p = as_exponent(p)
    return norm_l1(f) if p == 1.0 else _upper_from_sup(f, p, sup_exact(f)[0])


def _upper_from_sup(f: LaurentPolynomial, p, sup: float) -> float:
    """Riesz-Thorin bound on f's convolution norm on ell^p(Z) from sup |f|
    (ell^1 at p = 1, the sup at p = 2); fpz_upper at p != 1."""
    return sup if p == 2.0 else interpolation_upper(p, norm_l1(f), sup,
                                                    norm_l1(f.reversed()))


def check_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def fpz_norm(f: LaurentPolynomial, p, tol: float = 1e-6, n_max: int = 4096, *,
             seed: int = 0) -> NormEstimate:
    """Certified bracket for the convolution norm of f on ell^p(Z).

    p = 1 and p = 2 collapse to the exact ell^1 and sup values.  Otherwise
    the lower bound sweeps cyclic samples over n in {2^k, 3*2^k} up to n_max
    at base points {1, w_{2n}, argmax |f|}, and the upper bound is fpz_upper;
    the sweep stops early once the bracket is tighter than tol.  The steps run
    in _schedule's calls, each with the lower bound held so far as its
    incumbent, so an ascent that cannot raise it stops early; a lower
    incumbent only runs a step longer, so batching lowers no bound.
    ValueError, before any solve, unless tol is finite and positive and
    1 <= n_max <= _N_MAX (16384).
    """
    p = as_exponent(p)
    check_tol(tol)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    if n_max > _N_MAX:
        raise ValueError(f"n_max must be at most {_N_MAX}, got {n_max!r}")
    if not f.terms:
        return NormEstimate(0.0, 0.0, np.array([1.0 + 0.0j]), "exact-p1")

    if p == 1.0:
        # every column of the order-(span + 1) circulant sums to ell^1, so e_0 attains it
        witness = np.zeros(f.span + 1, dtype=complex)
        witness[0] = 1.0
        return NormEstimate(norm_l1(f), norm_l1(f), witness, "exact-p1")

    sup, peak = sup_exact(f)
    upper = _upper_from_sup(f, p, sup)
    if p == 2.0:
        est = fpzn_norm(f.samples(max(f.span, 1), peak), 2.0)
        return NormEstimate(upper, upper, est.witness, "exact-p2")

    lower = 0.0
    witness = np.array([1.0 + 0.0j])
    for step in _schedule(n_max):
        bases = [(1.0 + 0.0j, cmath.exp(1j * math.pi / n), peak) for n in step]
        for lows, _, witnesses in fpzn_norms([[f.samples(n, t).xi for t in ts]
                                              for n, ts in zip(step, bases)], p,
                                             seed=seed, incumbent=lower):
            if lows.max() > lower:
                lower, witness = float(lows.max()), witnesses[lows.argmax()]
        if upper - lower < tol:
            break
    return NormEstimate(lower, max(upper, lower), witness, "boyd+interp")
