"""The convolution algebra of the cyclic group of order n on ell^p_n.

Elements live in Gelfand coordinates: xi[j] is the eigenvalue of the
associated circulant at the j-th character.  The canonical generator is
xi = (1, w, ..., w^{n-1}) with w = exp(2 pi i / n), whose circulant is the
cyclic shift matrix (ones on the subdiagonal and in the top-right corner).

The norm of an element is the operator p-norm of its circulant.  At p = 1
that is the common column sum of absolute values, at p = 2 the sup of |xi|;
other exponents are bracketed through the pnorm engine with FFT matvecs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pnorm import (
    _CHUNK_COLUMNS,
    _CONVERGENCE_TOL,
    TIGHT_TOL,
    NormEstimate,
    as_exponent,
    boyd_lower,
    default_starts,
    interpolation_upper,
    method_of,
    stacked_lower,
)

__all__ = [
    "CyclicElement",
    "GapSearchError",
    "IsometryClassification",
    "circulant_of",
    "classify_isometry",
    "embed_divisor",
    "fpzn_norm",
    "fpzn_norms",
    "gap_witness",
    "restrict",
    "rotate",
]


# isometries are recognized up to this coordinate error
_ISOMETRY_TOL = 1e-9


class GapSearchError(RuntimeError):
    """Search budget exhausted without certifying a strict norm gap."""


def json_int(value, key: str) -> int:
    """A JSON integer field as an int: integral numbers such as 2.0 pass;
    booleans and fractional or non-finite numbers raise ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key!r} must be an integer, got {value!r}")


def json_real(value, key: str) -> float:
    """A JSON number as a float: booleans, strings, other values and integers
    beyond the float range raise ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{key!r} must be a number, got {value!r}")


def json_complex(pair, key: str) -> complex:
    """A JSON [re, im] pair as a complex number: ValueError unless it is a list
    of exactly two numbers (see json_real)."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"{key!r} must be an [re, im] pair, got {pair!r}")
    return complex(json_real(pair[0], key), json_real(pair[1], key))


@dataclass(frozen=True)
class CyclicElement:
    """Element of the order-n cyclic convolution algebra in Gelfand coordinates."""

    n: int
    xi: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("group order must be positive")
        xi = np.asarray(self.xi, dtype=complex)
        if xi.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates, got shape {xi.shape}")
        if not (np.all(np.isfinite(xi.real)) and np.all(np.isfinite(xi.imag))):
            raise ValueError("coordinates must be finite")
        xi = xi.copy()
        xi.flags.writeable = False
        object.__setattr__(self, "xi", xi)

    @property
    def is_invertible(self) -> bool:
        return bool(np.all(np.abs(self.xi) > 0.0))

    def inverse(self) -> "CyclicElement":
        if not self.is_invertible:
            raise ValueError("element has a zero coordinate, not invertible")
        return CyclicElement(self.n, 1.0 / self.xi)

    def multiply(self, other: "CyclicElement") -> "CyclicElement":
        if other.n != self.n:
            raise ValueError("group orders differ")
        return CyclicElement(self.n, self.xi * other.xi)

    def coefficients(self) -> np.ndarray:
        """First column of the circulant (group-algebra coefficients)."""
        return np.fft.fft(self.xi) / self.n

    @classmethod
    def generator(cls, n: int) -> "CyclicElement":
        return cls(n, np.exp(2j * np.pi * np.arange(n) / n))

    def to_json(self) -> dict:
        return {"n": self.n, "xi": [[float(z.real), float(z.imag)] for z in self.xi]}

    @classmethod
    def from_json(cls, obj: dict) -> "CyclicElement":
        xi = np.array([json_complex(z, "xi") for z in obj["xi"]])
        return cls(json_int(obj["n"], "n"), xi)


def circulant_of(x: CyclicElement) -> np.ndarray:
    """Circulant matrix with eigenvalue xi[j] at the j-th character.

    Entry (i, j) depends only on (i - j) mod n; the generator tuple maps to
    the cyclic shift matrix.
    """
    return x.coefficients()[_circulant_index(x.n)]


def _circulant_index(n: int) -> np.ndarray:
    """(i - j) mod n at entry (i, j): a circulant's entries taken from its first column."""
    i = np.arange(n)
    return (i[:, None] - i) % n


def _circulant_matmats(fhat: np.ndarray):
    """Column-block products by stacked circulants, via FFT.

    Column g of `fhat` is the FFT symbol of circulant g.  After `select(c)`,
    column j of a block is multiplied by circulant c[j] (before any call, by
    circulant j).
    """
    sym = [fhat, np.conj(fhat)]

    def select(circulants) -> None:
        sym[0] = np.take(fhat, circulants, axis=1)
        sym[1] = np.conj(sym[0])

    def apply(V: np.ndarray, F: np.ndarray) -> np.ndarray:
        W = np.fft.fft(V, axis=0)
        W *= F
        return np.fft.ifft(W, axis=0)

    return (lambda V: apply(V, sym[0])), (lambda V: apply(V, sym[1])), select


def _eigenvectors(n: int, js: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of every order-n circulant for the characters js, on a new last axis."""
    return np.exp(-2j * np.pi * js[..., None] * np.arange(n) / n) / math.sqrt(n)


def fpzn_norm(x: CyclicElement, p, *, restarts: int = 32, tol: float = _CONVERGENCE_TOL,
              seed: int = 0) -> NormEstimate:
    """Norm of a cyclic-algebra element as an operator on ell^p_n.

    Exact at p = 1 (column sum), at p = 2 (sup of |xi|) and at order n = 1
    (|xi_0|, with the method string of the ascent path).  Otherwise the
    bracket comes from Boyd ascent (always seeded with the circulant's
    eigenvectors, so the lower bound dominates max |xi|) and Riesz-Thorin
    interpolation of the exact endpoint norms.  `restarts` shapes the start
    block only for n <= 32 (see fpzn_norms).
    """
    lower, upper, witness = fpzn_norms(x.xi[None], p, restarts=restarts, tol=tol, seed=seed)
    return NormEstimate(float(lower[0]), float(upper[0]), witness[0], method_of(as_exponent(p)))


def fpzn_norms(xi, p, *, restarts: int = 32, tol: float = _CONVERGENCE_TOL, seed: int = 0,
               incumbent: float = 0.0, start=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """fpzn_norm of each row of a (k, n) array of Gelfand coordinates, solved together,
    as arrays (lower, upper, witness) of shapes (k,), (k,) and (k, n), also for k = 0.

    The array is validated once: ValueError unless it is 2-D and finite.
    Row j gets the bracket it gets alone, bit for bit: coefficients,
    FFT symbols, l1 and sup norms take one row-batched numpy call each, and
    the Boyd ascents run as groups of one block, at most _CHUNK_COLUMNS columns.
    `incumbent` is a lower bound the caller already holds (see boyd_lower):
    an ascent that is not on pace to pass it stops early, so with an
    incumbent above 0 a row's own lower bound may fall below what it
    gets alone.  Only the maximum over the call and the incumbent is meant.

    `start` is a vector carried over, such as a nearby tuple's witness: each
    ascent then starts from it and the standard block's eigenvector columns
    only (all DFT columns for n <= 32, the top 8 for larger n), so the lower
    bound still dominates max |xi| (Higham, Numer. Math. 62 (1992)).

    `restarts` shapes the start block only for n <= 32 without `start`, where
    random columns top pnorm.default_starts up to `restarts` columns; larger n
    without `start` take 8 basis vectors, the eigenvectors of the 8 largest
    |xi| and 16 random columns, whatever `restarts` is.
    """
    p = as_exponent(p)
    xi = _coordinates(xi)
    k, n = xi.shape
    if not k:
        return np.zeros(0), np.zeros(0), np.zeros((0, n), dtype=complex)
    mod = np.abs(xi)
    if p == 2.0:
        n2 = mod.max(axis=1)
        return n2, n2, _eigenvectors(n, mod.argmax(axis=1))
    coeffs, n1, n2 = _endpoint_norms(xi, mod)
    if p == 1.0:  # every column sums to n1, so the first basis vector attains it
        return n1, n1, np.eye(1, n, dtype=complex).repeat(k, axis=0)

    if n == 1:
        # a 1x1 circulant multiplies by xi_0, so its norm is |xi_0| at every p;
        # numpy's modulus, as at p = 2 (Python's abs() can differ in the last bit)
        return mod[:, 0], mod[:, 0], np.ones((k, 1), dtype=complex)

    carried = [] if start is None else [np.reshape(start, (n, 1))]
    if n <= 32:
        shared = default_starts(n, restarts, seed)
        if carried:  # the DFT (eigenvector) columns and the carried vector
            shared = np.concatenate([shared[:, n:2 * n]] + carried, axis=1)
        starts = [shared] * k
    else:
        rng = np.random.default_rng(seed)
        rand = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
        eigs = np.swapaxes(_eigenvectors(n, np.argsort(mod, axis=1)[:, -8:]), 1, 2)
        starts = [np.concatenate([eig] + carried if carried else
                                 [np.eye(n, 8, dtype=complex), eig, rand], axis=1)
                  for eig in eigs]
    fhat = np.fft.fft(coeffs, axis=1)  # row j: the FFT symbol of row j's circulant
    per_block = max(1, _CHUNK_COLUMNS // starts[0].shape[1])
    found = []
    for lo in range(0, k, per_block):
        block = slice(lo, lo + per_block)
        matmat, rmatmat, select = _circulant_matmats(fhat[block].T)
        found.append(boyd_lower(matmat, rmatmat, np.concatenate(starts[block], axis=1), p,
                                tol=tol, groups=len(starts[block]), select=select,
                                incumbent=incumbent))
    lower = np.concatenate([values for values, _ in found])
    return lower, _upper(p, n1, n2, lower), np.concatenate([W for _, W in found], axis=1).T


def _coordinates(xi) -> np.ndarray:
    """A (k, n) coordinate array as complex; ValueError unless it is 2-D and finite."""
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim != 2:
        raise ValueError(f"expected a (k, n) coordinate array, got shape {xi.shape}")
    if not np.isfinite(xi).all():
        raise ValueError("coordinates must be finite")
    return xi


def _endpoint_norms(xi: np.ndarray, mod: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficient rows of a (k, n) coordinate array, given with its moduli, and
    each row's circulant norms at p = 1 (l1 of the coefficients) and p = 2 (max |xi|)."""
    coeffs = np.fft.fft(xi, axis=1) / xi.shape[1]  # row j: the coefficients of row j, bit for bit
    return coeffs, np.abs(coeffs).sum(axis=1), mod.max(axis=1)


def _upper(p: float, n1: np.ndarray, n2: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Riesz-Thorin upper bounds from the endpoint norms (p = inf equals p = 1 for a
    circulant), never below the lower bounds."""
    # Python-float powers, one tuple at a time: a numpy array power can differ in the last bit
    upper = [interpolation_upper(p, a, b, a) for a, b in zip(n1.tolist(), n2.tolist())]
    return np.maximum(upper, lower)


def fpzn_norms_ragged(xis, p, *, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """fpzn_norms at TIGHT_TOL of each (k, n) array in a list of any orders, as a list
    of (lower, upper, witness) triples, every ascent through one pnorm.stacked_lower call.

    There each array is one stack of its rows' dense circulants: those of small
    order are solved together (from fpzn_norms' start block for n <= 32), so
    the ascent's iteration count is the largest over the orders, not their
    sum; an array of larger order gets one FFT fpzn_norms call for all its
    rows.  Upper bounds come from the same Gelfand data as in fpzn_norms.
    p in {1, 2}, order 1 and empty arrays take fpzn_norms' exact paths.
    """
    p = as_exponent(p)
    xis = [_coordinates(xi) for xi in xis]
    out = [fpzn_norms(xi, p) if p in (1.0, 2.0) or xi.shape[1] == 1 or not len(xi) else None
           for xi in xis]
    ascents = [i for i, solved in enumerate(out) if solved is None]
    arrays = [xis[i] for i in ascents]
    # coefficient rows and endpoint norms of each array; alone(j) is fpzn_norms' (lower, witness)
    data = [_endpoint_norms(xi, np.abs(xi)) for xi in arrays]
    found = stacked_lower([xi.shape for xi in arrays],
                          lambda j: data[j][0][:, _circulant_index(arrays[j].shape[1])], p,
                          lambda j: fpzn_norms(arrays[j], p, tol=TIGHT_TOL, seed=seed)[::2],
                          seed=seed)
    for i, (_, n1, n2), (lower, witness) in zip(ascents, data, found):
        out[i] = lower, _upper(p, n1, n2, lower), witness
    return out


def embed_divisor(b: CyclicElement, m: int) -> CyclicElement:
    """Zero-insertion embedding of an order-d element into order m (d | m).

    Coordinate i lands at position i*(m/d); the map is isometric for every p.
    """
    d = b.n
    if m % d != 0:
        raise ValueError(f"{d} does not divide {m}")
    xi = np.zeros(m, dtype=complex)
    xi[:: m // d] = b.xi
    return CyclicElement(m, xi)


def restrict(b: CyclicElement, d: int, offset: int = 0) -> CyclicElement:
    """Stride sampling down to order d (d | n): output_i = xi[i*(n/d) + offset].

    Contractive for every p."""
    if b.n % d != 0:
        raise ValueError(f"{d} does not divide {b.n}")
    stride = b.n // d
    if not (0 <= offset < stride):
        raise ValueError(f"offset must lie in [0, {stride})")
    return CyclicElement(d, b.xi[offset::stride].copy())


def rotate(x: CyclicElement, k: int) -> CyclicElement:
    """Cyclic shift of the coordinate tuple by k positions; norm-preserving."""
    return CyclicElement(x.n, np.roll(x.xi, k))


@dataclass(frozen=True)
class IsometryClassification:
    """Outcome of testing an element for being an invertible isometry.

    kind is "isometry" (with the scalar zeta and character index k of the
    canonical form zeta * (1, w^k, ..., w^{(n-1)k})), "not-isometry" (with
    the norm excess max(||x||, ||x^-1||) - 1 > 0), or "all-unimodular"
    (p = 2, where every unimodular tuple is an isometry).
    """

    kind: str
    zeta: complex | None = None
    k: int | None = None
    excess: float | None = None


def classify_isometry(x: CyclicElement, p, *, seed: int = 0) -> IsometryClassification:
    """Decide whether x is an invertible isometry of the order-n algebra.

    For p != 2 the invertible isometries are exactly the scalar multiples of
    generator powers; the fit takes zeta = xi[0] and reads k off the phase
    of xi[1]/xi[0], then checks all coordinates within _ISOMETRY_TOL.
    """
    p = as_exponent(p)
    if not x.is_invertible:
        raise ValueError("element is not invertible")
    n = x.n
    if p == 2.0:
        if np.all(np.abs(np.abs(x.xi) - 1.0) <= _ISOMETRY_TOL):
            return IsometryClassification("all-unimodular")
        sup = float(np.max(np.abs(x.xi)))
        sup_inv = float(np.max(1.0 / np.abs(x.xi)))
        return IsometryClassification("not-isometry", excess=max(sup, sup_inv) - 1.0)

    zeta = complex(x.xi[0])
    if n == 1:
        k = 0
    else:
        theta = float(np.angle(x.xi[1] / x.xi[0]))
        k = int(round(theta * n / (2.0 * np.pi))) % n
    model = zeta * np.exp(2j * np.pi * k * np.arange(n) / n)
    if abs(abs(zeta) - 1.0) <= _ISOMETRY_TOL and np.max(np.abs(x.xi - model)) <= _ISOMETRY_TOL:
        return IsometryClassification("isometry", zeta=zeta / abs(zeta), k=k)
    lower = fpzn_norms([x.xi, x.inverse().xi], p, seed=seed)[0]
    return IsometryClassification("not-isometry", excess=float(lower.max()) - 1.0)


def gap_margin(alpha: CyclicElement, d: int, p, *, seed: int = 0) -> float:
    """Certified margin ||alpha||_lower - max_b ||restrict(alpha, d, b)||_upper."""
    # row b of the transposed reshape is restrict(alpha, d, b)
    restricted = fpzn_norms(alpha.xi.reshape(d, -1).T, p, seed=seed)[1]
    return fpzn_norm(alpha, p, seed=seed).lower - float(restricted.max())


def _structured_candidate(n: int, d: int, zetas: np.ndarray, ks: np.ndarray) -> CyclicElement:
    """Tuple whose every stride-(n/d) restriction is a canonical isometry.

    Position i*(n/d) + b carries zetas[b] * w_d^{i*ks[b]}, so restriction b is
    zetas[b] times the ks[b]-th generator power and has norm exactly one.
    """
    xi = np.empty(n, dtype=complex)
    stride = n // d
    i = np.arange(d)
    for b in range(stride):
        xi[b::stride] = zetas[b] * np.exp(2j * np.pi * ks[b] * i / d)
    return CyclicElement(n, xi)


# randomized structured candidates gap_witness tries after the fixed ones
_GAP_BUDGET = 64


def gap_witness(n: int, d: int, p, *, seed: int = 0,
                target_margin: float = 0.05) -> tuple[CyclicElement, float]:
    """Find alpha whose full norm strictly exceeds all its order-d restrictions.

    Tries block-constant candidates (restrictions exactly canonical) and a
    quadratic-phase tuple first, then randomized structured candidates with
    coordinate ascent on the free phases.  Returns (alpha, margin) with
    margin = ||alpha||.lower - max_b ||restriction_b||.upper certified by the
    norm brackets; raises GapSearchError if no positive margin is found.
    """
    p = as_exponent(p)
    if p == 2.0:
        raise ValueError("no gap exists at p = 2 (the norm is the sup norm)")
    if n % d != 0 or not (1 <= d < n):
        raise ValueError("need d | n and d < n")

    stride = n // d
    j = np.arange(n)

    def ascend(zetas: np.ndarray, ks: np.ndarray) -> tuple[float, CyclicElement]:
        angles = np.angle(zetas)
        alpha = _structured_candidate(n, d, np.exp(1j * angles), ks)
        cur = gap_margin(alpha, d, p, seed=seed)
        for _ in range(3):
            improved = False
            for b in range(stride):
                base = angles[b]
                grid = base + np.linspace(-np.pi, np.pi, 13)
                vals = []
                for g in grid:
                    trial = angles.copy()
                    trial[b] = g
                    cand = _structured_candidate(n, d, np.exp(1j * trial), ks)
                    vals.append(gap_margin(cand, d, p, seed=seed))
                gi = int(np.argmax(vals))
                if vals[gi] > cur:
                    angles[b] = grid[gi]
                    cur = vals[gi]
                    improved = True
            if not improved:
                break
        return cur, _structured_candidate(n, d, np.exp(1j * angles), ks)

    def scored():
        """(margin, candidate) pairs, fixed candidates first, then random ones."""
        # blocks of stride entries stepping through the d-th roots of unity
        # (every stride restriction is then exactly a canonical generator),
        # the same with step w_n^d, and a quadratic-phase tuple
        for fixed in (CyclicElement(n, np.exp(2j * np.pi * (j // stride) / d)),
                      CyclicElement(n, np.exp(2j * np.pi * d * (j // stride) / n)),
                      CyclicElement(n, np.exp(1j * np.pi * j**2 / n))):
            for cand in (fixed, fixed.inverse()):
                yield gap_margin(cand, d, p, seed=seed), cand
        rng = np.random.default_rng(seed)
        for _ in range(_GAP_BUDGET):
            zetas = np.exp(2j * np.pi * rng.random(stride))
            ks = rng.integers(0, d, size=stride) if d > 1 else np.zeros(stride, dtype=int)
            yield ascend(zetas, ks)

    best = (-math.inf, None)
    for m, alpha in scored():
        if m >= target_margin:
            return alpha, m
        if m > best[0]:
            best = (m, alpha)
    if best[0] > 0.0:
        return best[1], best[0]
    raise GapSearchError(
        f"no strict gap certified for (n={n}, d={d}, p={p}) within budget {_GAP_BUDGET}"
    )
