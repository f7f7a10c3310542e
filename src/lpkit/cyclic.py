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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pnorm import (
    _CONVERGENCE_TOL,
    NormEstimate,
    as_exponent,
    boyd_lower,  # not called here, but bench/tracing.py patches this binding
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
    """Norm of a cyclic-algebra element as an operator on ell^p_n (see fpzn_norms).

    Exact at p = 1 (column sum), at p = 2 (sup of |xi|) and at order n = 1
    (|xi_0|, with the method string of the ascent path); otherwise a Boyd
    lower bound, which dominates max |xi|, and a Riesz-Thorin upper bound.
    """
    [(lower, upper, witness)] = fpzn_norms([x.xi[None]], p, restarts=restarts, tol=tol,
                                           seed=seed)
    return NormEstimate(float(lower[0]), float(upper[0]), witness[0], method_of(as_exponent(p)))


def fpzn_norms(xis, p, *, restarts: int = 32, tol: float = _CONVERGENCE_TOL, seed: int = 0,
               incumbent: float = 0.0, starts=None) -> list[tuple]:
    """fpzn_norm of each row of each (k, n) coordinate array in a list of any orders,
    solved together: one triple of arrays (lower, upper, witness), of shapes (k,),
    (k,) and (k, n), per array; each triple is the array's solve alone, bit for bit.

    ValueError, before any ascent, unless every array is 2-D, finite and of its
    carried start's order.  p in {1, 2}, order 1 and empty arrays are exact.
    The rest ascend at `tol` in pnorm.stacked_lower: orders up to PAD_ORDER as
    dense circulant stacks in one grouped ascent, each larger order alone on FFT
    products (_fft_products), both from the start blocks of _start_block.  They
    keep e_0 alone of the basis (a circulant commutes with the cyclic shift, so
    the ascent from e_j is e_0's rotated by j), then for n <= 32 the DFT and
    random columns of pnorm.default_starts(n, restarts, seed), one block for
    every row, for larger n each row's eigenvectors of its 8 largest |xi| and 16
    random columns.  `starts` holds one carried start or None per array; a
    start, such as a nearby tuple's witness, replaces its array's e_0 and random
    columns, so the lower bound still dominates max |xi| (Higham, Numer. Math.
    62 (1992)).  Upper bounds interpolate the exact endpoint norms.  With an
    `incumbent` lower bound (see boyd_lower), only the maximum over the call and
    the incumbent is meant.
    """
    p = as_exponent(p)
    xis = [np.asarray(xi, dtype=complex) for xi in xis]
    carried = [None] * len(xis) if starts is None else [
        None if w is None else np.asarray(w, dtype=complex).reshape(-1, 1) for w in starts]
    for xi, w in zip(xis, carried, strict=True):
        if xi.ndim != 2:
            raise ValueError(f"expected (k, n) coordinate arrays, got shape {xi.shape}")
        if not np.isfinite(xi).all():
            raise ValueError("coordinates must be finite")
        if w is not None and len(w) != xi.shape[1]:
            raise ValueError(f"a start of order {len(w)} for an array of order {xi.shape[1]}")
    mods = [np.abs(xi) for xi in xis]
    out = [_exact(xi, mod, p) for xi, mod in zip(xis, mods)]
    todo = [i for i, solved in enumerate(out) if solved is None]
    data = [_endpoint_norms(xis[i], mods[i]) for i in todo]  # coefficients, l1 and sup norms
    orders = [xis[i].shape[1] for i in todo]
    found = stacked_lower(
        [xis[i].shape for i in todo], lambda j: data[j][0][:, _circulant_index(orders[j])],
        lambda j: _start_block(mods[todo[j]], restarts, seed, carried[todo[j]]), p, tol=tol,
        incumbent=incumbent, products=lambda j: _fft_products(data[j][0]))
    for i, (_, n1, n2), (lower, witness) in zip(todo, data, found):
        # Riesz-Thorin (p = inf equals p = 1 for a circulant) in Python-float powers,
        # one tuple at a time: a numpy array power can differ in the last bit
        upper = [interpolation_upper(p, a, b, a) for a, b in zip(n1.tolist(), n2.tolist())]
        out[i] = lower, np.maximum(upper, lower), witness
    return out


def _exact(xi: np.ndarray, mod: np.ndarray, p: float):
    """fpzn_norms' triple for a (k, n) array that needs no ascent (no rows, p in
    {1, 2} or order 1), given with its moduli; None for any other array."""
    k, n = xi.shape
    if not k:
        return np.zeros(0), np.zeros(0), np.zeros((0, n), dtype=complex)
    if p == 2.0:
        n2 = mod.max(axis=1)
        return n2, n2, _eigenvectors(n, mod.argmax(axis=1))
    if p == 1.0:  # every column sums to n1, so the first basis vector attains it
        n1 = _endpoint_norms(xi, mod)[1]
        return n1, n1, np.eye(1, n, dtype=complex).repeat(k, axis=0)
    if n == 1:
        # a 1x1 circulant multiplies by xi_0, so its norm is |xi_0| at every p;
        # numpy's modulus, as at p = 2 (Python's abs() can differ in the last bit)
        return mod[:, 0], mod[:, 0], np.ones((k, 1), dtype=complex)
    return None


def _start_block(mod: np.ndarray, restarts: int, seed: int, carried) -> np.ndarray:
    """The start block of the circulants of (k, n) moduli rows (see fpzn_norms): for
    n <= 32 one (n, c) block every row shares, above that a (k, n, c) block, one per row."""
    k, n = mod.shape
    if n <= 32:
        block = _circulant_starts(n, restarts, seed)
        return block if carried is None else np.concatenate([block[:, 1:n + 1], carried], axis=1)
    eigs = np.swapaxes(_eigenvectors(n, np.argsort(mod, axis=1)[:, -8:]), 1, 2)
    if carried is not None:
        return np.concatenate([eigs, np.broadcast_to(carried, (k, n, 1))], axis=2)
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
    return np.concatenate([np.broadcast_to(np.eye(n, 1, dtype=complex), (k, n, 1)), eigs,
                           np.broadcast_to(rand, (k, n, 16))], axis=2)


def _fft_products(coeffs: np.ndarray):
    """pnorm.stacked_lower's products of the circulants of (k, n) coefficient rows:
    rows -> the FFT products of those rows' circulants."""
    fhat = np.fft.fft(coeffs, axis=1)  # row j: the FFT symbol of row j's circulant
    return lambda rows: _circulant_matmats(fhat[rows].T)


@functools.lru_cache(maxsize=128)
def _circulant_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """fpzn_norms' block for n <= 32: default_starts less e_1, ..., e_{n-1}; cached, read-only."""
    block = np.delete(default_starts(n, restarts, seed), np.s_[1:n], axis=1)
    block.flags.writeable = False
    return block


def _endpoint_norms(xi: np.ndarray, mod: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficient rows of a (k, n) coordinate array, given with its moduli, and
    each row's circulant norms at p = 1 (l1 of the coefficients) and p = 2 (max |xi|)."""
    coeffs = np.fft.fft(xi, axis=1) / xi.shape[1]  # row j: the coefficients of row j, bit for bit
    return coeffs, np.abs(coeffs).sum(axis=1), mod.max(axis=1)


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
    [(lower, _, _)] = fpzn_norms([[x.xi, x.inverse().xi]], p, seed=seed)
    return IsometryClassification("not-isometry", excess=float(lower.max()) - 1.0)


def gap_margin(alpha: CyclicElement, d: int, p, *, seed: int = 0) -> float:
    """Certified margin ||alpha||_lower - max_b ||restrict(alpha, d, b)||_upper."""
    # row b of the transposed reshape is restrict(alpha, d, b)
    [(lower, _, _), (_, restricted, _)] = fpzn_norms([alpha.xi[None], alpha.xi.reshape(d, -1).T],
                                                     p, seed=seed)
    return float(lower[0]) - float(restricted.max())


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
