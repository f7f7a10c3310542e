"""Certified operator norms of complex matrices acting on ell^p_n.

The norm of an n-by-n complex matrix as an operator ell^p_n -> ell^p_n is
computable in closed form only at p = 1 (max column sum) and p = 2 (largest
singular value).  For other exponents this module brackets the norm:

* lower bound: Boyd-style nonconvex power iteration with the complex signum
  duality map, restarted from random vectors, canonical basis vectors and
  DFT columns (the natural starts for circulants);
* upper bound: Riesz-Thorin interpolation between the exact endpoint norms
  at p in {1, 2, infinity}.

grouped_opnorm is the one matrix bracket: it brackets a list of matrices,
exactly at p in {1, 2} and otherwise in one stacked_lower call, and opnorm is
grouped_opnorm of one matrix.  Every estimate carries a witness vector
achieving the reported lower bound, and an independent coordinate-ascent
oracle is provided for cross-checks.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormEstimate",
    "opnorm",
    "opnorm_oracle",
]

_CONVERGENCE_TOL = 1e-10
# ascent tolerance for a lower bound that must not lose to convergence slack
TIGHT_TOL = 1e-12
# stagnant iterations after which boyd_lower stops (defined in its docstring)
_STALL_ITERS = 50
# iterations after which boyd_lower stops (stop reason max_iter)
_MAX_ITER = 10_000
_TINY = np.finfo(float).tiny
# points section_max evaluates per step
_SECTIONS = 8
# widest block one grouped ascent iterates; bounds its memory, not its result
_CHUNK_COLUMNS = 4096
# the batched matmul's column groups: a column in a partial group gets other last bits
_GEMM_COLUMNS = 4
# largest order stacked_lower zero-pads a matrix to; a larger one gets its own ascent
# (FFT blocks for a circulant).  Cycle blocks of order 20 and 24 took 16-28% longer
# padded at TIGHT_TOL than alone and unpadded.  Unpadded circulant ascents on
# dense products took 0.67-1.09 (median 0.83) of the FFT's time per iteration at
# n = 8, 12, 16, 24 and 32 with the same iterations, 1-8 tuples, p = 1.5 and 3
PAD_ORDER = 16

_log = logging.getLogger(__name__)


def as_exponent(p) -> float:
    """Hoelder exponent p as a float; ValueError unless 1 <= p < inf (NaN fails)."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"exponent must satisfy 1 <= p < inf, got {p!r}")
    return p


@dataclass(frozen=True)
class NormEstimate:
    """Certified bracket lower <= ||A||_p <= upper with a maximizing witness.

    The witness is a unit ell^p vector whose Rayleigh ratio ||A w||_p / ||w||_p
    reproduces `lower` to 1e-12 relative accuracy.  Methods "exact-p1" and
    "exact-p2" promise upper - lower <= 1e-10 * max(1, lower).
    """

    lower: float
    upper: float
    witness: np.ndarray
    method: str

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-15):
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def overlaps(self, other: "NormEstimate", slack: float = 0.0) -> bool:
        return (self.lower <= other.upper + slack) and (other.lower <= self.upper + slack)

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "witness": [[float(z.real), float(z.imag)] for z in self.witness],
        }


def method_of(p: float) -> str:
    """The method string of a bracket at exponent p: exact at p = 1 and p = 2."""
    return {1.0: "exact-p1", 2.0: "exact-p2"}.get(p, "boyd+interp")


def _as_square_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError("matrix entries must be finite")
    return A


def pnorm(x: np.ndarray, p: float, axis=None):
    """ell^p norm, overflow-safe via max factoring."""
    a = np.abs(np.asarray(x))
    m = a.max(axis=axis, keepdims=axis is not None)
    scaled = np.divide(a, np.where(m > 0.0, m, 1.0))
    s = (scaled**p).sum(axis=axis) ** (1.0 / p)
    m = m if axis is None else np.squeeze(m, axis=axis)
    return m * s


def _norm1(A: np.ndarray) -> tuple[float, int]:
    sums = np.sum(np.abs(A), axis=0)
    j = int(np.argmax(sums))
    return float(sums[j]), j


def _norm2(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest singular value with its right singular vector."""
    _, s, vh = np.linalg.svd(A)
    return float(s[0]), vh[0].conj()


def interpolation_upper(p: float, norm1: float, norm2: float, norm_inf: float) -> float:
    """Riesz-Thorin bound on ||A||_p from the exact endpoint norms.

    For p in (1,2): ||A||_p <= ||A||_1^{2/p-1} ||A||_2^{2-2/p};
    for p in (2,inf): ||A||_p <= ||A||_2^{2/p} ||A||_inf^{1-2/p}.
    """
    if p == 1.0:
        return norm1
    if p == 2.0:
        return norm2
    if p < 2.0:
        return norm1 ** (2.0 / p - 1.0) * norm2 ** (2.0 - 2.0 / p)
    return norm2 ** (2.0 / p) * norm_inf ** (1.0 - 2.0 / p)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries omega_n^{jk} / sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


@functools.lru_cache(maxsize=128)
def default_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """Start block for the ascent: basis vectors, DFT columns, then random fill.

    Basis and DFT starts are always present (DFT columns are eigenvectors of
    every circulant, which pins the lower bound above the spectral radius);
    random columns top the block up to at least `restarts` total.  Built once
    per argument triple and shared, so the array is read-only.
    """
    cols = [np.eye(n, dtype=complex), dft_matrix(n).conj()]
    n_random = max(restarts - 2 * n, 4)
    rng = np.random.default_rng(seed)
    cols.append(rng.standard_normal((n, n_random)) + 1j * rng.standard_normal((n, n_random)))
    block = np.concatenate(cols, axis=1)
    block.flags.writeable = False
    return block


def _norm_and_dual(Y: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Column t-norms of a block Y and the duality map psi_t(y / ||y||_t) of each
    column, psi_t(v)_i = |v_i|^{t-1} sign(v_i), from one modulus and one power.

    With m = max|y| and r = |y| / m, ||y||_t = m s^(1/t) for s = sum r^t, and
    psi_t(y / ||y||_t) = (y / m) r^(t-2) s^(1/t - 1).  Entries with r <= 1e-300
    count as zero; every factor is relative to the column's own max, so no
    threshold depends on the scale of y.  The column max is floored at the
    smallest normal float, which only matters for an all-denormal column.
    """
    a = np.abs(Y)
    m = np.maximum(a.max(axis=0), _TINY)
    r = a * (1.0 / m)
    rt = r ** (t - 1.0)
    s = (rt * r).sum(axis=0)
    # scale y to at most 1 first: a factor 1 / |y_i| alone overflows on denormal y_i
    V = Y * (1.0 / np.maximum(m * s ** (1.0 - 1.0 / t), _TINY))
    V *= np.divide(rt, r, out=np.zeros_like(r), where=r > 1e-300)
    return m * s ** (1.0 / t), V


def _narrow(running, settled) -> np.ndarray:
    """boyd_lower's next block columns: the unsettled ones flagged `running`.  A lone
    column is kept twice: numpy sums a one-column block pairwise, a wider one row
    by row, and the order decides the roundoff."""
    cols = np.flatnonzero(running & ~settled)
    return cols.repeat(2) if cols.size == 1 else cols


def boyd_lower(matmat, rmatmat, starts: np.ndarray, p: float,
               tol: float = _CONVERGENCE_TOL, *, groups: int = 1, select=lambda groups: None,
               incumbent: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Monotone lower bound on an operator p-norm by Boyd's ascent.

    `matmat`/`rmatmat` apply A and A^H to column blocks.  Each column of
    `starts` seeds one ascent; all columns are iterated simultaneously until
    the per-column estimates move by less than tol relatively, or until the
    best value over all columns has stagnated for _STALL_ITERS iterations
    (the stagnation stop of block norm estimators, Higham & Tisseur 2000).
    An iteration counts as stagnant when no column, climbing at its current
    pace, would pass the best value by more than tol relatively within
    2 * _STALL_ITERS iterations; so the best value did not rise, and no
    slow column below it is on course to overtake it.  A caller that already
    holds a lower bound may pass it as `incumbent`: a group then also counts
    as stagnant while no column is on pace to pass max(its best, incumbent),
    so a group that cannot raise the caller's bound stops early, and the
    value it returns may fall short of what it reaches alone.  The stop
    reason (settled, stalled or max_iter) is logged at DEBUG.

    Each half-step takes one modulus and one power per block entry (see
    _norm_and_dual): Y = A X gives ||Y||_p and psi_p(Y / ||Y||_p), Z = A^H of
    that gives ||Z||_q and the next X = psi_q(Z / ||Z||_q), q = p / (p - 1).
    That X needs no renormalization: ||psi_q(z / ||z||_q)||_p = 1, because
    (q - 1) p = q.

    A column that settles (step test or duality certificate) would only
    repeat its value, so it leaves the working block (see _narrow); best
    values and best X stay in start-column order, so no witness depends on it.

    Independent problems of one size run side by side as groups: `starts`
    holds `groups` equal group-major column blocks, one per operator.  Each
    group stops on its own rule, exactly as it would alone, and leaves the
    block.  Whenever the block changes, `select(g)` names the group
    (operator) of each of its columns, which `matmat`/`rmatmat` then apply
    (one group needs no `select`).  Returns arrays (values, W): column g of W,
    shape (n, groups), is group g's best column at unit p-norm, and values[g]
    its value, re-evaluated at the end in the one block W, after `select(range(groups))`.
    Every column sum runs row after row (see _column_pnorms), so zero rows
    appended to the operators and the starts change no bit of a group.
    """
    q = p / (p - 1.0)
    X = starts.astype(complex, copy=True)
    norms = _column_pnorms(X, p)
    X /= np.where(norms > 0.0, norms, 1.0)
    k = X.shape[1] // groups
    best_val = np.zeros(X.shape[1])
    best_X = X.copy()
    cols = np.arange(X.shape[1])  # start column of each working column
    runs = np.arange(0, X.shape[1], k)  # where each running group's columns begin
    prev = np.zeros(X.shape[1])
    stall = np.zeros(groups, dtype=int)
    live = np.arange(groups)  # the running groups, in block order
    witnesses = [None] * groups
    select(cols // k)

    def freeze(slots, reason: str) -> None:
        for i in live[slots]:
            j = i * k + int(np.argmax(best_val[i * k:(i + 1) * k]))
            witnesses[i] = best_X[:, j]
            _log.debug("boyd_lower stopped (%s) after %d iterations, n=%d, %d columns",
                       reason, it, X.shape[0], k)

    def retire(stalled, settled, *blocks):
        """Stop stalled and fully settled groups; drop them and settled columns."""
        nonlocal cols, runs, stall, live
        empty = np.logical_and.reduceat(settled, runs)
        stop = empty | stalled
        running = np.ones_like(settled)
        if stop.any():
            freeze(empty, "settled")
            freeze(stalled & ~empty, "stalled")
            running = np.repeat(~stop, np.diff(runs, append=settled.size))
            stall, live = stall[~stop], live[~stop]
        keep = _narrow(running, settled)
        cols = cols[keep]
        group = cols // k
        runs = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
        select(group)
        # take keeps the blocks C-ordered, where fancy indexing may not;
        # the column sums of _norm_and_dual follow the memory order, so it decides their roundoff
        return [np.take(B, keep, axis=-1) for B in blocks]

    it = 0
    for it in range(1, _MAX_ITER + 1):
        g, V = _norm_and_dual(matmat(X), p)
        improved = g > best_val[cols]
        best_val[cols[improved]] = g[improved]
        best_X[:, cols[improved]] = X[:, improved]
        step = g - prev
        settled = np.abs(step) <= tol * np.maximum(g, 1e-300)
        # stagnant: no column, at its current pace, would pass its group's best
        # value or the incumbent within two stall windows (one that just raised
        # the best value by more than tol would)
        lead = np.maximum.reduceat(g + 2 * _STALL_ITERS * step, runs)
        floor = np.maximum(best_val.reshape(-1, k)[live].max(1), incumbent)
        stall = np.where(lead > floor * (1 + tol), 0, stall + 1)
        stalled = stall >= _STALL_ITERS
        if settled.any() or stalled.any():
            X, V, g, settled = retire(stalled, settled, X, V, g, settled)
            if not live.size:
                break
        prev = g
        Z = rmatmat(V)
        zn, W = _norm_and_dual(Z, q)
        # duality certificate: ||z||_q <= Re<z, x> marks a stationary point,
        # where the estimate can no longer improve
        settled |= zn <= (np.conj(Z) * X).real.sum(axis=0) * (1.0 + 10.0 * tol)
        # degenerate columns (A^H psi = 0, as when A x = 0) stay put; the step test settles them
        X = np.where((zn > 0.0) & ~settled, W, X)
        if settled.any():
            X, prev = retire(np.zeros_like(stall, dtype=bool), settled, X, prev)
            if not live.size:
                break
    else:
        freeze(slice(None), "max_iter")
    select(np.arange(groups))
    W = np.stack(witnesses, axis=1)
    W /= _column_pnorms(W, p)
    return _column_pnorms(matmat(W), p), W


def _column_pnorms(Y: np.ndarray, p: float) -> np.ndarray:
    """pnorm of each column of a 2-D block, summed row after row, so zero rows added
    change no bit: numpy sums a C-ordered block so, but one column pairwise."""
    wide = Y if Y.shape[1] > 1 else np.repeat(Y, 2, axis=1)
    return pnorm(np.ascontiguousarray(wide), p, axis=0)[:Y.shape[1]]


def _stacked_matmats(stack: np.ndarray):
    """Column-block products by a stack of equal-size dense matrices: after
    `select(g)`, column j of a block is multiplied by stack[g[j]].

    A product places the columns of each matrix side by side in one
    zero-padded (matrix, row, column) array, so it is one batched matmul
    and holds no copy of a matrix per column.  Each matrix gets a multiple of
    _GEMM_COLUMNS columns, so no column's bits depend on the others.
    """
    rows = np.arange(stack.shape[1])[:, None]
    mats = adjoints = index = width = None

    def select(groups) -> None:
        nonlocal mats, adjoints, index, width
        live, first, at = np.unique(groups, return_index=True, return_inverse=True)
        pos = np.arange(len(groups)) - first[at]  # each column's place among its matrix's
        mats = stack[live]
        width = -(-(int(pos.max(initial=0)) + 1) // _GEMM_COLUMNS) * _GEMM_COLUMNS
        adjoints = mats.conj().swapaxes(1, 2)
        # flat position of block entry (r, j) in the (matrix, row, column) array
        index = (at * len(rows) + rows) * width + pos

    def product(X: np.ndarray, M: np.ndarray) -> np.ndarray:
        X3 = np.zeros(M.shape[:2] + (width,), dtype=complex)
        X3.reshape(-1)[index] = X
        return np.matmul(M, X3).reshape(-1)[index]

    return (lambda X: product(X, mats)), (lambda X: product(X, adjoints)), select


def _grouped_lower(products, starts: np.ndarray, p: float, tol: float, incumbent: float):
    """boyd_lower of the groups of a (groups, n, c) start array, group g from the
    columns starts[g], in blocks of at most _CHUNK_COLUMNS columns: products(rows)
    gives the (matmat, rmatmat, select) of the groups in the slice `rows`.
    Returns arrays (values, witnesses) of shapes (groups,) and (groups, n)."""
    groups, n, c = starts.shape
    values, W = np.zeros(groups), np.zeros((n, groups), dtype=complex)
    per_block = max(1, _CHUNK_COLUMNS // c)
    for lo in range(0, groups, per_block):
        part = slice(lo, lo + per_block)
        matmat, rmatmat, select = products(part)
        block = starts[part]
        values[part], W[:, part] = boyd_lower(matmat, rmatmat, np.concatenate(block, axis=1), p,
                                              tol=tol, groups=len(block), select=select,
                                              incumbent=incumbent)
    return values, W.T


def stacked_lower(shapes, stack, starts, p: float, *, tol: float, incumbent: float = 0.0,
                  products=None) -> list:
    """Boyd lower bounds of a list of (k, n, n) stacks of square matrices, as one pair
    of arrays (values, witnesses) per stack, of shapes (k,) and (k, n), all at `tol`
    and `incumbent`: shapes[i] is (k, n), stack(i) builds stack i, and starts(i) is
    an (n, c) start block its rows share or a (k, n, c) block, one per row.

    The rows of the stacks of order up to PAD_ORDER run as the groups of one
    boyd_lower ascent, stack after stack, zero-padded to the largest of those
    orders and to the widest start block.  A padded coordinate stays zero, a
    zero start column settles at once, and neither the products nor the sums
    depend on the padding or the batch-mates, so each row gets the bits it
    gets alone; the number of iterations is the largest over the rows, not
    their sum.  Each larger stack runs alone and unpadded, on products(i), which
    maps a slice of its rows to their (matmat, rmatmat, select) (FFT products
    for circulants; stack i is then never built), or else on its dense stack.
    """
    def rows_of(i):  # starts(i), one block per row
        block = starts(i)
        return np.broadcast_to(block, (shapes[i][0],) + block.shape[-2:])

    def dense(mats):
        return lambda rows: _stacked_matmats(mats[rows])

    out = [None] * len(shapes)
    for i, (_, n) in enumerate(shapes):
        if n > PAD_ORDER:
            out[i] = _grouped_lower(products(i) if products else dense(stack(i)), rows_of(i), p,
                                    tol, incumbent)
    small = [i for i, solved in enumerate(out) if solved is None]
    if small:
        blocks = [rows_of(i) for i in small]
        ends = np.cumsum([len(block) for block in blocks])
        size = max(shapes[i][1] for i in small)
        mats = np.zeros((ends[-1], size, size), dtype=complex)
        padded = np.zeros((ends[-1], size, max(block.shape[2] for block in blocks)), dtype=complex)
        for i, block, end in zip(small, blocks, ends):
            _, n, c = block.shape
            mats[end - len(block):end, :n, :n] = stack(i)
            padded[end - len(block):end, :n, :c] = block
        values, W = _grouped_lower(dense(mats), padded, p, tol, incumbent)
        for i, lower, found in zip(small, np.split(values, ends[:-1]), np.split(W, ends[:-1])):
            out[i] = lower, found[:, :shapes[i][1]]
    return out


def _interpolation_upper_of(A: np.ndarray, p: float) -> float:
    return interpolation_upper(p, _norm1(A)[0], _norm2(A)[0], _norm1(A.T)[0])


def _exact_opnorm(A: np.ndarray, p: float) -> NormEstimate:
    """||A||_1 with the basis vector of its largest column sum as witness, or ||A||_2
    with its right singular vector."""
    if p == 1.0:
        val, j = _norm1(A)
        w = np.zeros(len(A), dtype=complex)
        w[j] = 1.0
    else:
        val, w = _norm2(A)
    return NormEstimate(val, val, w, method_of(p))


def grouped_opnorm(mats, p, *, seed: int = 0) -> list[NormEstimate]:
    """Certified bracket for the operator norm on ell^p_n of each matrix in a list.

    p = 1 and p = 2 are exact (see _exact_opnorm).  Any other p gets Riesz-Thorin
    upper bounds and lower bounds from one stacked_lower call at TIGHT_TOL, each
    matrix a stack of one from default_starts(n, 32, seed): padded together up to
    PAD_ORDER, each larger one alone on its own dense products.  Deterministic
    given `seed`.
    """
    p = as_exponent(p)
    mats = [_as_square_matrix(A) for A in mats]
    if p in (1.0, 2.0):
        return [_exact_opnorm(A, p) for A in mats]
    found = stacked_lower([(1, len(A)) for A in mats], lambda i: mats[i][None],
                          lambda i: default_starts(len(mats[i]), 32, seed), p, tol=TIGHT_TOL)
    return [NormEstimate(float(lo), float(max(_interpolation_upper_of(A, p), lo)), w,
                         "boyd+interp") for A, ([lo], [w]) in zip(mats, found)]


def opnorm(A, p, *, seed: int = 0) -> NormEstimate:
    """Certified bracket for the operator norm of A on ell^p_n: grouped_opnorm of the
    one matrix A, so exact at p = 1 and p = 2 and otherwise a Boyd lower bound at
    TIGHT_TOL with a Riesz-Thorin upper bound."""
    return grouped_opnorm([A], p, seed=seed)[0]


def section_max(f, center, half, steps: int):
    """Maximize f on [center - half, center + half] by k-section search,
    columnwise for arrays.

    Each of `steps` steps calls f once on a (_SECTIONS, ...) array: the
    interior points that split the window into equal parts of width h, and
    keeps [x - h, x + h] around the best one x (ties keep the left one), a
    factor 2 / (_SECTIONS + 1) per step.  This is search with simultaneous
    evaluations (Avriel & Wilde, Management Sci. 12 (1966)); golden section
    is optimal only for one point at a time.  Returns the best point
    evaluated and its value.
    """
    center, half = np.broadcast_arrays(np.asarray(center, dtype=float),
                                       np.asarray(half, dtype=float))
    k = np.arange(1, _SECTIONS + 1).reshape((-1,) + (1,) * center.ndim)
    best_x, best_v = center, np.full(center.shape, -np.inf)
    for _ in range(steps):
        h = 2.0 * half / (_SECTIONS + 1)
        v = np.asarray(f(center - half + h * k))
        # the best point, recomputed by the same arithmetic, so bit for bit the one evaluated
        center, vj = center - half + h * (np.argmax(v, axis=0) + 1), np.max(v, axis=0)
        better = vj > best_v
        best_x, best_v = np.where(better, center, best_x), np.where(better, vj, best_v)
        half = h
    return best_x, best_v


def opnorm_oracle(A, p, samples: int = 256, seed: int = 0) -> float:
    """Independent lower bound on ||A||_p by randomized coordinate ascent.

    Draws `samples` random unit vectors and refines each by cyclic
    coordinate ascent (phase alignment, then magnitude line search) until a
    full sweep improves the Rayleigh ratio by less than 1e-10 relatively.
    This deliberately shares no code path with opnorm's Boyd iteration.
    """
    A = _as_square_matrix(A)
    p = as_exponent(p)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    X /= pnorm(X, p, axis=0)
    AX = A @ X
    val = pnorm(AX, p, axis=0)

    phase_grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for _ in range(200):
        for i in range(n):
            a_i = A[:, i][:, None]
            B = AX - a_i * X[i]
            r = np.abs(X[i])

            def num_at_phase(theta):
                return pnorm(B + a_i * (r * np.exp(1j * theta))[..., None, :], p, axis=-2)

            vals = num_at_phase(phase_grid[:, None])
            t0 = phase_grid[np.argmax(vals, axis=0)]
            # 13 and 14 steps: (2/9)^13 <= phi^-40 and (2/9)^14 <= phi^-42, so the final
            # windows are no wider than 40 and 42 golden-section steps leave
            theta, v = section_max(num_at_phase, t0, 2.0 * np.pi / len(phase_grid), 13)
            theta = np.where(v < np.max(vals, axis=0), t0, theta)
            phase = np.exp(1j * theta)

            s_other = np.maximum(pnorm(X, p, axis=0) ** p - r**p, 0.0)

            def ratio_at_r(rr):
                num = pnorm(B + a_i * (phase * rr)[..., None, :], p, axis=-2)
                den = np.maximum(s_other + rr**p, 1e-300) ** (1.0 / p)
                return num / den

            hi = np.maximum(4.0 * r, 1.0)
            r_grid = np.linspace(np.zeros(samples), hi, 9)
            vals_r = ratio_at_r(r_grid)
            k, cols = np.argmax(vals_r, axis=0), np.arange(samples)
            r_lo, r_hi = r_grid[np.maximum(k - 1, 0), cols], r_grid[np.minimum(k + 1, 8), cols]
            rr, v = section_max(ratio_at_r, (r_lo + r_hi) / 2.0, (r_hi - r_lo) / 2.0, 14)
            r_best = r_grid[k, cols]
            v_grid, v_r = np.max(vals_r, axis=0), ratio_at_r(r)
            rr = np.where(v < np.maximum(v_grid, v_r), np.where(v_grid >= v_r, r_best, r), rr)

            X[i] = phase * rr
            AX = B + a_i * X[i]
        norms = pnorm(X, p, axis=0)
        dead = norms == 0.0
        if np.any(dead):
            X[:, dead] = np.eye(n, dtype=complex)[:, [0] * int(np.sum(dead))]
            AX = A @ X
            norms = pnorm(X, p, axis=0)
        X /= norms
        AX /= norms
        new_val = pnorm(AX, p, axis=0)
        if np.max(new_val - val) < 1e-10 * max(float(np.max(new_val)), 1e-300):
            val = np.maximum(val, new_val)
            break
        val = np.maximum(val, new_val)
    return float(np.max(val))
