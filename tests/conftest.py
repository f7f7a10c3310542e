from types import SimpleNamespace

import numpy as np
import pytest

from lpkit.lamperti import AtomicSpace, SpatialIsometry
from lpkit.zline import LaurentPolynomial


def random_unimodular(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def random_laurent(rng, span=5, n_terms=None):
    """Random polynomial with exponents drawn from [-span, span]."""
    if n_terms is None:
        n_terms = int(rng.integers(1, 2 * span // 2 + 2))
    exps = rng.choice(np.arange(-span, span + 1), size=min(n_terms, 2 * span + 1),
                      replace=False)
    return LaurentPolynomial(
        tuple((int(m), complex(*rng.standard_normal(2))) for m in exps)
    )


def random_spatial_isometry(rng, max_atoms=10, max_cycle=4, aperiodic=False):
    """Isometry with a mix of cycle lengths 1..max_cycle, random phases/weights."""
    target = int(rng.integers(2, max_atoms + 1))
    images = []
    while len(images) < target:
        length = int(rng.integers(1, max_cycle + 1))
        base = len(images)
        images.extend(base + (i + 1) % length for i in range(length))
    n = len(images)
    return SpatialIsometry(
        AtomicSpace(rng.random(n) * 2.0 + 0.25),
        np.exp(2j * np.pi * rng.random(n)),
        np.array(images),
        aperiodic,
    )


def brackets(solved):
    """fpzn_norms' arrays (lower, upper, witness) as one record per row."""
    lower, upper, witness = solved
    assert lower.shape == upper.shape == witness.shape[:1]
    return [SimpleNamespace(lower=a, upper=b, witness=w)
            for a, b, w in zip(lower, upper, witness)]


def patch_ascents(patch, wrap):
    """Replace boyd_lower by wrap(boyd_lower) where every ascent calls it: lpkit.pnorm,
    whose stacked_lower runs the dense stacks and the FFT blocks alike."""
    import lpkit.pnorm as pnorm

    patch.setattr(pnorm, "boyd_lower", wrap(pnorm.boyd_lower))


def patch_chunk_columns(patch, columns):
    """Cap every grouped ascent's blocks at `columns` columns."""
    import lpkit.pnorm as pnorm

    patch.setattr(pnorm, "_CHUNK_COLUMNS", columns)


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
