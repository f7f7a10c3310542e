"""lpkit: certified operator p-norms for algebras of invertible L^p isometries.

Submodules, one per concern:

* ``pnorm``    -- bracket engine for matrix norms on ell^p_n
* ``cyclic``   -- the circulant algebra of the cyclic group of order n
* ``zline``    -- convolution norms of Laurent polynomials over the integers
* ``specconf`` -- spectral configurations on the circle and their norms
* ``lamperti`` -- invertible isometries of weighted atomic ell^p spaces
* ``cli``      -- batch JSON/CSV command line driver
"""

from .cyclic import (
    CyclicElement,
    circulant_of,
    classify_isometry,
    embed_divisor,
    fpzn_norm,
    fpzn_norms,
    gap_witness,
    restrict,
    rotate,
)
from .lamperti import (
    AtomicSpace,
    SpatialIsometry,
    conjugation_identity_check,
    decompose,
    fpv_norm,
    gauge_trivialize,
    measure_normalize,
    periods,
    spectral_configuration_of,
    to_matrix,
)
from .pnorm import NormEstimate, opnorm, opnorm_oracle
from .specconf import (
    ArcSet,
    SpectralConfiguration,
    canonically_equivalent,
    classify,
    closure_union,
    fpsigma_norm,
    lattice_inf,
    lattice_sup,
    leq,
    membership_probe,
    order,
    saturate,
)
from .zline import LaurentPolynomial, cyclic_lower, fpz_norm, norm_l1, sup_exact

__version__ = "0.1.0"

__all__ = [
    "ArcSet",
    "AtomicSpace",
    "CyclicElement",
    "LaurentPolynomial",
    "NormEstimate",
    "SpatialIsometry",
    "SpectralConfiguration",
    "canonically_equivalent",
    "circulant_of",
    "classify",
    "classify_isometry",
    "closure_union",
    "conjugation_identity_check",
    "cyclic_lower",
    "decompose",
    "embed_divisor",
    "fpsigma_norm",
    "fpv_norm",
    "fpz_norm",
    "fpzn_norm",
    "fpzn_norms",
    "gap_witness",
    "gauge_trivialize",
    "lattice_inf",
    "lattice_sup",
    "leq",
    "measure_normalize",
    "membership_probe",
    "norm_l1",
    "opnorm",
    "opnorm_oracle",
    "order",
    "periods",
    "restrict",
    "rotate",
    "saturate",
    "spectral_configuration_of",
    "sup_exact",
    "to_matrix",
    "__version__",
]
