"""Bracket the convolution norm of Laurent polynomials on ell^p of the integers.

Cyclic samples give guaranteed lower bounds that grow along divisibility
chains; interpolation between the ell^1 and sup norms caps the bracket from
above.  At p = 1 the norm is exactly the coefficient ell^1 norm, and the
cyclic bounds reach it as soon as the cycle outgrows the support.
"""

import numpy as np

from lpkit import LaurentPolynomial, cyclic_lower, fpz_norm, norm_l1, sup_exact

f = LaurentPolynomial(((-1, 0.5 - 0.25j), (0, 1.0), (2, -1.0 + 1.0j)))
print("f =", " + ".join(f"({a:.3g}) x^{m}" for m, a in f.terms))
print(f"coefficient l1 norm : {norm_l1(f):.10f}")
print(f"sup of |f| on circle: {sup_exact(f)[0]:.10f}\n")

print("cyclic lower bounds at p = 1 climb to the l1 norm:")
for n in (1, 2, 4, 8, 16, 32):
    print(f"  n={n:<3}: {cyclic_lower(f, n, 1):.10f}")
print()

print("brackets across exponents (exact at the endpoints p = 1, 2):")
for p in (1, 1.25, 1.5, 2, 3, 5):
    est = fpz_norm(f, p, n_max=64, seed=0)
    print(f"  p={p:<5}: [{est.lower:.8f}, {est.upper:.8f}]  width {est.width:.2e}")
print()

g = LaurentPolynomial(((0, 1), (1, -1)))
est = fpz_norm(g, 1.5, n_max=8)
print("for 1 - x the sandwich pinches shut at every p:")
print(f"  p=1.5 bracket [{est.lower:.12f}, {est.upper:.12f}] (sup = l1 = 2)")
