"""Exact verification of Wolstenholme-type congruences for Lucas sequences.

Library layout:

- ``arith``       gcd / modular-inverse / totient utilities, exact rationals
- ``lucas``       Lucas sequences u_n, companions v_n, rank of apparition
- ``primitive``   primitive parts w_n and homogenized cyclotomic values
- ``congruence``  the congruence verifiers and their exact-rational oracle
- ``qpoly``       integer polynomials in q and the certificate divisions
- ``cli``         the ``lucascong`` command-line front end
"""

from .arith import divisors, euler_phi, is_prime, jacobi, mod_inverse, rational_mod
from .congruence import (CongruenceReport, Status, exact_sides,
                         lucas_harmonic_sum_mod, verify_corollary_fib,
                         verify_kimball_webb, verify_theorem,
                         verify_wolstenholme, wolstenholme_rhs_mod)
from .lucas import (LucasParams, LucasTable, discriminant, lucas_pair,
                    lucas_table, rank_of_apparition)
from .primitive import (CoprimalityReport, PrimitivePart, coprimality_report,
                        homogeneous_cyclotomic, primitive_part)
from .qpoly import (IntPoly, cleared_congruence_poly, cyclotomic_poly,
                    poly_divmod, q_certificate, q_integer_poly, verify_q_prime)

__all__ = [
    "CongruenceReport", "CoprimalityReport", "IntPoly", "LucasParams",
    "LucasTable", "PrimitivePart", "cleared_congruence_poly",
    "coprimality_report", "cyclotomic_poly", "discriminant", "divisors",
    "euler_phi", "exact_sides", "homogeneous_cyclotomic", "is_prime", "jacobi",
    "lucas_harmonic_sum_mod", "lucas_pair", "lucas_table", "mod_inverse",
    "poly_divmod", "primitive_part", "q_certificate", "q_integer_poly",
    "rank_of_apparition", "rational_mod", "Status", "verify_corollary_fib",
    "verify_kimball_webb", "verify_q_prime", "verify_theorem",
    "verify_wolstenholme", "wolstenholme_rhs_mod",
]

__version__ = "0.1.0"
