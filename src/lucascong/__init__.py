"""Exact verification of Wolstenholme-type congruences for Lucas sequences.

Library layout:

- ``arith``       gcd / modular-inverse / totient / primality utilities
- ``lucas``       Lucas sequences u_n, companions v_n, rank of apparition
- ``primitive``   primitive parts w_n
- ``congruence``  the congruence verifiers
- ``qpoly``       integer polynomials in q and the certificate divisions
- ``cli``         the ``lucascong`` command-line front end
"""

from .arith import divisors, euler_phi, is_prime, jacobi, mod_inverse
from .congruence import (CongruenceReport, Status, lucas_harmonic_sum_mod,
                         verify_corollary_fib, verify_kimball_webb,
                         verify_theorem, verify_wolstenholme,
                         wolstenholme_rhs_mod)
from .lucas import (LucasParams, LucasTable, discriminant, lucas_pair,
                    lucas_table, rank_of_apparition)
from .primitive import PrimitivePart, primitive_part
from .qpoly import (IntPoly, cleared_congruence_poly, cyclotomic_poly,
                    poly_divmod, q_certificate, q_integer_poly, verify_q_prime)

__all__ = [
    "CongruenceReport", "IntPoly", "LucasParams", "LucasTable",
    "PrimitivePart", "cleared_congruence_poly", "cyclotomic_poly",
    "discriminant", "divisors", "euler_phi", "is_prime", "jacobi",
    "lucas_harmonic_sum_mod", "lucas_pair", "lucas_table", "mod_inverse",
    "poly_divmod", "primitive_part", "q_certificate", "q_integer_poly",
    "rank_of_apparition", "Status", "verify_corollary_fib",
    "verify_kimball_webb", "verify_q_prime", "verify_theorem",
    "verify_wolstenholme", "wolstenholme_rhs_mod",
]

__version__ = "0.1.0"
