"""Exact (co)homology of finite commutative monoids.

Chain complexes of functors on finite pointed sets, with coefficients in
module systems over the divisibility category of a monoid.  Everything
runs over exact integer arithmetic, rational dimensions included; answers
are finitely generated abelian groups in invariant-factor form.
"""

from .errors import MonhomError
from .exact_linalg import FgAbGroup, IntMatrix
from .gamma_chain import (COHOMOLOGICAL, HOMOLOGICAL, MorseReduction,
                          build_complex, harrison, harrison_dim_q, hochschild,
                          hochschild_dim_q, leech_cohomology, morse_complex,
                          y_exactness_check)
from .grillet import (bar_complex_compare, d0_cohomology, d0_homology,
                      grillet_char0, grillet_report, kaehler_compare)
from .hc_modules import (LEFT, RIGHT, derivations, jstar, jstar_finite_cyclic,
                         omega, regular_kc_module, std_projective,
                         tabulate_presented, tensor_over_hc, trivial_module)
from .hodge import (HodgeProjectorSet, eulerian_idempotents,
                    hodge_decomposition, morse_hodge, total_shuffle_operator)
from .monoids import (FiniteCommMonoid, builder, cyclic_group, product_monoid,
                      semilattice_chain, trivial_monoid, truncated_add,
                      validate_monoid)
from .verify import run_suites

__all__ = [
    "COHOMOLOGICAL", "HOMOLOGICAL", "LEFT", "RIGHT",
    "FgAbGroup", "FiniteCommMonoid", "HodgeProjectorSet", "IntMatrix",
    "MonhomError", "MorseReduction",
    "bar_complex_compare", "build_complex", "builder", "cyclic_group",
    "d0_cohomology", "d0_homology", "derivations", "eulerian_idempotents",
    "grillet_char0", "grillet_report", "harrison", "harrison_dim_q",
    "hochschild", "hochschild_dim_q", "hodge_decomposition", "jstar",
    "jstar_finite_cyclic", "kaehler_compare", "leech_cohomology",
    "morse_complex", "morse_hodge", "omega",
    "product_monoid", "regular_kc_module", "run_suites",
    "semilattice_chain", "std_projective", "tabulate_presented",
    "tensor_over_hc", "total_shuffle_operator", "trivial_module",
    "trivial_monoid", "truncated_add", "validate_monoid",
    "y_exactness_check",
]

__version__ = "0.1.0"
