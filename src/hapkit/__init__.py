"""hapkit: blockwise calculus on duals of discrete quantum groups.

Functionals on a compact quantum group are handled purely through their
matrix coefficients on irreducible corepresentations.  The package covers
the convolution calculus of such matrix families (counit, Haar state,
c0-decay and approximate-identity checks), generating functionals and their
matrix-exponential semigroups, cocycle factorizations, word combinatorics
of free products, conditionally free products, and a CLI that turns the
checks into deterministic certification reports.

Everything is truncation-honest: computations happen on finite label
tables, and no report claims anything beyond the truncation it saw.
"""

from .reports import __version__
from .irreps import (IrrepLabel, IrrepTable, Word, FreeProductTable, make_table,
                     free_product_table)
from .classical import (GroupSpec, GroupElement, length, ball, dual_irrep_table,
                        schoenberg_check, length_gram, length_functional, parse_group)
from .fourier import MatrixFamily, convolve, check_c0, check_hap_sequence, ExceptionalSet
from .genfun import (GeneratingFunctional, check_symmetric, check_positive_blocks,
                     check_proper, semigroup_at, build_from_states, generator_from_semigroup,
                     default_schedule, BuildReport)
from .cocycle import (CocycleMatrices, factor_from_generator, gram_from_cocycle,
                      check_proper_cocycle)
from .cfree import (cfree_state, cfree_generator, damping_family, damp_sequence,
                    freeprod_hap_pipeline)
from .reports import CertificationReport, ConditionVerdict, Witness

__all__ = [
    "__version__",
    "IrrepLabel", "IrrepTable", "Word", "FreeProductTable", "make_table",
    "free_product_table",
    "GroupSpec", "GroupElement", "length", "ball", "dual_irrep_table",
    "schoenberg_check", "length_gram", "length_functional", "parse_group",
    "MatrixFamily", "convolve", "check_c0", "check_hap_sequence", "ExceptionalSet",
    "GeneratingFunctional", "check_symmetric", "check_positive_blocks", "check_proper",
    "semigroup_at", "build_from_states", "generator_from_semigroup", "default_schedule",
    "BuildReport",
    "CocycleMatrices", "factor_from_generator", "gram_from_cocycle",
    "check_proper_cocycle",
    "cfree_state", "cfree_generator", "damping_family", "damp_sequence",
    "freeprod_hap_pipeline",
    "CertificationReport", "ConditionVerdict", "Witness",
]
