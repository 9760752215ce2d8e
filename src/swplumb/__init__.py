"""Exact invariants of rational homology spheres from negative-definite plumbings.

The pipeline: a plumbing tree determines an intersection lattice, its cokernel
with meridian generators, the torsion through its character transform, the
Casson-Walker invariant, the modified monopole count, and the gap against the
canonical-cycle invariant.  Seifert, lens and diagonal complete-intersection
builders feed the same pipeline and carry independent closed-form routes.
"""

from .brieskorn import (BrieskornReport, BrieskornSpec, brieskorn_seifert,
                        classify, closed_form_invariants, order_of_h)
from .dedekind import dedekind_symbol, dr_sum
from .errors import (ConductorMismatch, InternalInvariantViolated,
                     InvalidBaseVertex, NotATree, NotNegativeDefinite, NotQHS,
                     NotRational, OrderCapExceeded, SingularMatrix, SwplumbError)
from .exact import IntMatrix
from .homology import (Character, FinAbGroup, homology_from_lattice, linking_form,
                       q_can, spinc_canonical_class, spinc_conjugate, spinc_quadratic)
from .plumbing import (LatticeData, PlumbingGraph, blow_up_edge, blow_up_vertex,
                       build_lattice, casson_walker, k2_plus_nv,
                       numerically_gorenstein)
from .reference import (CycNum, CyclotomicField, SmithDecomposition, cyclotomic_field,
                        cyclotomic_polynomial, dr_sum_direct, fourier_identity_suite,
                        gauss_sum_check, invert_rational_matrix, regularized_product,
                        smith_normal_form)
from .report import (InvariantReport, compute_report, render_table,
                     report_from_json, report_to_json)
from .seifert import (KSReport, SeifertData, hj_expand, ks_route, lens_chain,
                      seifert_casson_walker, seifert_k2nv,
                      seifert_torsion_shortcut, star_graph)
from .torsion import (TorsionTable, WeightVector, delta_at_one_check,
                      swiden_consistency, torsion_table, weight_vector)

__version__ = "0.1.0"
# `from swplumb import *`: the names above and their modules, not `reference` itself
__all__ = [name for name in dir() if not name.startswith("_") and name != "reference"]
