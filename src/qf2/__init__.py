"""Quadratic forms in characteristic 2 over Laurent-series towers.

Exact field arithmetic (_kernel, fieldtower), block normal forms and invariants
(forms), the Witt/isotropy engine (witt), Clifford-algebra invariants
(clifford), Pfister-neighbor tests (pfister), and the Chow-torsion oracle
for projective quadrics (chow).  `qf2.cli` is the command-line front end.
"""

from .fieldtower import (FieldDescriptor, FieldElem, WpClass, is_square,
                         parse_element, parse_field, quad_extend,
                         render_element, valuation_split, wp_member,
                         wp_reduce, wp_root)
from .forms import (GramInput, PfisterSpec, QuadraticForm, arf,
                    discriminant_algebra, hyperbolic, hyperbolic_plane,
                    make_pfister, normal_form, orthogonal_sum, parse_form,
                    render_form, scale)
from .witt import (IsotropyVerdict, ResiduePair, WittDecomposition,
                   brute_force_search, decide_isotropy, isometric,
                   represents, springer_residues, subform_test,
                   witt_decompose, witt_index_over_ext)
from .clifford import (AlgebraClassDescriptor, CliffordAlgebra,
                       SplittingIndexResult, albert_index, build_clifford,
                       center_and_idempotents, even_clifford_class,
                       quaternion_splits, splitting_index)
from .pfister import (NeighborVerdict, neighbor, neighbor_dim5,
                      neighbor_dim6, neighbor_high, pfister_hyperbolicity)
from .chow import (ChowReport, SplitChowRow, chow2_torsion, chow3_torsion,
                   isotropic_reduce, split_chow_structure)

__version__ = "0.1.0"
