"""divalg: exact workbench for divergence-zero vector-field algebras on
tori and quantum tori, their graded tensor modules, and a box-truncated
submodule-closure engine for checking irreducibility statements at desk
scale.

All arithmetic is exact: arbitrary-precision rationals and cyclotomic
numbers, integer lattices, and canonical reduced row-echelon bases.
"""

from .scalars import Cyc, Rat, cyclotomic_polynomial, root_of_unity
from .linalg import SpanBasis, span_contains, span_extend
from .lattices import hermite_normal_form, smith_kernel_mod, smith_normal_form
from .reps import (
    RepHandle,
    RepVec,
    act_E,
    act_matrix,
    cyclic_closure,
    highest_weight_vector,
    weight,
)
from .witt import (
    AlgElem,
    DTerm,
    bracket_witt,
    d_basis,
    in_L,
    in_Lhat,
    jacobi_residual,
    lemma_orthg,
)
from .modules import (
    GradedVec,
    ModuleParams,
    act,
    act_d_basis,
    graded,
    module_axiom_residual,
    trivial_split,
    w_fiber_basis,
    w_membership,
)
from .closure import Box, ClosureResult, Label, classify
from .qtorus import (
    QMatrix,
    QMonomial,
    block_normal_q,
    cocycle_identities_residual,
    f_form,
    rad_q,
    sigma,
    torus_commutator,
    torus_mul,
)
from .qder import (
    QDerElem,
    act_q,
    ad_annihilation_check,
    bracket_qder,
    closure_q,
    decompose_classes,
    equivariance_residual,
    g_q_component,
    in_Lq,
    in_Lqhat,
    iso_algebra,
    iso_module,
)

__version__ = "0.1.0"
