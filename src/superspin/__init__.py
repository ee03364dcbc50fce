"""Computer algebra for rotations in superspace over Grassmann coefficients.

The package builds up from sparse Grassmann-number arithmetic through block
supermatrices (supertranspose, supertrace, Berezinian, exp/ln) and a
normal-ordered Clifford-Weyl engine to the superspace rotation group, its
three-exponential decomposition, and the spin double cover with its
fractional-Fourier elements.
"""

from .clifford import (
    CliffordElement,
    ExtendedSuperbivector,
    Supervector,
    apply_matrix,
    bivector_to_matrix,
    clifford_exp,
    commutator_action,
    inner,
    matrix_to_bivector,
    random_sphere_vector,
    random_supervector,
    reflect,
    reflection_matrix,
    wedge,
)
from .exceptions import (
    AlgebraError,
    CapExceededError,
    ConvergenceError,
    LogDomainError,
    MembershipError,
    NotInvertibleError,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
    SingularBodyError,
)
from .grassmann import GrassmannNumber, random_grassmann
from .orthosymplectic import (
    AlgebraReport,
    GroupReport,
    RotationDecomposition,
    check_o0,
    check_so0,
    check_so0_algebra,
    compact_symplectic_log,
    decompose_rotation,
    from_unitary,
    grade_path,
    osp_defect,
    osp_standard_form,
    random_rotation,
    random_so0,
    random_supermatrix,
    rotation_log,
    symplectic_polar,
    to_unitary,
)
from .spin import (
    BivectorSplit,
    OscillatorExpansion,
    SpinElement,
    action_matrix,
    fractional_fourier,
    kernel_sign,
    ladder_pair,
    lift_rotation,
    oscillator_exp,
    oscillator_power,
    split_bivector,
    stirling2,
)
from .supermatrix import (
    GrassmannMatrix,
    Supermatrix,
    expm,
    logm,
    q_gram_matrix,
    split_symplectic_form,
    symplectic_form,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
