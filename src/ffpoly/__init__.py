"""In-place, over-place and accumulating polynomial arithmetic over F_p."""

from .ff import Field, FieldError, InversionOfZero, is_prime
from .region import (
    AliasedOperands,
    Buffer,
    CoeffRegion,
    RestorationViolation,
    Snapshot,
    SplitTarget,
    VirtualWrite,
    poly_region,
    snapshot,
    split_blocks,
)
from .instrument import AllocGuard, GuardViolation, OpCounter, Scope, measure, measure_call
from .mulbase import (
    MulStrategy,
    NonMonicLeadingZero,
    Schoolbook,
    SingularDiagonal,
    TargetTooShort,
    acc_mul_full,
    acc_mul_short,
    default_strategy,
    quad_rem,
    quad_rem_overplace,
    quad_tri_mul_overplace,
    quad_tri_solve_overplace,
)
from .conv import (
    BadParameter,
    F2_SHORT_SCHEDULE,
    LengthMismatch,
    conv_acc,
    conv_even_1,
    conv_even_f,
    conv_odd_f,
    plan_convolution,
    short_acc,
    short_acc_ragged,
)
from .toeplitz import (
    CirculantView,
    ToeplitzView,
    banded_upper_mul_overplace,
    banded_upper_solve_overplace,
    circulant_acc,
    rect_toeplitz_acc,
    square_toeplitz_acc,
    tri_toeplitz_mul_overplace,
    tri_toeplitz_solve_overplace,
)
from .euclid import (
    EuclidContext,
    NonInvertibleLeading,
    divmod_over_place,
    divmod_over_place_inv,
    euclid_context,
    remainder_acc,
    remainder_blockwise,
    remainder_in_place,
)
from .modmul import DegreeConstraint, MulmodBlocks, mulmod_acc, mulmod_acc_full, mulmod_blocks
from . import reference

__all__ = [
    # ff
    "Field", "FieldError", "InversionOfZero", "is_prime",
    # region
    "AliasedOperands", "Buffer", "CoeffRegion", "RestorationViolation", "Snapshot",
    "SplitTarget", "VirtualWrite", "poly_region", "snapshot", "split_blocks",
    # instrument
    "AllocGuard", "GuardViolation", "OpCounter", "Scope", "measure", "measure_call",
    # mulbase
    "MulStrategy", "NonMonicLeadingZero", "Schoolbook", "SingularDiagonal",
    "TargetTooShort", "acc_mul_full", "acc_mul_short", "default_strategy", "quad_rem",
    "quad_rem_overplace", "quad_tri_mul_overplace", "quad_tri_solve_overplace",
    # conv
    "BadParameter", "F2_SHORT_SCHEDULE", "LengthMismatch", "conv_acc", "conv_even_1",
    "conv_even_f", "conv_odd_f", "plan_convolution", "short_acc", "short_acc_ragged",
    # toeplitz
    "CirculantView", "ToeplitzView", "banded_upper_mul_overplace",
    "banded_upper_solve_overplace", "circulant_acc", "rect_toeplitz_acc",
    "square_toeplitz_acc", "tri_toeplitz_mul_overplace", "tri_toeplitz_solve_overplace",
    # euclid
    "EuclidContext", "NonInvertibleLeading", "divmod_over_place", "divmod_over_place_inv",
    "euclid_context", "remainder_acc", "remainder_blockwise", "remainder_in_place",
    # modmul
    "DegreeConstraint", "MulmodBlocks", "mulmod_acc", "mulmod_acc_full", "mulmod_blocks",
]
