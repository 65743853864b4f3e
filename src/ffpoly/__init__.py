"""In-place, over-place and accumulating polynomial arithmetic over F_p."""

from .ff import Field, FieldError, InversionOfZero, is_prime
from .region import (
    AliasedOperands,
    Buffer,
    CoeffRegion,
    RestorationViolation,
    Snapshot,
    VirtualWrite,
    poly_region,
    snapshot,
    split_blocks,
)
from .instrument import AllocGuard, GuardViolation, OpCounter, Scope, measure, measure_call
from .mulbase import (
    LengthMismatch,
    MulStrategy,
    NonInvertibleLeading,
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
    conv_acc,
    short_acc,
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
    divmod_over_place,
    divmod_over_place_inv,
    remainder_acc,
    remainder_blockwise,
    remainder_in_place,
)
from .modmul import DegreeConstraint, mulmod_acc, mulmod_acc_full
from . import reference

__all__ = [
    # ff
    "Field", "FieldError", "InversionOfZero", "is_prime",
    # region
    "AliasedOperands", "Buffer", "CoeffRegion", "RestorationViolation", "Snapshot",
    "VirtualWrite", "poly_region", "snapshot", "split_blocks",
    # instrument
    "AllocGuard", "GuardViolation", "OpCounter", "Scope", "measure", "measure_call",
    # mulbase
    "LengthMismatch", "MulStrategy", "NonInvertibleLeading", "Schoolbook", "SingularDiagonal",
    "TargetTooShort", "acc_mul_full", "acc_mul_short", "default_strategy", "quad_rem",
    "quad_rem_overplace", "quad_tri_mul_overplace", "quad_tri_solve_overplace",
    # conv
    "BadParameter", "conv_acc", "short_acc",
    # toeplitz
    "CirculantView", "ToeplitzView", "banded_upper_mul_overplace",
    "banded_upper_solve_overplace", "circulant_acc", "rect_toeplitz_acc",
    "square_toeplitz_acc", "tri_toeplitz_mul_overplace", "tri_toeplitz_solve_overplace",
    # euclid
    "divmod_over_place", "divmod_over_place_inv", "remainder_acc",
    "remainder_blockwise", "remainder_in_place",
    # modmul
    "DegreeConstraint", "mulmod_acc", "mulmod_acc_full",
]
