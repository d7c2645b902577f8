"""Integration of time-varying cocyclic one-forms against group-valued paths.

Truncated word/forest algebras, signatures, the sewing integrator, the
level-extension theorem and the dominated-path calculus, with brute-force
oracles and a CLI.
"""

from .algebra import GradedIndex, GradedTensor, HopfSystem, tensor_system
from .dominated import (
    DominatedPath,
    GroupEnhancement,
    compose,
    coordinate_coupling,
    enhance,
    iterated_integral,
    product,
    rebase,
    rough_integrate,
)
from .extension import extend_one_level, extend_to_level, lift_into_group
from .maps import (
    ProductTensor,
    double_integral,
    double_split_residual,
    iterated_integral_closed,
    iterated_integral_map,
    level_one_integral,
)
from .one_forms import (
    AlgebraTarget,
    BranchedRoughOneForm,
    CertificateError,
    FlatTarget,
    LevelRaisingForm,
    LipFunction,
    PolynomialCocyclicForm,
    RecenteredForm,
    RoughOneForm,
    TimeVaryingOneForm,
    TimeVaryingRoughOneForm,
    constant_form_from_alpha,
    identity_form,
    integrable_condition_check,
    slowly_varying_certificate,
)
from .paths import (
    Control,
    SampledGroupPath,
    chen_residual,
    control_from_pvar,
    p_variation,
    path_from_increments,
    signature_of_segment,
    signature_piecewise_linear,
    uniform_control,
    vector_p_variation,
)
from .sewing import SewingResult, refine_and_compare, sew

__version__ = "0.1.0"
