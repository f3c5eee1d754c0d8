"""privdyn: hidden-state (last-iterate) Renyi DP accounting for noisy
mini-batch gradient descent, with composition baselines, noise calibration,
(eps, delta) conversion, and an exact 1-D Gaussian verification oracle."""

from .params import (
    AccountingError,
    AccountingParams,
    BatchCountTooSmall,
    NonDividingBatch,
    NonPositive,
    RdpPoint,
    StepsizeTooLarge,
    logistic_params,
    make_params,
    sigma_from_multiplier,
    validate,
    with_epochs,
    with_sigma,
)
from .dynamics import (
    HeadTail,
    IndexOutOfRange,
    bound_fixed,
    bound_naive_baseline,
    eps0_term,
)
from .sampling import (
    bound_samp_wo_replacement,
    bound_shuffle,
    samp_wo_limit,
)
from .baselines import (
    NonIntegerOrder,
    mixing_diffusion_first_batch,
    mixing_diffusion_last_batch,
    sgm_eps,
    sgm_rdp_per_step,
)
from .convert import (
    DEFAULT_ALPHA_GRID,
    DpGuarantee,
    EmptyInput,
    InvalidDelta,
    rdp_to_dp,
)
from .calibrate import (
    MAXED_OUT,
    BoundKind,
    MaxedOut,
    Unsatisfiable,
    bound_limit,
    calibrate_noise,
    converted_eps,
    evaluate_bound,
    max_epochs,
)
from .oracle import (
    DominanceViolated,
    OracleInstance,
    SensitivityViolated,
    exact_renyi,
    make_instance,
    verify_dominance,
)

__version__ = "1.0.0"
