"""Bivariate tensor means for even-order Hermitian tensors.

Library layout:

- :mod:`tmlab.core` -- Hermitian tensor algebra on the square unfolding
  (Einstein product, spectral calculus, gauge norms, Loewner comparison).
- :mod:`tmlab.functions` -- scalar connection functions with class tags,
  lifts, transposes, numeric inversion, power-scaling certificates.
- :mod:`tmlab.means` -- PD means, the lifted-generator recursion, and the
  PSD extension through the range-compatible quotient.
- :mod:`tmlab.bounds` -- Kantorovich constants, dyadic spectral-ratio
  factors, trace tail bounds, Ky Fan statistics.
- :mod:`tmlab.lie_trotter` -- tensor exp/log and the product-formula limit.
- :mod:`tmlab.data_processing` -- fusion and linear-transform inequalities.
- :mod:`tmlab.harness` -- seeded ensembles and Monte Carlo verification
  suites; :mod:`tmlab.cli` exposes them as the ``tmlab`` command.
"""

from .core import (
    FROBENIUS,
    SPECTRAL,
    TRACE,
    GaugeNormKind,
    HermitianTensor,
    LoewnerVerdict,
    Relation,
    SpectralDecomposition,
    TensorShape,
    apply_spectral,
    einstein_product,
    fold,
    gauge_norm,
    ky_fan,
    load_tensor,
    loewner_compare,
    range_projector,
    save_tensor,
    spectral_decompose,
    spectral_power,
    unfold,
)
from .functions import (
    ConnectionFunction,
    PmiCertificate,
    UnsupportedFunctionError,
    ando_hiai_g,
    check_pmd,
    check_pmi,
    derivative_at_one,
    from_id,
    geometric,
    harmonic_like,
    identity,
    invert_fn,
    power,
    power_exponent,
    power_lift,
    psi,
    square,
    transpose_fn,
)
from .means import (
    DominationError,
    EtaResult,
    RttDiagnostic,
    epsilon_mean_limit,
    eta,
    mean_pd,
    mean_psd,
    mean_recursive,
)
from .bounds import (
    BoundFactors,
    dyadic_decompose,
    kantorovich,
    kk_factors,
    kyfan_stats,
    phi_factors,
    prop310_factors,
    psi_factors,
    trace_tail_bound,
)
from .lie_trotter import (
    ConvergenceStudy,
    PremiseError,
    convergence_study,
    lt_expression,
    lt_limit,
    lt_ordering_check,
    tensor_exp,
    tensor_log,
)
from .data_processing import (
    DominationPair,
    PositiveLinearMap,
    apply_map,
    congruence,
    convex_combination,
    fusion_gap,
    mean_on_pair,
    pinching,
    transform_gap,
)

__version__ = "0.1.0"
