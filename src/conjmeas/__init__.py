"""Simulation of Kraus measurements, reversing and Hermitian-conjugate
second stages, and the fidelity/information-gain trade-off they realize."""

__version__ = "0.1.0"

from .ensemble import (
    PureStateEnsemble,
    SpinMoments,
    sample_haar,
    spin_moments_closed_form,
    spin_z,
)
from .linalg import (
    polar_decompose,
    positive_sqrt,
)
from .measurement import (
    KrausSet,
    completeness_residual,
    outcome_distribution,
    sample_outcome,
)
from .metrics import (
    StageStatistics,
    likelihood_info_gain,
    optimal_fidelity,
    stage_statistics,
    two_stage_statistics,
)
from .reversal import (
    SecondStageSpec,
    build_conjugate_minimal,
    build_reversing,
    conditional_success_probability,
    conjugate_preferred_closed_form,
)
from .runner import (
    ExperimentConfig,
    run_figures,
    run_summary,
    run_sweep,
    run_variances,
)
from .spin_probe import (
    SpinProbeConfig,
    build_forward,
    build_reversing_probe,
    coefficient,
    conjugate_probe_set,
    regime_diagnostics,
)
