"""Run-time configurable multi-standard packet detector golden model.

Pipeline stages: sliding-window energy gate -> optional delay-and-correlate
coarse stage -> sign-quantized fine cross-correlators (one per standard) ->
arbitration.  A Monte-Carlo harness estimates detection probability over
SNR sweeps.
"""

from .coarse import (
    CoarseConfig,
    CoarseOutput,
    coarse_trigger,
    detect_coarse,
    schmidl_cox_correlations,
    schmidl_cox_metric,
)
from .correlator import (
    CoefficientBank,
    CorrelatorOutput,
    SignCorrelator,
    dump_bank,
    latch_enable,
    load_coefficients,
    parse_bank,
)
from .energy import EnergyConfig, EnergyDetector, enable_array
from .harness import (
    ScopeResult,
    SweepConfig,
    SweepResult,
    SweepRow,
    TrialOutcome,
    default_sweep_config,
    run_scope_scenario,
    run_sweep,
    run_trial,
    scenario_profiles,
    synthesize,
)
from .iqfile import read_iq, write_iq
from .signal import (
    FixedPointFormat,
    Preamble,
    Q1_15,
    SampleStream,
    add_awgn,
    embed_preamble,
    pn_preamble,
    quantize,
)
from .standards import (
    Candidate,
    ConfigurationError,
    DetectionEvent,
    DetectorBank,
    RegisterMap,
    StandardProfile,
    arbitrate,
    build_register_map,
    run_detector_bank,
)

__version__ = "0.1.0"
