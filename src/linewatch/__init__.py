"""Streaming change detection for linear signals.

Monitors an incoming stream against a pre-change line fitted to
historical observations, using constant-time, constant-memory binned
CUSUM statistics that flag jumps (level shifts) and kinks (slope
changes) and tell the two apart.  Thresholds are tuned by Monte Carlo
simulation against false-alarm or average-run-length targets.
"""

from .calibration import (
    CalibrationResult,
    CalibrationSpec,
    MultiBinCalibration,
    NullMaxima,
    calibrate,
    calibrate_joint,
    calibrate_multi_bin,
    calibrate_single,
    simulate_null_maxima,
)
from .detector import (
    DetectionEvent,
    DetectorConfig,
    DetectorState,
    MultiBinResult,
    RunResult,
    StatSnapshot,
    load_state,
    multi_bin_run,
    run,
    save_state,
    theorem_scale_config,
)
from .errors import (
    CalibrationResolutionError,
    DegenerateScaleError,
    DetectorStoppedError,
    FileFormatError,
    InsufficientDataError,
    LinewatchError,
    SingularDesignError,
)
from .experiments import (
    MetricsReport,
    RatePoint,
    RateReport,
    RobustnessReport,
    RobustnessRow,
    RobustnessTemplate,
    Scenario,
    TypeStudyRow,
    estimate_arl,
    estimate_metrics,
    null_run_lengths,
    rate_check,
    robustness_study,
    type_discrimination_study,
)
from .prechange import KnownPrechange, PrechangeFit, fit_ols, standardize
from .signal import (
    ChangeKind,
    NoiseSpec,
    SignalParams,
    SyntheticSeries,
    change_index,
    eval_signal_array,
    generate_series,
    replication_seed,
)

__version__ = "0.1.0"
