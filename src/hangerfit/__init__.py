"""hangerfit: loss and nonlinearity analysis for hanger-type resonators.

Fits complex S21 traces of side-coupled superconducting microwave
resonators with an asymmetric linear line shape, calibrates drive power to
intra-resonator photon number, fits the power dependence of the internal
loss with a saturable TLS model, and models/extracts Kerr and
two-photon-loss rates from the steady-state Duffing response.
"""

__version__ = "0.1.0"

from .calibration import (
    dbm_to_watts,
    input_photon_flux,
    mean_photon_number,
)
from .duffing import (
    BranchPolicy,
    eval_nonlinear_s21,
    extract_kerr_two_photon,
    fit_nonlinear,
    normalized_drive_params,
    photon_numbers,
    seed_nonlinear_guess,
    selected_photon_numbers,
)
from .errors import (
    BifurcationUnstableError,
    ConfigError,
    HangerFitError,
    InputMismatchError,
    InsufficientPowersError,
    InsufficientSpanError,
    InternalConsistencyError,
    LowSignalError,
    MalformedOptionLineError,
    MalformedRowError,
    MissingMetadataError,
    NonConvergenceError,
    NonMonotoneFrequencyError,
    NoResonanceError,
    ParameterError,
    SingularJacobianError,
    TraceParseError,
    UnsupportedFormatError,
)
from .linearfit import (
    FitReport,
    estimate_initial,
    fit_linear,
)
from .model import (
    FrequencyTrace,
    LinearParams,
    NonlinearParams,
    TlsParams,
    eval_linear_s21,
    loaded_linewidth,
    normalized_detuning,
    raw_qc,
)
from .synth import (
    linewidth_grid,
    synthesize_linear,
    synthesize_nonlinear,
    synthesize_power_sweep,
)
from .tls import eval_combined_loss, eval_tls_loss, fit_tls
from .traceio import (
    SweepManifest,
    parse_csv_trace,
    parse_manifest,
    parse_touchstone,
    read_report,
    write_csv_trace,
    write_manifest,
    write_plot_table,
    write_report,
)
