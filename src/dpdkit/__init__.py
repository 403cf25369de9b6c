"""dpdkit: digital predistortion toolkit.

Memory-polynomial and small dense neural-network predistorters, a simulated
power amplifier to linearize, ACLR/EVM/complexity metrics, 16-bit fixed-point
inference emulation, and a sweep harness with a CLI.
"""

from .errors import (
    AlignmentError,
    ConditioningError,
    ConfigurationError,
    DivergenceError,
    DpdError,
    FormatError,
    FramingError,
    InputRangeError,
    MetricError,
)
from .mempoly import (
    MemoryPolyModel,
    PolyShape,
    fit_ila,
    load_poly_model,
    poly_predistort,
    rescale_cascade_gain,
    save_poly_model,
)
from .complexity import (
    ComplexityReport,
    nn_count,
    parse_descriptor,
    poly_count,
)
from .fixedpoint import (
    FixedFormat,
    FixedPointStats,
    nn_forward_fixed,
    poly_forward_fixed,
    quantize,
)
from .harness import (
    DEFAULT_SWEEP,
    DpdReport,
    ExperimentSpec,
    descriptor_slug,
    emit_psd_overlay,
    run_sweep,
)
from .metrics import PsdEstimate, aclr_db_gated, evm_percent, psd_welch
from .nn import (
    DenseNet,
    glorot_net,
    load_net,
    nn_backward,
    nn_backward_through_frozen,
    nn_forward,
    save_net,
)
from .ofdm import OfdmConfig, SymbolGrid, demodulate_ofdm, generate_ofdm
from .pa import SimulatedPa, load_default_pa, load_pa_profile, save_pa_profile
from .signals import IqSignal, estimate_gain, papr_db, read_signal_csv, write_signal_csv
from .training import (
    DEFAULT_PA_MODEL_SHAPE,
    AdamState,
    TrainConfig,
    TrainLog,
    TrainRecord,
    adam_step,
    run_full_training,
    train_dpd_nn,
    train_pa_nn,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AlignmentError",
    "ComplexityReport",
    "ConditioningError",
    "ConfigurationError",
    "DEFAULT_PA_MODEL_SHAPE",
    "DEFAULT_SWEEP",
    "DenseNet",
    "DivergenceError",
    "DpdError",
    "DpdReport",
    "ExperimentSpec",
    "FixedFormat",
    "FixedPointStats",
    "FormatError",
    "FramingError",
    "InputRangeError",
    "IqSignal",
    "MemoryPolyModel",
    "MetricError",
    "OfdmConfig",
    "PolyShape",
    "PsdEstimate",
    "SimulatedPa",
    "SymbolGrid",
    "TrainConfig",
    "TrainLog",
    "TrainRecord",
    "aclr_db_gated",
    "adam_step",
    "demodulate_ofdm",
    "descriptor_slug",
    "emit_psd_overlay",
    "estimate_gain",
    "evm_percent",
    "fit_ila",
    "generate_ofdm",
    "glorot_net",
    "load_default_pa",
    "load_net",
    "load_pa_profile",
    "load_poly_model",
    "nn_backward",
    "nn_backward_through_frozen",
    "nn_count",
    "nn_forward",
    "nn_forward_fixed",
    "papr_db",
    "parse_descriptor",
    "poly_count",
    "poly_forward_fixed",
    "poly_predistort",
    "psd_welch",
    "quantize",
    "read_signal_csv",
    "rescale_cascade_gain",
    "run_full_training",
    "run_sweep",
    "save_net",
    "save_pa_profile",
    "save_poly_model",
    "train_dpd_nn",
    "train_pa_nn",
    "write_signal_csv",
    "__version__",
]
