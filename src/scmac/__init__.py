"""scmac: a stochastic-computing MAC engine and memory-system simulator.

Bit-accurate models of two datapaths around the same N-input
multiply-accumulate kernel: a conventional stochastic pipeline
(ADC -> binary SRAM -> LFSR stream conversion -> AND/MUX logic -> counter)
and a mixed-signal one (thermometer-coded analog-to-stochastic conversion
-> digital SRAM -> charge-sharing capacitor array), plus an activity-based
energy model comparing the two.
"""

from .bitstream import (
    Bitstream,
    inject_bitflips,
    mux_add,
    mux_tree_accumulate,
    mux_tree_scale,
    sc_mul,
    value,
)
from .config import ExperimentConfig, config_from_dict, default_config, load_config
from .converters import (
    AscActivity,
    RefLadder,
    ThermometerCode,
    adc_quantize,
    adc_quantize_flagged,
    asc_encode,
    bsc_encode,
    ref_ladder,
    sbc_decode,
    thermometer_quantize,
)
from .distributions import Explicit, InputDistribution, Uniform, ZeroPeakedGaussian
from .energy import (
    ActivityLog,
    EnergyReport,
    EnergyTable,
    accumulate,
    calibrated_activity,
    default_tables,
    efficiency,
    expected_enabled_sas,
    fom,
    gating_energy_saving,
    naive_activity,
    reduction_percent,
)
from .errors import (
    ConfigError,
    ConversionError,
    EnergyModelError,
    LengthMismatchError,
    MacError,
    ScmacError,
    SizeMismatchError,
    StreamError,
)
from .lfsr import Lfsr, default_lfsr, lfsr_next
from .mac import (
    MacConfig,
    MacInputs,
    ProductCounts,
    SignedStochNumber,
    charge_oracle,
    charge_share,
    count_products,
    decode_voltage,
    mac_evaluate,
    phase1_voltages,
)
from .pipelines import (
    ComparisonResult,
    ExperimentResult,
    PipelineConfig,
    conventional_pipeline,
    exact_oracle,
    proposed_pipeline,
    run_comparison,
    run_comparisons,
)

__version__ = "0.1.0"
