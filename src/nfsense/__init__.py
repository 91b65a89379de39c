"""Range ambiguity functions and beamdepth metrics for near-field arrays."""

__version__ = "0.1.0"

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    GeometryKind,
    ProcessingMode,
    SensingSetup,
    build_array,
    build_uca,
    build_ula,
    build_upca,
    build_ura,
    fraunhofer_distance,
    mimo_setup,
    simo_miso_setup,
)
from .ambiguity import array_factor, normalized_power
from .closed_form import (
    af_argument,
    normalized_af_power,
    quadratic_mainlobe_coefficient,
    vergence_difference,
)
from .metrics import (
    GeometryMetrics,
    QuadraticGainAnalysis,
    beamdepth,
    compute_metrics,
    half_power_argument,
    half_power_coefficient,
    half_power_distances,
    mainlobe_edge,
    max_nearfield_range,
    peak_sidelobe_level,
    quadratic_gain_analysis,
)
from .specfun import bessel_j0, fresnel_c, fresnel_s, sinc

__all__ = [
    "SPEED_OF_LIGHT",
    "ArrayGeometry",
    "GeometryKind",
    "ProcessingMode",
    "SensingSetup",
    "GeometryMetrics",
    "QuadraticGainAnalysis",
    "array_factor",
    "af_argument",
    "beamdepth",
    "bessel_j0",
    "build_array",
    "build_uca",
    "build_ula",
    "build_upca",
    "build_ura",
    "compute_metrics",
    "fraunhofer_distance",
    "fresnel_c",
    "fresnel_s",
    "half_power_argument",
    "half_power_coefficient",
    "half_power_distances",
    "mainlobe_edge",
    "max_nearfield_range",
    "mimo_setup",
    "normalized_af_power",
    "normalized_power",
    "peak_sidelobe_level",
    "quadratic_gain_analysis",
    "quadratic_mainlobe_coefficient",
    "simo_miso_setup",
    "sinc",
    "vergence_difference",
]
