"""Oscillation/transient separation toolkit.

Simulates multichannel recordings where narrow-band gamma bursts coexist
with large sharp transients, separates the two by masked stationary wavelet
thresholding, maps normalized band energy across channels and time, and
models the arithmetic cost of running that chain on a small dataflow
pipeline, serially and with two parallel convolution units.
"""

from .backends import centered_conv, centered_conv_complex, circular_conv
from .despike import (
    NoDetectionError,
    RectMask,
    SeparationResult,
    build_mask,
    detect_oscillation_center,
    mask_geometry,
    mask_scales,
    separate,
    threshold_coeffs,
)
from .signal_core import (
    MultiChannelSignal,
    TimeWindow,
    ms_to_samples,
    oscillation_duration_ms,
)
from .simulate import (
    ChannelTruth,
    GroundTruth,
    OverlapRegime,
    SimConfig,
    build_realization,
    gen_colored_noise,
    gen_gamma_burst,
    gen_transient,
)
from .swt import (
    FilterPair,
    WaveletCoefficients,
    iswt_reconstruct,
    level_for_frequency,
    swt_decompose,
    wavelet_filters,
)
from .tfmap import (
    BuildupDetection,
    MorletParams,
    SpatioTemporalMap,
    bandpass,
    detect_buildup,
    envelope_smooth,
    map_row,
    morlet_kernel,
    morlet_transform,
    normalize_by_low_band,
    scale_for_frequency,
    scales_for_band,
    spatiotemporal_map,
)
from .tickmodel import (
    Stage,
    TickReport,
    benchmark_report,
    mapping_stages,
    run_mapping_pipeline,
    run_pipeline,
    separation_stages,
)

__version__ = "0.1.0"

__all__ = [
    "BuildupDetection",
    "ChannelTruth",
    "FilterPair",
    "GroundTruth",
    "MorletParams",
    "MultiChannelSignal",
    "NoDetectionError",
    "OverlapRegime",
    "RectMask",
    "SeparationResult",
    "SimConfig",
    "SpatioTemporalMap",
    "Stage",
    "TickReport",
    "TimeWindow",
    "WaveletCoefficients",
    "bandpass",
    "benchmark_report",
    "build_mask",
    "build_realization",
    "centered_conv",
    "centered_conv_complex",
    "circular_conv",
    "detect_buildup",
    "detect_oscillation_center",
    "envelope_smooth",
    "gen_colored_noise",
    "gen_gamma_burst",
    "gen_transient",
    "iswt_reconstruct",
    "level_for_frequency",
    "map_row",
    "mapping_stages",
    "mask_geometry",
    "mask_scales",
    "morlet_kernel",
    "morlet_transform",
    "ms_to_samples",
    "normalize_by_low_band",
    "oscillation_duration_ms",
    "run_mapping_pipeline",
    "run_pipeline",
    "scale_for_frequency",
    "scales_for_band",
    "separate",
    "separation_stages",
    "spatiotemporal_map",
    "swt_decompose",
    "threshold_coeffs",
    "wavelet_filters",
    "__version__",
]
