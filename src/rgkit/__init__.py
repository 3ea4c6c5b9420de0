"""Radar Gaussian splatting toolkit.

Turns sparse radar point clouds into dense bird's-eye-view feature maps
by aggregating per-point features (local neighborhood averaging plus
global self-attention), predicting one 3D Gaussian primitive per point,
and alpha-blending the projected Gaussians into a pixel grid.  A
companion loss measures box regression quality as the KL divergence
between Gaussians fitted to predicted and ground-truth boxes, with
analytic gradients.

Every entry point is deterministic: scenes, weights, and rasterized maps
are bit-reproducible across runs.

Importing the package loads NumPy and none of its own modules: each
public name below is looked up in its defining module on first access
(PEP 562), which imports that module and its dependencies only, so a
loss-only process never loads the encoder.
"""

import importlib

# every kernel runs on NumPy: its import belongs to the package's, not to
# whichever first call needs it
import numpy as _numpy

__version__ = "0.1.0"

#: defining module -> the public names the package exports from it
_EXPORTS = {
    "aggregation": (
        "AttentionBlock", "GaussianPrimitive3D", "LayerNormParams", "LinearLayer",
        "NeighborIndex", "PgeParams", "build_neighbor_index", "gfa", "init_weights",
        "lfa_broadcast_mask", "lfa_index_scatter", "lfa_traversal", "load_weights",
        "predict_attributes", "save_weights",
    ),
    "bench": ("BenchReport", "BenchRow", "run_bench"),
    "boxloss": (
        "Box3D", "GaussianDistribution3D", "KlComponents", "bgl", "bgl_gradient",
        "box_to_gaussian", "fd_gradient", "kl_divergence", "read_boxes", "write_boxes",
    ),
    "config": (
        "PRESETS", "BevRange", "BglConfig", "RasterSettings", "RunConfig", "apply_preset",
        "apply_updates", "dump_config", "load_config", "parse_config_text",
    ),
    "errors": (
        "AllocationLimit", "DegenerateQuaternion", "EmptyBatch", "FormatError", "InvalidSpec",
        "LengthMismatch", "NonPositiveScale", "RgkError", "ShapeMismatch",
        "SingularCovariance", "SingularMatrix",
    ),
    "pointcloud": ("PointCloud", "SceneSpec", "generate_scene", "read_cloud", "write_cloud"),
    "rng": ("SplitMix64", "fnv1a64", "mix64", "stream_seed"),
    "selftest": ("run_selftest",),
    "splat": (
        "BevFeatureMap", "Splat2D", "encode", "nonzero_pixels", "pillar_scatter",
        "project_to_bev", "rasterize", "rasterize_oracle", "read_feature_map",
        "write_feature_map", "write_pgm",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    """Import the module that defines ``name`` and cache the value here, so
    later lookups are plain attribute reads."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
