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
"""

import types

from .aggregation import (
    AttentionBlock,
    GaussianPrimitive3D,
    LayerNormParams,
    LinearLayer,
    NeighborIndex,
    PgeParams,
    build_neighbor_index,
    gfa,
    init_weights,
    lfa_broadcast_mask,
    lfa_index_scatter,
    lfa_traversal,
    load_weights,
    predict_attributes,
    save_weights,
)
from .bench import BenchReport, BenchRow, run_bench
from .boxloss import (
    BglConfig,
    Box3D,
    GaussianDistribution3D,
    KlComponents,
    bgl,
    bgl_gradient,
    box_to_gaussian,
    fd_gradient,
    kl_divergence,
    read_boxes,
    write_boxes,
)
from .config import (
    PRESETS,
    RunConfig,
    apply_preset,
    apply_updates,
    dump_config,
    load_config,
    parse_config_text,
)
from .errors import (
    AllocationLimit,
    DegenerateQuaternion,
    EmptyBatch,
    FormatError,
    InvalidSpec,
    LengthMismatch,
    NonPositiveScale,
    RgkError,
    ShapeMismatch,
    SingularCovariance,
    SingularMatrix,
)
from .pointcloud import (
    BevRange,
    PointCloud,
    SceneSpec,
    generate_scene,
    read_cloud,
    write_cloud,
)
from .rng import SplitMix64, fnv1a64, mix64, stream_seed
from .selftest import run_selftest
from .splat import (
    BevFeatureMap,
    RasterSettings,
    Splat2D,
    encode,
    nonzero_pixels,
    pillar_scatter,
    project_to_bev,
    rasterize,
    rasterize_oracle,
    read_feature_map,
    write_feature_map,
    write_pgm,
)

__version__ = "0.1.0"

#: every public name imported above; the subpackage modules stay out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
) + ["__version__"]
