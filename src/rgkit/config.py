"""Run configuration: every settings type and default of the toolkit, one
flat set of tunables, a plain-text format, and the two dataset presets.

This module is the settings leaf: it imports only :mod:`rgkit.errors` and
the standard library, so reading, merging and validating a configuration
loads none of the kernels.  The kernel modules take their settings types
(:class:`BevRange`, :class:`RasterSettings`, :class:`BglConfig`) and
defaults from here.

Config files are UTF-8 text with ``key = value`` lines; blank lines and
``#`` comments are ignored; later duplicates override earlier ones.
The keys are the scalar field names of :class:`RunConfig`, each parsed
with its field's type, plus the ``a_<class>`` family (floats), which
fills the per-class sharpness map of the box loss; other keys are
rejected, and so is a class name that a config line could not hold (one
with ``=``, a line break, surrounding blanks or a character UTF-8 cannot
encode).  ``dump_config`` emits every key in canonical order with
full-precision (``repr``) numbers so an accepted configuration
round-trips bit-exactly.

Presets bundle the BEV extents and resolutions of the two evaluation
settings: ``vod`` (51.2 m x 51.2 m at 320 x 320) and ``tj4d``
(69.12 m x 79.36 m at 432 x 496).
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

from .errors import FormatError, InvalidSpec

#: Neighborhood radius (meters) of the local aggregation.
DEFAULT_RADIUS = 0.32
#: Feature dimension of the encoder.
DEFAULT_DIM = 64
#: Additive floor applied to softplus scale outputs (meters).
SCALE_FLOOR = 1e-3
#: Default cap (bytes) on the transient buffers: the dense broadcast buffers,
#: the neighbour pairs, the attention score blocks, binning's (splat, tile)
#: candidates and the per-pixel blend buffers.
DEFAULT_MEM_CAP = 1 << 30
#: Height range (meters) of synthetic scenes.
DEFAULT_Z_MIN = -3.0
DEFAULT_Z_MAX = 2.0

#: Orders the rasterizer can composite splats in (ties by source index).
BLEND_ORDERS = ("z-asc", "z-desc", "index")

#: Per-class sharpness defaults: small, deformable classes keep the full
#: box extent (a=1); large rigid classes concentrate mass (a=3).
DEFAULT_A_PER_CLASS = {"pedestrian": 1.0, "cyclist": 1.0, "car": 3.0, "truck": 3.0}


def check_radius(r: float) -> None:
    """Every search compares squared distances with ``r * r``: it must be > 0 and finite."""
    if not (r > 0 and 0 < r * r < math.inf):
        raise InvalidSpec(f"neighborhood radius must be > 0 with a finite nonzero square, got {r}")


def check_scale_floor(s_min: float) -> None:
    """The floor is added to every softplus scale: it must be finite and >= 0."""
    if not (math.isfinite(s_min) and s_min >= 0):
        raise InvalidSpec(f"s_min must be finite and >= 0, got {s_min}")


@dataclass(frozen=True)
class BevRange:
    """Ground-plane extent in meters plus its pixel resolution.

    ``w`` counts columns and spans the x axis; ``h`` counts rows and spans
    the y axis.  Values exactly on the boundary are considered inside.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    h: int
    w: int

    def __post_init__(self) -> None:
        extents = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(math.isfinite(v) for v in extents):
            raise InvalidSpec(f"BEV extents must be finite, got {extents}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise InvalidSpec(f"BEV extents must have positive span, got {extents}")
        if not (math.isfinite(self.x_max - self.x_min) and math.isfinite(self.y_max - self.y_min)):
            raise InvalidSpec(f"BEV extents must have a finite span, got {extents}")
        if self.h < 1 or self.w < 1:
            raise InvalidSpec(f"BEV resolution must be >= 1, got h={self.h}, w={self.w}")

    @property
    def px_per_m_x(self) -> float:
        """Columns per meter along x."""
        return self.w / (self.x_max - self.x_min)

    @property
    def px_per_m_y(self) -> float:
        """Rows per meter along y."""
        return self.h / (self.y_max - self.y_min)


#: Default desk-scale extent: 51.2 m x 51.2 m at 0.16 m per pixel.
DEFAULT_RANGE = BevRange(x_min=0.0, x_max=51.2, y_min=-25.6, y_max=25.6, h=320, w=320)


@dataclass(frozen=True)
class RasterSettings:
    """Thresholds, blur and blend order of the rasterizer; tiles are a fixed 16 px."""

    alpha_max: float = 0.99
    alpha_min: float = 1.0 / 255.0
    t_min: float = 1e-4
    lambda_blur: float = 0.3
    blend_order: str = "z-asc"
    tile_size: typing.ClassVar[int] = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_max <= 1.0:
            raise InvalidSpec(f"alpha_max must be in (0, 1], got {self.alpha_max}")
        if not 0.0 < self.alpha_min < 1.0:
            raise InvalidSpec(f"alpha_min must be in (0, 1) so footprints are finite, "
                              f"got {self.alpha_min}")
        if self.alpha_min > self.alpha_max:  # every clamped alpha would be skipped
            raise InvalidSpec(f"alpha_min must be <= alpha_max, got {self.alpha_min}")
        if not (math.isfinite(self.lambda_blur) and self.lambda_blur >= 0):
            raise InvalidSpec(f"lambda_blur must be finite and >= 0, got {self.lambda_blur}")
        if not (math.isfinite(self.t_min) and self.t_min < 1.0):
            raise InvalidSpec(f"t_min must be finite and < 1 (<= 0 disables), got {self.t_min}")
        if self.blend_order not in BLEND_ORDERS:
            raise InvalidSpec(
                f"blend_order must be one of {BLEND_ORDERS}, got {self.blend_order!r}"
            )


@dataclass(frozen=True)
class BglConfig:
    """Loss configuration: the sharpness ``a`` per class and the fallback
    ``a`` for unlisted or unlabelled boxes."""

    a_per_class: dict
    a_default: float = 1.0

    def __post_init__(self) -> None:
        bad = {k: v for k, v in self.a_per_class.items() if not 0 < v < math.inf}
        if bad or not 0 < self.a_default < math.inf:
            raise InvalidSpec(f"every a must be finite and > 0, got {bad or self.a_default}")

    def a_for(self, cls: str | None) -> float:
        if cls is None:
            return self.a_default
        return self.a_per_class.get(cls, self.a_default)


@dataclass
class RunConfig:
    """Every tunable of the toolkit with its default."""

    seed: int = 0
    r: float = DEFAULT_RADIUS
    c: int = DEFAULT_DIM
    n_heads: int = 1
    s_min: float = SCALE_FLOOR
    mem_cap: int = DEFAULT_MEM_CAP
    x_min: float = DEFAULT_RANGE.x_min
    x_max: float = DEFAULT_RANGE.x_max
    y_min: float = DEFAULT_RANGE.y_min
    y_max: float = DEFAULT_RANGE.y_max
    h: int = DEFAULT_RANGE.h
    w: int = DEFAULT_RANGE.w
    z_min: float = DEFAULT_Z_MIN
    z_max: float = DEFAULT_Z_MAX
    alpha_max: float = RasterSettings.alpha_max
    alpha_min: float = RasterSettings.alpha_min
    t_min: float = RasterSettings.t_min
    lambda_blur: float = RasterSettings.lambda_blur
    blend_order: str = RasterSettings.blend_order
    a_default: float = BglConfig.a_default
    a_per_class: dict = field(default_factory=lambda: dict(DEFAULT_A_PER_CLASS))

    def _view(self, kind):
        """A ``kind`` settings object built from this config's fields of the same names."""
        return kind(**{f.name: getattr(self, f.name) for f in dataclasses.fields(kind)})

    def bev(self) -> BevRange:
        return self._view(BevRange)

    def raster_settings(self) -> RasterSettings:
        return self._view(RasterSettings)

    def bgl_config(self) -> BglConfig:
        return BglConfig(a_per_class=dict(self.a_per_class), a_default=self.a_default)

    def validate(self) -> "RunConfig":
        """Range-check scalars and construct every sub-config once."""
        check_radius(self.r)
        if self.c < 1:
            raise InvalidSpec(f"c must be >= 1, got {self.c}")
        if self.n_heads < 1 or self.c % self.n_heads:
            raise InvalidSpec(f"n_heads {self.n_heads} must divide c {self.c}")
        check_scale_floor(self.s_min)
        if self.mem_cap < 0:
            raise InvalidSpec(f"mem_cap must be >= 0, got {self.mem_cap}")
        if not self.z_max > self.z_min:
            raise InvalidSpec(f"need z_max > z_min, got [{self.z_min}, {self.z_max}]")
        self.bev()
        self.raster_settings()
        self.bgl_config()
        return self


#: BEV extent + resolution bundles for the two evaluation settings.
PRESETS = {
    "vod": dict(
        dataclasses.asdict(DEFAULT_RANGE), z_min=DEFAULT_Z_MIN, z_max=DEFAULT_Z_MAX
    ),
    "tj4d": dict(
        x_min=0.0, x_max=69.12, y_min=-39.68, y_max=39.68, h=432, w=496,
        z_min=-4.0, z_max=2.0,
    ),
}

#: Scalar config keys in canonical order, each with its field's type,
#: which also parses its value; ``a_per_class`` is set by ``a_<class>`` keys.
_KEY_TYPES = {
    name: kind for name, kind in typing.get_type_hints(RunConfig).items() if kind is not dict
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a raw string map."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _coerce(key: str, kind: type, value: str):
    try:
        return kind(value)
    except ValueError:
        raise InvalidSpec(f"config key {key!r}: bad value {value!r}") from None


def _one_field(text: str, sep: str) -> bool:
    """Whether ``text`` reads back from a UTF-8 line split at ``sep`` and stripped:
    no ``sep``, line break, surrounding blank or surrogate (UTF-8 has none)."""
    return (text == text.strip() and sep not in text and len(text.splitlines()) <= 1
            and not any("\ud800" <= ch <= "\udfff" for ch in text))


def _class_name(key: str) -> str:
    """The class of an ``a_<class>`` key, if ``dump_config`` can write it
    back as one UTF-8 config line that parses to the same key."""
    cls = key[2:]
    if not _one_field(cls, "="):
        raise InvalidSpec(f"config key {key!r}: a class name must be one line of UTF-8 text "
                          "without '=' or surrounding blanks")
    return cls


def apply_updates(cfg: RunConfig, raw: dict) -> RunConfig:
    """Return a copy of ``cfg`` with the raw string map applied on top."""
    updates = {}
    per_class = dict(cfg.a_per_class)
    for key, value in raw.items():
        if key in _KEY_TYPES:
            updates[key] = _coerce(key, _KEY_TYPES[key], value)
        elif key.startswith("a_") and len(key) > 2:
            per_class[_class_name(key)] = _coerce(key, float, value)
        else:
            raise InvalidSpec(f"unknown config key {key!r}")
    return dataclasses.replace(cfg, a_per_class=per_class, **updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    """Read a config file on top of ``base`` (or the defaults)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"config file is not UTF-8 text: {exc}") from None
    return apply_updates(base or RunConfig(), parse_config_text(text))


def apply_preset(cfg: RunConfig, name: str) -> RunConfig:
    if name not in PRESETS:
        raise InvalidSpec(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return dataclasses.replace(cfg, **PRESETS[name])


def _format_value(v) -> str:
    return v if isinstance(v, str) else repr(v)


def dump_config(cfg: RunConfig) -> str:
    """Canonical full-precision text form; parsing it back is the identity."""
    lines = [f"{key} = {_format_value(getattr(cfg, key))}" for key in _KEY_TYPES]
    for cls in sorted(cfg.a_per_class):
        lines.append(f"a_{cls} = {_format_value(cfg.a_per_class[cls])}")
    return "\n".join(lines) + "\n"
