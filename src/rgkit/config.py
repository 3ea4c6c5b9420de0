"""Run configuration: one flat set of tunables, a plain-text format, and
the two dataset presets.

Config files are UTF-8 text with ``key = value`` lines; blank lines and
``#`` comments are ignored; later duplicates override earlier ones.
The keys are the scalar field names of :class:`RunConfig`, each parsed
with its field's type, plus the ``a_<class>`` family (floats), which
fills the per-class sharpness map of the box loss; other keys are
rejected.  ``dump_config`` emits every key in canonical order with
full-precision (``repr``) numbers so an accepted configuration
round-trips bit-exactly.

Presets bundle the BEV extents and resolutions of the two evaluation
settings: ``vod`` (51.2 m x 51.2 m at 320 x 320) and ``tj4d``
(69.12 m x 79.36 m at 432 x 496).
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field

from .aggregation import (DEFAULT_DIM, DEFAULT_MEM_CAP, DEFAULT_RADIUS, SCALE_FLOOR, check_radius,
                          check_scale_floor)
from .boxloss import DEFAULT_A_PER_CLASS, BglConfig
from .errors import FormatError, InvalidSpec
from .pointcloud import DEFAULT_RANGE, BevRange, SceneSpec
from .splat import RasterSettings


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
    z_min: float = SceneSpec.z_min
    z_max: float = SceneSpec.z_max
    alpha_max: float = RasterSettings.alpha_max
    alpha_min: float = RasterSettings.alpha_min
    t_min: float = RasterSettings.t_min
    lambda_blur: float = RasterSettings.lambda_blur
    tile_size: int = RasterSettings.tile_size
    blend_order: str = RasterSettings.blend_order
    a_default: float = BglConfig.a_default
    a_per_class: dict = field(default_factory=lambda: dict(DEFAULT_A_PER_CLASS))

    def bev(self) -> BevRange:
        return BevRange(self.x_min, self.x_max, self.y_min, self.y_max, self.h, self.w)

    def raster_settings(self) -> RasterSettings:
        return RasterSettings(
            alpha_max=self.alpha_max,
            alpha_min=self.alpha_min,
            t_min=self.t_min,
            lambda_blur=self.lambda_blur,
            tile_size=self.tile_size,
            blend_order=self.blend_order,
        )

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
        dataclasses.asdict(DEFAULT_RANGE), z_min=SceneSpec.z_min, z_max=SceneSpec.z_max
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


def apply_updates(cfg: RunConfig, raw: dict) -> RunConfig:
    """Return a copy of ``cfg`` with the raw string map applied on top."""
    updates = {}
    per_class = dict(cfg.a_per_class)
    for key, value in raw.items():
        if key in _KEY_TYPES:
            updates[key] = _coerce(key, _KEY_TYPES[key], value)
        elif key.startswith("a_") and len(key) > 2:
            per_class[key[2:]] = _coerce(key, float, value)
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
