"""Run configuration: one flat set of tunables, a plain-text format, and
the two dataset presets.

Config files are UTF-8 text with ``key = value`` lines; blank lines and
``#`` comments are ignored; later duplicates override earlier ones.
Unknown keys are rejected except the ``a_<class>`` family, which fills
the per-class sharpness map of the box loss.  ``dump_config`` emits every
key in canonical order with full-precision (``repr``) numbers so an
accepted configuration round-trips bit-exactly.

Presets bundle the BEV extents and resolutions of the two evaluation
settings: ``vod`` (51.2 m x 51.2 m at 320 x 320) and ``tj4d``
(69.12 m x 79.36 m at 432 x 496).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .aggregation import DEFAULT_MEM_CAP
from .boxloss import DEFAULT_A_PER_CLASS, BglConfig
from .errors import FormatError, InvalidSpec
from .pointcloud import BevRange
from .splat import RasterSettings


@dataclass
class RunConfig:
    """Every tunable of the toolkit with its default."""

    seed: int = 0
    r: float = 0.32
    c: int = 64
    n_heads: int = 1
    s_min: float = 1e-3
    mem_cap: int = DEFAULT_MEM_CAP
    x_min: float = 0.0
    x_max: float = 51.2
    y_min: float = -25.6
    y_max: float = 25.6
    h: int = 320
    w: int = 320
    z_min: float = -3.0
    z_max: float = 2.0
    alpha_max: float = 0.99
    alpha_min: float = 1.0 / 255.0
    t_min: float = 1e-4
    lambda_blur: float = 0.3
    tile_size: int = 16
    blend_order: str = "z-asc"
    lam: float = 1.0
    a_default: float = 1.0
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
        return BglConfig(
            a_per_class=dict(self.a_per_class), a_default=self.a_default, lam=self.lam
        )

    def validate(self) -> "RunConfig":
        """Range-check scalars and construct every sub-config once."""
        if not self.r > 0:
            raise InvalidSpec(f"r must be > 0, got {self.r}")
        if self.c < 1:
            raise InvalidSpec(f"c must be >= 1, got {self.c}")
        if self.n_heads < 1 or self.c % self.n_heads:
            raise InvalidSpec(f"n_heads {self.n_heads} must divide c {self.c}")
        if self.s_min < 0:
            raise InvalidSpec(f"s_min must be >= 0, got {self.s_min}")
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
        x_min=0.0, x_max=51.2, y_min=-25.6, y_max=25.6, h=320, w=320,
        z_min=-3.0, z_max=2.0,
    ),
    "tj4d": dict(
        x_min=0.0, x_max=69.12, y_min=-39.68, y_max=39.68, h=432, w=496,
        z_min=-4.0, z_max=2.0,
    ),
}

# Config keys are field names except ``lambda`` (the field is ``lam``;
# ``lambda`` is a Python keyword) and the expanded ``a_<class>`` family.
_KEY_TO_FIELD = {
    **{f.name: f.name for f in dataclasses.fields(RunConfig) if f.name not in ("lam", "a_per_class")},
    "lambda": "lam",
}
_INT_FIELDS = {"seed", "c", "n_heads", "mem_cap", "h", "w", "tile_size"}
_STR_FIELDS = {"blend_order"}


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


def _coerce(key: str, field_name: str, value: str):
    try:
        if field_name in _INT_FIELDS:
            return int(value)
        if field_name in _STR_FIELDS:
            return value
        return float(value)
    except ValueError:
        raise InvalidSpec(f"config key {key!r}: bad value {value!r}") from None


def apply_updates(cfg: RunConfig, raw: dict) -> RunConfig:
    """Return a copy of ``cfg`` with the raw string map applied on top."""
    updates = {}
    per_class = dict(cfg.a_per_class)
    for key, value in raw.items():
        if key in _KEY_TO_FIELD:
            name = _KEY_TO_FIELD[key]
            updates[name] = _coerce(key, name, value)
        elif key.startswith("a_") and len(key) > 2:
            per_class[key[2:]] = _coerce(key, key, value)
        else:
            raise InvalidSpec(f"unknown config key {key!r}")
    return dataclasses.replace(cfg, a_per_class=per_class, **updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    """Read a config file on top of ``base`` (or the defaults)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return apply_updates(base or RunConfig(), raw)


def apply_preset(cfg: RunConfig, name: str) -> RunConfig:
    if name not in PRESETS:
        raise InvalidSpec(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return dataclasses.replace(cfg, **PRESETS[name])


def _format_value(v) -> str:
    return v if isinstance(v, str) else repr(v)


def dump_config(cfg: RunConfig) -> str:
    """Canonical full-precision text form; parsing it back is the identity."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        if f.name == "a_per_class":
            continue
        key = "lambda" if f.name == "lam" else f.name
        lines.append(f"{key} = {_format_value(getattr(cfg, f.name))}")
    for cls in sorted(cfg.a_per_class):
        lines.append(f"a_{cls} = {_format_value(cfg.a_per_class[cls])}")
    return "\n".join(lines) + "\n"
