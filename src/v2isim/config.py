"""Scenario configuration: defaults, JSON ingestion, validation.

All physical quantities carry explicit unit suffixes in their key names
(_db, _dbm, _hz, _bps, _km2, _m) so a config file can never be ambiguous
about units. A ScenarioConfig checks itself when it is built, on every
path (JSON, keyword arguments, ``dataclasses.replace``), so the layers
that read one trust its values. The schema is the dataclasses' fields,
walked twice: ``config_from_dict`` lays a JSON document's objects over the
defaults and turns its arrays into tuples, and the constructor gives every
value its field's type, rejecting a non-finite float, before the range
checks of ``validate_config``. The echo is ``dataclasses.asdict``.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
import types
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from enum import Enum
from typing import Any, Union, get_args, get_origin, get_type_hints


class Policy(Enum):
    """The attachment rules, in the order that seeds runs and sorts rows."""

    MS = "MS"
    MR = "MR"
    RA = "RA"


POLICY_NAMES = tuple(p.value for p in Policy)
N_CLASSES = 4
VN_MODES = ("PER_MMW_BS", "FIXED")

DEFAULT_MMW_DENSITY_GRID = tuple(float(x) for x in range(4, 84, 4))


class ConfigError(ValueError):
    """Malformed configuration document or invariant violation."""


@dataclass(frozen=True)
class TierRadio:
    """Radio parameters of one base-station tier."""

    tx_power_dbm: float
    bandwidth_hz: float
    carrier_hz: float
    array_elements: int


@dataclass(frozen=True)
class ChannelParams:
    """Channel model knobs: noise, geometry heights, antenna arrays and the
    path-loss coefficients for both tiers (all overridable so golden values
    can be pinned)."""

    noise_psd_dbm_per_hz: float = -174.0
    bs_height_m: float = 30.0
    vn_height_m: float = 2.0
    min_distance_m: float = 1.0
    vn_array_elements: int = 16
    # test hook: when set, every link uses this LOS probability
    los_probability_override: float | None = None
    lte: TierRadio = field(
        default_factory=lambda: TierRadio(46.0, 20e6, 2.4e9, 1)
    )
    mmw: TierRadio = field(
        default_factory=lambda: TierRadio(27.0, 1e9, 28e9, 64)
    )
    # LTE path loss, dB, distance in km
    lte_pl_los_intercept_db: float = 103.4
    lte_pl_los_distance_slope_db: float = 24.2
    lte_pl_nlos_intercept_db: float = 131.1
    lte_pl_nlos_distance_slope_db: float = 42.8
    # mmWave path loss, dB, distance in m, frequency in GHz
    mmw_pl_los_intercept_db: float = 32.4
    mmw_pl_los_distance_slope_db: float = 21.0
    mmw_pl_los_frequency_slope_db: float = 20.0
    mmw_pl_nlos_intercept_db: float = 22.4
    mmw_pl_nlos_distance_slope_db: float = 35.3
    mmw_pl_nlos_frequency_slope_db: float = 21.3
    mmw_pl_nlos_height_slope_db: float = 0.3


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a simulation campaign; building one raises
    ConfigError naming the key of the first invalid value."""

    area_km2: float = 1.0
    lte_density_per_km2: float = 4.0
    mmw_density_grid_per_km2: tuple[float, ...] = DEFAULT_MMW_DENSITY_GRID
    policies: tuple[str, ...] = POLICY_NAMES
    vn_mode: str = "PER_MMW_BS"
    vns_per_mmw_bs: float = 10.0
    fixed_vn_count: int = 500
    n_sim: int = 2000
    master_seed: int = 1
    snr_threshold_db: float = -5.0
    class_requirements_bps: tuple[float, float, float, float] = (1e6, 10e6, 100e6, 1200e6)
    class_probabilities: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    # x_min, x_max, y_min, y_max in meters; None -> central half-side square
    measurement_region_m: tuple[float, float, float, float] | None = None
    no_change_window_multiplier: float = 3.0
    pick_cap_multiplier: float = 50.0
    channel: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self) -> None:
        # an int in a float field becomes a float, so equal configs echo
        # equal bytes whichever path built them
        for key, value in _typed_fields(self).items():
            object.__setattr__(self, key, value)
        validate_config(self)

    @property
    def area_side_m(self) -> float:
        return math.sqrt(self.area_km2) * 1000.0

    def resolved_measurement_region(self) -> tuple[float, float, float, float]:
        if self.measurement_region_m is not None:
            return self.measurement_region_m
        side = self.area_side_m
        return (side / 4.0, 3.0 * side / 4.0, side / 4.0, 3.0 * side / 4.0)

    def resolved(self) -> "ScenarioConfig":
        """Copy with every defaulted field made explicit."""
        return replace(self, measurement_region_m=self.resolved_measurement_region())

    def to_dict(self) -> dict[str, Any]:
        """The resolved configuration as a JSON-ready document, keyed by the
        dataclass field names."""
        return asdict(self.resolved())


def density_key(lambda_m: float) -> int:
    """The integer a density is known by in the run seeds: lambda_m in
    millionths per km^2, rounded. Two densities of one grid must not share
    it, or their cells would repeat the same runs."""
    return int(round(lambda_m * 1e6))


def density_text(lambda_m: float) -> str:
    """A density as the outputs and ``--dump-run`` write it: its repr, which
    reads back as the same float, less a trailing ``.0`` (8.0 is written 8)."""
    return repr(float(lambda_m)).removesuffix(".0")


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """The declared type of each field of a config dataclass; resolving the
    annotations costs more than checking a whole config, so once per class."""
    return get_type_hints(cls)


def _parse(value: Any, kind: Any, base: Any, path: str) -> Any:
    """Lay one JSON value over ``base``, the current value of a field of
    type ``kind``: an object over a dataclass, whose absent keys keep their
    values and whose unknown keys are rejected, an array as a tuple, and
    any other value as it is, for the constructor to type."""
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'top level'}: expected an object")
        hints = _field_types(kind)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigError(f"unknown key: {path + '.' if path else ''}{unknown[0]}")
        return replace(base, **{
            key: _parse(item, hints[key], getattr(base, key),
                        f"{path}.{key}" if path else key)
            for key, item in value.items()})
    return tuple(value) if isinstance(value, list) else value


def _typed(value: Any, kind: Any, path: str) -> Any:
    """``value`` as the type ``kind`` of a config field: a finite number (an
    int or a float, not a bool) for float, exactly an int or a str for int
    and str, None or the type for an optional field, a tuple of such entries
    for a tuple, and a copy with typed fields for a dataclass."""
    if get_origin(kind) in (Union, types.UnionType):  # X | None
        if value is None:
            return None
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    if get_origin(kind) is tuple:
        args = get_args(kind)
        if not isinstance(value, tuple):
            raise ConfigError(f"{path}: expected a tuple, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_typed(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if is_dataclass(kind) and isinstance(value, kind):
        return replace(value, **_typed_fields(value, path + "."))
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        # NaN fails the comparison, and so does an int too large for a float
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: must be finite")
        return float(value)
    if kind in (int, str) and type(value) is kind:
        return value
    expected = {float: "a number", int: "an integer", str: "a string"}.get(
        kind, f"a {kind.__name__}")
    raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _typed_fields(obj: Any, prefix: str = "") -> dict[str, Any]:
    """Every field of the config dataclass ``obj``, made its field's type.
    Raise ConfigError naming the first field holding a value its type does
    not take."""
    return {key: _typed(getattr(obj, key), kind, prefix + key)
            for key, kind in _field_types(type(obj)).items()}


def config_from_dict(doc: dict[str, Any]) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document.

    The accepted keys and their types are the ScenarioConfig fields. Absent
    keys take the defaults of Table-I-style parameters; unknown keys, wrong
    types and invalid values are rejected with their dotted path.
    """
    return _parse(doc, ScenarioConfig, ScenarioConfig(), "")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def validate_config(cfg: ScenarioConfig) -> None:
    """Raise ConfigError naming the offending key on any invariant violation;
    ScenarioConfig runs it on construction, after giving every value its
    field's type, so the checks below compare finite numbers and strings
    only."""
    _require(cfg.area_km2 > 0, "area_km2: must be > 0")
    _require(cfg.lte_density_per_km2 >= 0, "lte_density_per_km2: must be >= 0")
    _require(len(cfg.mmw_density_grid_per_km2) > 0, "mmw_density_grid_per_km2: must be non-empty")
    _require(all(d >= 0 for d in cfg.mmw_density_grid_per_km2),
             "mmw_density_grid_per_km2: densities must be >= 0")
    # below it, density_key's lambda * 1e6 is a finite float
    _require(all(d < 1e302 for d in cfg.mmw_density_grid_per_km2),
             "mmw_density_grid_per_km2: densities must be < 1e302")
    _require(len(set(map(density_key, cfg.mmw_density_grid_per_km2)))
             == len(cfg.mmw_density_grid_per_km2),
             "mmw_density_grid_per_km2: duplicate entry")
    _require(len(cfg.policies) > 0, "policies: must be non-empty")
    for p in cfg.policies:
        _require(p in POLICY_NAMES, f"policies: unknown policy {p!r}")
    _require(len(set(cfg.policies)) == len(cfg.policies), "policies: duplicate entry")
    _require(cfg.vn_mode in VN_MODES, f"vn_mode: must be one of {VN_MODES}")
    _require(cfg.vns_per_mmw_bs >= 0, "vns_per_mmw_bs: must be >= 0")
    _require(cfg.fixed_vn_count >= 0, "fixed_vn_count: must be >= 0")
    _require(cfg.n_sim >= 1, "n_sim: must be >= 1")
    _require(cfg.master_seed >= 0, "master_seed: must be >= 0")
    _require(all(r >= 0 for r in cfg.class_requirements_bps),
             "class_requirements_bps: rates must be >= 0")
    _require(all(p >= 0 for p in cfg.class_probabilities),
             "class_probabilities: must be >= 0")
    _require(abs(sum(cfg.class_probabilities) - 1.0) <= 1e-9,
             "class_probabilities: must sum to 1 within 1e-9")
    _require(cfg.no_change_window_multiplier > 0, "no_change_window_multiplier: must be > 0")
    _require(cfg.pick_cap_multiplier > 0, "pick_cap_multiplier: must be > 0")
    x_min, x_max, y_min, y_max = cfg.resolved_measurement_region()
    side = cfg.area_side_m
    _require(0 <= x_min < x_max <= side and 0 <= y_min < y_max <= side,
             "measurement_region_m: must be a non-empty rectangle inside the area")
    ch = cfg.channel
    for tier, radio in (("lte", ch.lte), ("mmw", ch.mmw)):
        _require(radio.bandwidth_hz > 0, f"channel.{tier}.bandwidth_hz: must be > 0")
        _require(radio.carrier_hz > 0, f"channel.{tier}.carrier_hz: must be > 0")
    _require(ch.lte.array_elements == 1,
             "channel.lte.array_elements: must be 1 (LTE is omnidirectional)")
    _require(ch.mmw.array_elements >= 1, "channel.mmw.array_elements: must be >= 1")
    _require(ch.vn_array_elements >= 1, "channel.vn_array_elements: must be >= 1")
    _require(ch.min_distance_m > 0, "channel.min_distance_m: must be > 0")
    for key in ("bs_height_m", "vn_height_m"):
        _require(getattr(ch, key) >= 0, f"channel.{key}: must be >= 0")
    if ch.los_probability_override is not None:
        _require(0.0 <= ch.los_probability_override <= 1.0,
                 "channel.los_probability_override: must lie in [0, 1]")


def load_config(source: str | os.PathLike[str]) -> ScenarioConfig:
    """Load a ScenarioConfig from a JSON file path or '-' (stdin)."""
    if source == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
        name = str(source)
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: invalid JSON: {exc}") from exc
    return config_from_dict(doc)
