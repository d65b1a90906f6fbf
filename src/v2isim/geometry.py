"""Network snapshot generation: PPP base stations, uniform vehicles,
traffic classes and the boundary-effect measurement region.

A snapshot is held as arrays: station xy with the LTE tier in the first
``n_lte`` rows, vehicle xy, and each vehicle's class and required rate.
Radio constants are per tier and come from ``ChannelParams``; heights are
the configured tier heights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ScenarioConfig


class Tier(Enum):
    LTE = "LTE"
    MMWAVE = "MMWAVE"


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One network realization. Station j is LTE iff j < n_lte."""

    bs_xy: np.ndarray  # (N, 2) meters
    n_lte: int
    vn_xy: np.ndarray  # (M, 2) meters
    class_k: np.ndarray  # (M,) in 1..4
    required_rate_bps: np.ndarray  # (M,)
    # x_min, x_max, y_min, y_max in meters, closed boundary
    measurement_region_m: tuple[float, float, float, float]

    @property
    def is_lte(self) -> np.ndarray:
        return np.arange(len(self.bs_xy)) < self.n_lte

    @property
    def in_region(self) -> np.ndarray:
        """Per-vehicle mask of the central statistics square (closed boundary)."""
        x_min, x_max, y_min, y_max = self.measurement_region_m
        x, y = self.vn_xy[:, 0], self.vn_xy[:, 1]
        return (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)


def _uniform_xy(count: int, area_km2: float, rng: np.random.Generator) -> np.ndarray:
    side = math.sqrt(area_km2) * 1000.0
    return rng.uniform(0.0, side, size=(count, 2))


def deploy_base_stations(density_lte_per_km2: float, density_mmw_per_km2: float,
                         area_km2: float, rng: np.random.Generator,
                         ) -> tuple[np.ndarray, int]:
    """Draw both tiers as independent PPPs over the square area.

    Returns (xy, n_lte) with the LTE stations in the first n_lte rows.
    Empty tiers are valid outcomes and are kept (not redrawn).
    """
    if density_lte_per_km2 < 0 or density_mmw_per_km2 < 0:
        raise ValueError("base-station densities must be >= 0")
    if area_km2 <= 0:
        raise ValueError("area_km2 must be > 0")
    tiers = [_uniform_xy(int(rng.poisson(density * area_km2)), area_km2, rng)
             for density in (density_lte_per_km2, density_mmw_per_km2)]
    return np.concatenate(tiers), len(tiers[0])


def deploy_vehicles(mode: str, mean_mmw_bs: float, area_km2: float,
                    rng: np.random.Generator, *,
                    vns_per_mmw_bs: float = 10.0,
                    fixed_vn_count: int = 500,
                    class_probabilities: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25),
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Place vehicles uniformly and draw their traffic classes.

    Returns (xy, class_k). PER_MMW_BS mode draws the vehicle count as
    Poisson(vns_per_mmw_bs * mean_mmw_bs), i.e. against the mmWave tier's
    expected station count so the two point processes stay independent;
    FIXED places exactly fixed_vn_count.
    """
    if mean_mmw_bs < 0:
        raise ValueError("mean_mmw_bs must be >= 0")
    if mode == "PER_MMW_BS":
        count = int(rng.poisson(vns_per_mmw_bs * mean_mmw_bs))
    elif mode == "FIXED":
        count = fixed_vn_count
    else:
        raise ValueError(f"unknown vn deployment mode {mode!r}")
    xy = _uniform_xy(count, area_km2, rng)
    return xy, rng.choice(4, size=count, p=list(class_probabilities)) + 1


def build_snapshot(config: ScenarioConfig, lambda_m: float,
                   rng: np.random.Generator) -> Snapshot:
    """One network realization: base stations first, then vehicles."""
    bs_xy, n_lte = deploy_base_stations(
        config.lte_density_per_km2, lambda_m, config.area_km2, rng)
    vn_xy, class_k = deploy_vehicles(
        config.vn_mode, lambda_m * config.area_km2, config.area_km2, rng,
        vns_per_mmw_bs=config.vns_per_mmw_bs,
        fixed_vn_count=config.fixed_vn_count,
        class_probabilities=config.class_probabilities)
    required = np.asarray(config.class_requirements_bps, dtype=float)[class_k - 1]
    return Snapshot(bs_xy, n_lte, vn_xy, class_k, required,
                    config.resolved_measurement_region())
