"""Network snapshot generation: PPP base stations, uniform vehicles,
traffic classes and the boundary-effect measurement region.

A snapshot is held as arrays: station xy with the LTE tier in the first
``n_lte`` rows, vehicle xy, and each vehicle's class and required rate.
It holds no radio parameter: ``channel.build_link_table`` applies the
tiers' radios and heights to its positions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import N_CLASSES, ScenarioConfig


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One network realization. Station j is LTE iff j < n_lte."""

    bs_xy: np.ndarray  # (N, 2) meters
    n_lte: int
    vn_xy: np.ndarray  # (M, 2) meters
    class_k: np.ndarray  # (M,) int8 in 1..4
    required_rate_bps: np.ndarray  # (M,)
    # x_min, x_max, y_min, y_max in meters, closed boundary
    measurement_region_m: tuple[float, float, float, float]

    @property
    def in_region(self) -> np.ndarray:
        """Per-vehicle mask of the central statistics square (closed boundary)."""
        x_min, x_max, y_min, y_max = self.measurement_region_m
        x, y = self.vn_xy[:, 0], self.vn_xy[:, 1]
        return (x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)


def build_snapshot(config: ScenarioConfig, lambda_m: float,
                   rng: np.random.Generator) -> Snapshot:
    """One network realization at mmWave density ``lambda_m``, drawn in this
    order: the LTE tier's count and positions, the mmWave tier's, then the
    vehicles' count, positions and classes.

    Both tiers are independent PPPs over the square area; empty tiers are
    valid outcomes and are kept, not redrawn. PER_MMW_BS draws the vehicle
    count as Poisson(vns_per_mmw_bs * lambda_m * area_km2), against the
    mmWave tier's expected station count so the two point processes stay
    independent; FIXED places exactly fixed_vn_count.
    """
    area, side = config.area_km2, config.area_side_m
    tiers = [rng.uniform(0.0, side, size=(int(rng.poisson(density * area)), 2))
             for density in (config.lte_density_per_km2, lambda_m)]
    if config.vn_mode == "FIXED":
        n_vn = config.fixed_vn_count
    else:
        n_vn = int(rng.poisson(config.vns_per_mmw_bs * (lambda_m * area)))
    vn_xy = rng.uniform(0.0, side, size=(n_vn, 2))
    class_k = (rng.choice(N_CLASSES, size=n_vn, p=list(config.class_probabilities))
               + 1).astype(np.int8)
    required = np.asarray(config.class_requirements_bps, dtype=float)[class_k - 1]
    return Snapshot(np.concatenate(tiers), len(tiers[0]), vn_xy, class_k, required,
                    config.resolved_measurement_region())
