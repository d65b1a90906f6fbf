"""Output checks computed apart from the simulator.

Nothing here calls into ``v2isim``. The channel of a run is re-derived from
the run's seed with this file's own arithmetic, following the documented
model and the simulator's generator draw order (LTE stations, mmWave
stations, vehicles, classes, one LOS uniform per link). Every check returns
a list of problem strings; an empty list means the check passed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

POLICIES = ("MS", "MR", "RA")
NO_BS = -1
TIER_NONE, TIER_LTE, TIER_MMWAVE = 0, 1, 2
N_CLASSES = 4

# Two independent ways of computing one Shannon rate agree to ~1e-15; a
# vehicle that can gain 1e-9 of its rate by moving is a real miss.
REL_TOL = 1e-9

# every float figure of a cell, keyed as reduce_cell keys it
FIGURES = ("p_lte", "p_sat") + tuple(
    f"{name}_{k}" for k in range(1, N_CLASSES + 1)
    for name in ("mean_rate", "p10", "jain"))


def csv_column(figure: str) -> str:
    return figure + "_bps" if figure.startswith(("mean_rate", "p10")) else figure


def run_seed(master_seed: int, lambda_m: float, policy: str,
             run_index: int) -> np.random.SeedSequence:
    """Per-run seed from the campaign cell coordinates."""
    return np.random.SeedSequence(entropy=(
        master_seed, int(round(lambda_m * 1e6)), POLICIES.index(policy),
        run_index))


@dataclass
class Channel:
    """One run's deployment and links as this file derives them."""

    n_lte: int
    n_bs: int
    class_k: np.ndarray
    in_region: np.ndarray
    required_bps: np.ndarray
    snr_db: np.ndarray
    unit_rate_bps: np.ndarray
    snr_threshold_db: float


def derive_channel(cfg: dict, lambda_m: float, seed) -> Channel:
    """Redraw a run's snapshot and links from its seed.

    ``cfg`` is the resolved configuration the CLI echoes in its header.
    """
    rng = np.random.default_rng(seed)
    ch = cfg["channel"]
    area = cfg["area_km2"]
    side = math.sqrt(area) * 1000.0
    stations = []
    for radio, density in ((ch["lte"], cfg["lte_density_per_km2"]),
                           (ch["mmw"], lambda_m)):
        count = int(rng.poisson(density * area))
        stations.append((radio, rng.uniform(0.0, side, size=(count, 2))))
    n_lte = len(stations[0][1])
    if cfg["vn_mode"] == "PER_MMW_BS":
        n_vn = int(rng.poisson(cfg["vns_per_mmw_bs"] * lambda_m * area))
    else:
        n_vn = cfg["fixed_vn_count"]
    vxy = rng.uniform(0.0, side, size=(n_vn, 2))
    class_k = rng.choice(4, size=n_vn, p=cfg["class_probabilities"]) + 1
    required = np.asarray(cfg["class_requirements_bps"], dtype=float)[class_k - 1]
    x0, x1, y0, y1 = cfg["measurement_region_m"]
    in_region = ((x0 <= vxy[:, 0]) & (vxy[:, 0] <= x1)
                 & (y0 <= vxy[:, 1]) & (vxy[:, 1] <= y1))

    bxy = np.concatenate([s[1] for s in stations]).reshape(-1, 2)
    n_bs = bxy.shape[0]
    d2d = np.hypot(vxy[:, None, 0] - bxy[None, :, 0],
                   vxy[:, None, 1] - bxy[None, :, 1])
    dz = ch["bs_height_m"] - ch["vn_height_m"]
    d3d = np.maximum(np.sqrt(d2d * d2d + dz * dz), ch["min_distance_m"])
    lte_cols = np.arange(n_bs) < n_lte

    p_los = np.empty((n_vn, n_bs))
    with np.errstate(divide="ignore", invalid="ignore"):
        dk = d2d[:, lte_cols] / 1000.0
        decay = np.exp(-dk / 0.063)
        p_lte = np.minimum(0.018 / dk, 1.0) * (1.0 - decay) + decay
        p_los[:, lte_cols] = np.where(dk == 0.0, 1.0, p_lte)
        dm = d2d[:, ~lte_cols]
        near = 18.0 / dm
        p_mmw = near + np.exp(-dm / 36.0) * (1.0 - near)
        p_los[:, ~lte_cols] = np.where(dm <= 18.0, 1.0, p_mmw)
    p_los = np.clip(p_los, 0.0, 1.0)
    if ch["los_probability_override"] is not None:
        p_los.fill(ch["los_probability_override"])
    los = rng.random(size=(n_vn, n_bs)) < p_los

    snr = np.empty((n_vn, n_bs))
    bandwidth = np.empty(n_bs)
    for cols, radio in ((lte_cols, ch["lte"]), (~lte_cols, ch["mmw"])):
        d = d3d[:, cols]
        if radio is ch["lte"]:
            lg = np.log10(d / 1000.0)
            pl_los = ch["lte_pl_los_intercept_db"] + ch["lte_pl_los_distance_slope_db"] * lg
            pl_nlos = ch["lte_pl_nlos_intercept_db"] + ch["lte_pl_nlos_distance_slope_db"] * lg
            gain_db = 0.0
        else:
            lg, lf = np.log10(d), math.log10(radio["carrier_hz"] / 1e9)
            pl_los = (ch["mmw_pl_los_intercept_db"]
                      + ch["mmw_pl_los_distance_slope_db"] * lg
                      + ch["mmw_pl_los_frequency_slope_db"] * lf)
            pl_nlos = (ch["mmw_pl_nlos_intercept_db"]
                       + ch["mmw_pl_nlos_distance_slope_db"] * lg
                       + ch["mmw_pl_nlos_frequency_slope_db"] * lf
                       - ch["mmw_pl_nlos_height_slope_db"] * (ch["vn_height_m"] - 1.5))
            gain_db = 10.0 * math.log10(radio["array_elements"] * ch["vn_array_elements"])
        pl = np.where(los[:, cols], pl_los, np.maximum(pl_los, pl_nlos))
        noise_dbm = ch["noise_psd_dbm_per_hz"] + 10.0 * math.log10(radio["bandwidth_hz"])
        snr[:, cols] = radio["tx_power_dbm"] + gain_db - pl - noise_dbm
        bandwidth[cols] = radio["bandwidth_hz"]
    threshold = cfg["snr_threshold_db"]
    with np.errstate(over="ignore"):
        unit = bandwidth[None, :] * np.log2(1.0 + np.power(10.0, snr / 10.0))
    unit[snr < threshold] = 0.0
    return Channel(n_lte, n_bs, class_k, in_region, required, snr, unit,
                   threshold)


def _close(a, b) -> np.ndarray:
    return np.abs(a - b) <= REL_TOL * np.maximum(np.abs(a), np.abs(b))


def station_loads(bs_id: np.ndarray, n_bs: int) -> np.ndarray:
    return np.bincount(bs_id[bs_id >= 0], minlength=n_bs)


def check_vehicles(ch: Channel, policy: str, result) -> list[str]:
    """Per-vehicle properties of one run's result.

    Identity of the deployment, rate = unit rate / final load, unattached
    means rate 0 and outage everywhere, tier matches the station, and under
    MS every vehicle sits on its highest-SNR station.
    """
    bs = np.asarray(result.bs_id, dtype=np.int64)
    rate = np.asarray(result.rate_bps, dtype=float)
    tier = np.asarray(result.tier)
    n_vn = ch.class_k.size
    for name, got in (("bs_id", bs), ("rate_bps", rate), ("tier", tier),
                      ("class_k", result.class_k),
                      ("in_region", result.in_region),
                      ("required_rate_bps", result.required_rate_bps)):
        if np.asarray(got).shape != (n_vn,):
            return [f"{name} has shape {np.asarray(got).shape}, expected ({n_vn},)"]
    problems = []
    if not np.array_equal(result.class_k, ch.class_k):
        problems.append("traffic classes differ from the seed's draw")
    if not np.array_equal(result.in_region, ch.in_region):
        problems.append("measurement-region flags differ from the seed's draw")
    if not np.array_equal(result.required_rate_bps, ch.required_bps):
        problems.append("required rates differ from the class requirements")
    if np.any((bs < NO_BS) | (bs >= ch.n_bs)):
        return problems + ["station id out of range"]
    attached = bs >= 0
    loads = station_loads(bs, ch.n_bs)
    idx = np.flatnonzero(attached)
    expect = np.zeros(n_vn)
    expect[idx] = ch.unit_rate_bps[idx, bs[idx]] / loads[bs[idx]]
    bad = np.flatnonzero(~_close(rate, expect))
    if bad.size:
        v = int(bad[0])
        problems.append(f"{bad.size} rates are not unit rate / load "
                        f"(vehicle {v}: {rate[v]!r} vs {expect[v]!r})")
    want_tier = np.where(~attached, TIER_NONE,
                         np.where(bs < ch.n_lte, TIER_LTE, TIER_MMWAVE))
    if not np.array_equal(tier, want_tier):
        problems.append("tier does not match the station")
    lost = np.flatnonzero(~attached)
    if lost.size and np.any(ch.snr_db[lost] >= ch.snr_threshold_db):
        problems.append("an unattached vehicle has a station above the SNR threshold")
    if idx.size and np.any(ch.unit_rate_bps[idx, bs[idx]] <= 0.0):
        problems.append("a vehicle is attached to a station in outage")
    if policy == "MS" and ch.n_bs:
        best = ch.snr_db.max(axis=1)
        own = np.where(attached, ch.snr_db[np.arange(n_vn), np.maximum(bs, 0)], -np.inf)
        miss = np.flatnonzero(attached & (own < best - 1e-9))
        if miss.size:
            problems.append(f"{miss.size} MS vehicles are off their highest-SNR station")
    return problems


def movers(ch: Channel, policy: str, bs_id) -> list[tuple[int, int, int, float]]:
    """Vehicles that the policy would move, given everyone else's stations.

    Returns (vehicle, from, to, relative gain) for each. MS ignores loads and
    is covered by ``check_vehicles``; MR compares post-join rates; RA first
    applies the LTE-first rule (the best LTE post-join rate strictly above the
    requirement wins), then falls back to MR.
    """
    if policy == "MS" or ch.n_bs == 0:
        return []
    bs = np.asarray(bs_id, dtype=np.int64)
    n_vn = bs.size
    loads = station_loads(bs, ch.n_bs).astype(float)
    post = ch.unit_rate_bps / (loads[None, :] + 1.0)
    attached = np.flatnonzero(bs >= 0)
    own = np.zeros(n_vn)
    own[attached] = ch.unit_rate_bps[attached, bs[attached]] / loads[bs[attached]]
    post[attached, bs[attached]] = own[attached]
    best_any = post.argmax(axis=1)
    target = best_any.copy()
    ok = post[np.arange(n_vn), best_any] <= own * (1.0 + REL_TOL)
    if policy == "RA" and ch.n_lte:
        lte_post = post[:, :ch.n_lte]
        best_lte = lte_post.argmax(axis=1)
        lte_rate = lte_post[np.arange(n_vn), best_lte]
        on_lte = (bs >= 0) & (bs < ch.n_lte)
        lte_ok = on_lte & (own >= lte_rate * (1.0 - REL_TOL))
        above = lte_rate > ch.required_bps * (1.0 + REL_TOL)
        edge = ~above & (lte_rate > ch.required_bps * (1.0 - REL_TOL))
        ok = np.where(above, lte_ok, ok | (edge & lte_ok))
        target = np.where(above, best_lte, target)
    out = []
    for v in np.flatnonzero(~ok):
        to = int(target[v])
        gain = post[v, to] / own[v] - 1.0 if own[v] > 0 else math.inf
        out.append((int(v), int(bs[v]), to, float(gain)))
    return out


# --- the cell reduction, redone ------------------------------------------

def _mean(values) -> float:
    return math.fsum(values) / len(values) if len(values) else math.nan


def _run_figures(result) -> dict:
    mask = np.asarray(result.in_region, dtype=bool)
    rates = [float(r) for r in np.asarray(result.rate_bps)[mask]]
    req = [float(r) for r in np.asarray(result.required_rate_bps)[mask]]
    cls = [int(c) for c in np.asarray(result.class_k)[mask]]
    tier = [int(t) for t in np.asarray(result.tier)[mask]]
    n = len(rates)
    out = {
        "p_lte": sum(t == TIER_LTE for t in tier) / n if n else math.nan,
        "p_sat": sum(r >= q for r, q in zip(rates, req)) / n if n else math.nan,
        "class_rates": [[r for r, c in zip(rates, cls) if c == k]
                        for k in range(1, N_CLASSES + 1)],
    }
    for k, sel in enumerate(out["class_rates"], start=1):
        out[f"mean_rate_{k}"] = _mean(sel)
        squares = math.fsum(r * r for r in sel)
        total = math.fsum(sel)
        out[f"jain_{k}"] = (total * total / (len(sel) * squares)
                            if sel and squares else math.nan)
    return out


def reduce_cell(results) -> dict:
    """Every CSV figure of one cell from its runs' per-vehicle results."""
    per_run = [_run_figures(r) for r in results]
    cell = {}
    for key in FIGURES:
        if not key.startswith("p10"):
            cell[key] = _mean([f[key] for f in per_run if not math.isnan(f[key])])
    for k in range(N_CLASSES):
        pooled = sorted(r for f in per_run for r in f["class_rates"][k])
        cell[f"p10_{k + 1}"] = _mean(pooled[:math.ceil(0.1 * len(pooled))])
    cell["run_count"] = len(per_run)
    cell["nonconverged_runs"] = sum(1 for r in results if not r.converged)
    return cell


def _agrees(mine: float, text: str) -> bool:
    """True when ``mine`` prints as ``text`` at the CSV's 6 significant
    digits, allowing only a value that sits on a rounding boundary."""
    if math.isnan(mine):
        return text == "nan"
    if f"{mine:.6g}" == text:
        return True
    try:
        printed = float(text)
    except ValueError:
        return False
    if printed == 0.0 or mine == 0.0:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 5)
    return abs(mine - printed) <= 0.5 * unit + 1e-12 * abs(mine)


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """(resolved config, rows) of a CLI CSV output."""
    cfg = None
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# config "):
            cfg = json.loads(line[len("# config "):])
        elif not line.startswith("#"):
            body.append(line)
    if cfg is None or not body:
        raise ValueError("CLI output lacks its config header or CSV header")
    header = body[0].split(",")
    return cfg, [dict(zip(header, line.split(","))) for line in body[1:]]


def check_rows(rows: list[dict], cells: dict, master_seed: int) -> list[str]:
    """Compare CLI rows with cells reduced here.

    ``cells`` maps (lambda_m, policy) to the output of ``reduce_cell``, in
    the order the rows must appear.
    """
    problems = []
    keys = list(cells)
    got_keys = []
    for row in rows:
        try:
            got_keys.append((float(row["lambda_m"]), row["policy"]))
        except (KeyError, ValueError):
            return [f"malformed row {row!r}"]
    if got_keys != keys:
        return [f"rows are {got_keys}, expected {keys}"]
    for (lam, pol), row in zip(keys, rows):
        cell = cells[(lam, pol)]
        where = f"cell lambda_m={lam:g} {pol}"
        if row["lambda_m"] != f"{lam:.6g}":
            problems.append(f"{where}: lambda_m printed as {row['lambda_m']}")
        for key in FIGURES:
            column = csv_column(key)
            if not _agrees(cell[key], row.get(column, "")):
                problems.append(f"{where}: {column} is {row.get(column)}, "
                                f"reduced here {cell[key]:.10g}")
        for key, want in (("run_count", cell["run_count"]), ("seed", master_seed),
                          ("nonconverged_runs", cell["nonconverged_runs"])):
            if row.get(key) != str(want):
                problems.append(f"{where}: {key} is {row.get(key)}, expected {want}")
    return problems
