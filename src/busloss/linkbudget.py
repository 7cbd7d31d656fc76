"""Link budget and interference footprint analysis over the bus layout.

Per-seat SNR, Shannon rate and coverage from the fitted path loss models,
plus Monte-Carlo SINR when several transmitters share the channel. All
power combining happens in linear watts; only the reported figures are dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Sequence

import numpy as np

from .geometry import BusLayout, seat_links
from .models import (
    HeightClass,
    PathLossModel,
    Region,
    coverage_probability,
    csv_text,
    is_extrapolated,
    mean_path_loss,
)

THERMAL_NOISE_DBM_PER_HZ = -174.0  # 290 K reference

# Most shadowing values (draws x links) one Monte-Carlo call may draw. The
# footprint keeps one float64 SINR value per draw and link, about 400 MB at this
# limit; coverage only counts, so its memory does not grow with the draws.
MAX_DRAW_LINKS = 50_000_000

# Draws per path-loss block. Each block is drawn from the same Generator in
# turn, so the blocks concatenate to the single (n_draws, k) draw bit for bit.
# With 30 links, 1,024 to 16,384 rows ran equally fast and 65,536 rows ran
# about 20% slower: larger blocks' temporaries fall out of cache.
_DRAW_CHUNK_ROWS = 4096

ModelMap = Mapping[tuple[Region, HeightClass], PathLossModel]


@dataclass(frozen=True)
class LinkBudgetConfig:
    """Budget inputs. Only the 2 dBi antenna gains come from the measured
    system; the remaining defaults are 802.11ay-style placeholders."""

    tx_power_dbm: float = 10.0
    g_tx_dbi: float = 2.0
    g_rx_dbi: float = 2.0
    bandwidth_hz: float = 2.16e9
    noise_figure_db: float = 7.0
    snr_threshold_db: float = 5.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # An infinite threshold is meaningful: every link, or none, clears it.
            if math.isnan(value) or (math.isinf(value) and f.name != "snr_threshold_db"):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.noise_figure_db < 0:
            raise ValueError("noise_figure_db must be >= 0")


@dataclass
class SeatReport:
    """Link budget outcome for one transmitter position."""

    seat_id: int
    height: HeightClass
    distance_m: float
    mean_pl_db: float
    snr_db: float
    rate_bps: float
    coverage_prob: float
    extrapolated: bool = False


@dataclass
class FootprintSummary:
    """SINR distribution summary for one active transmitter."""

    seat_id: int
    mean_db: float
    median_db: float
    p05_db: float


def noise_floor_dbm(config: LinkBudgetConfig) -> float:
    """Thermal noise power over the receive bandwidth plus the noise figure."""
    return (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(config.bandwidth_hz)
        + config.noise_figure_db
    )


def rx_power_dbm(config: LinkBudgetConfig, pl_db):
    """Received power in dBm for the given path loss (a float or an array)."""
    return config.tx_power_dbm + config.g_tx_dbi + config.g_rx_dbi - pl_db


def link_snr(config: LinkBudgetConfig, pl_db: float) -> float:
    """SNR in dB for a link with the given path loss."""
    return rx_power_dbm(config, pl_db) - noise_floor_dbm(config)


def max_path_loss_db(config: LinkBudgetConfig) -> float:
    """The largest path loss at which a link's SNR still clears the threshold."""
    return link_snr(config, 0.0) - config.snr_threshold_db


def shannon_rate(snr_db: float, bandwidth_hz: float) -> float:
    """Shannon capacity in bit/s."""
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth_hz must be > 0")
    try:
        return bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    except OverflowError:  # snr_db above ~3083 dB, where the 1 is negligible
        return bandwidth_hz * snr_db / 10.0 * math.log2(10.0)


def _seat_links(layout: BusLayout, models: ModelMap, height: HeightClass,
                seat_ids: Sequence[int] | None, use_all_model: bool):
    """(seat id, model, distance, mean path loss) for each seat of seat_links in order."""
    links = []
    for seat_id, group, d in seat_links(layout, height, seat_ids):
        model = models[(Region.ALL if use_all_model else group, height)]
        links.append((seat_id, model, d, mean_path_loss(model, d)))
    return links


def seat_sweep(
    layout: BusLayout,
    models: ModelMap,
    config: LinkBudgetConfig,
    height: HeightClass,
    use_all_model: bool = False,
) -> list[SeatReport]:
    """Link budget for every eligible seat at the given height class.

    Coverage is the analytic probability that path loss stays below the
    budget margin implied by the SNR threshold.
    """
    pl_max = max_path_loss_db(config)
    reports = []
    for seat_id, model, d, pl in _seat_links(layout, models, height, None, use_all_model):
        snr = link_snr(config, pl)
        reports.append(
            SeatReport(
                seat_id=seat_id,
                height=height,
                distance_m=d,
                mean_pl_db=pl,
                snr_db=snr,
                rate_bps=shannon_rate(snr, config.bandwidth_hz),
                coverage_prob=coverage_probability(model, d, pl_max),
                extrapolated=is_extrapolated(d),
            )
        )
    return reports


def _shadowed_path_loss(links, seed: int, n_draws: int) -> Iterator[tuple[int, np.ndarray]]:
    """Path loss for n_draws draws of every link of _seat_links: each link's mean
    plus independent shadowing, as (start, block) pairs of at most
    _DRAW_CHUNK_ROWS draws by len(links) links, where block holds draws start,
    start + 1, ... in order.

    n_draws is checked when this is called, before any block exists: it must be
    >= 1 and n_draws * len(links) at most MAX_DRAW_LINKS.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if n_draws * len(links) > MAX_DRAW_LINKS:
        raise ValueError(f"{n_draws} draws x {len(links)} links is over {MAX_DRAW_LINKS}")
    means = np.array([pl for _, _, _, pl in links])
    sigmas = np.array([model.sigma_db for _, model, _, _ in links])
    rng, rows = np.random.default_rng(seed), _DRAW_CHUNK_ROWS
    return (
        (start, means + sigmas * rng.standard_normal((min(rows, n_draws - start), len(links))))
        for start in range(0, n_draws, rows)
    )


def interference_footprint(
    layout: BusLayout,
    models: ModelMap,
    config: LinkBudgetConfig,
    active_seats: Sequence[int],
    height: HeightClass,
    seed: int,
    n_draws: int,
    use_all_model: bool = False,
) -> list[FootprintSummary]:
    """Monte-Carlo SINR at the access point with all active seats transmitting.

    Every active link's shadowing is drawn independently per draw. All
    transmitters share the channel, so each seat's signal competes with the
    sum of the others plus noise. The active seats must be distinct. An
    unknown or excluded seat raises SeatNotFoundError or ExcludedPositionError
    before n_draws is checked. The only array that grows with n_draws is one
    (seats, n_draws) float64 SINR buffer.
    """
    if not active_seats:
        raise ValueError("need at least one active seat")
    for i, seat_id in enumerate(active_seats):
        if seat_id in active_seats[:i]:
            raise ValueError(f"seat {seat_id} is listed more than once")
    blocks = _shadowed_path_loss(
        _seat_links(layout, models, height, active_seats, use_all_model), seed, n_draws)
    noise_mw = 10.0 ** (noise_floor_dbm(config) / 10.0)
    sinr_db = np.empty((len(active_seats), n_draws))
    for start, pl_db in blocks:
        rx_mw = 10.0 ** (rx_power_dbm(config, pl_db) / 10.0)
        total_mw = rx_mw.sum(axis=1, keepdims=True)
        block_sinr = 10.0 * np.log10(rx_mw / (noise_mw + total_mw - rx_mw))
        sinr_db[:, start:start + len(block_sinr)] = block_sinr.T

    # The mean reads each row in draw order, so it goes first; the percentile and
    # the median then reorder the rows in place instead of copying them.
    means = np.mean(sinr_db, axis=1)
    p05s = np.percentile(sinr_db, 5.0, axis=1, overwrite_input=True)
    medians = np.median(sinr_db, axis=1, overwrite_input=True)
    return [
        FootprintSummary(
            seat_id=seat_id,
            mean_db=float(means[i]),
            median_db=float(medians[i]),
            p05_db=float(p05s[i]),
        )
        for i, seat_id in enumerate(active_seats)
    ]


def empirical_coverage(
    layout: BusLayout,
    models: ModelMap,
    config: LinkBudgetConfig,
    height: HeightClass,
    seed: int,
    n_draws: int,
    use_all_model: bool = False,
) -> dict[int, float]:
    """Fraction of shadowing draws whose SNR clears the threshold, per seat.

    The draws are counted block by block, so memory does not grow with n_draws.
    """
    links = _seat_links(layout, models, height, None, use_all_model)
    seat_ids = [seat_id for seat_id, _, _, _ in links]
    blocks = _shadowed_path_loss(links, seed, n_draws)
    pl_max = max_path_loss_db(config)
    counts = np.zeros(len(seat_ids), dtype=np.int64)
    for _, pl_db in blocks:
        counts += np.count_nonzero(pl_db <= pl_max, axis=0)
    fractions = counts / n_draws
    return {seat_id: float(fractions[i]) for i, seat_id in enumerate(seat_ids)}


def reports_to_csv(reports: Sequence[SeatReport]) -> str:
    """Seat sweep CSV: seat,height,distance_m,mean_pl_db,snr_db,rate_bps,coverage."""
    rows = (
        (str(r.seat_id), r.height.value, f"{r.distance_m:.4f}", f"{r.mean_pl_db:.4f}",
         f"{r.snr_db:.4f}", f"{r.rate_bps:.1f}", f"{r.coverage_prob:.6f}")
        for r in reports
    )
    header = ("seat", "height", "distance_m", "mean_pl_db", "snr_db", "rate_bps", "coverage")
    return csv_text(header, rows)


def report_to_dict(r: SeatReport) -> dict:
    return {
        "seat": r.seat_id,
        "height": r.height.value,
        "distance_m": r.distance_m,
        "mean_pl_db": r.mean_pl_db,
        "snr_db": r.snr_db,
        "rate_bps": r.rate_bps,
        "coverage": r.coverage_prob,
        "extrapolated": r.extrapolated,
    }


def footprint_to_csv(summaries: Sequence[FootprintSummary]) -> str:
    """Footprint CSV with percentile columns."""
    rows = (
        (str(s.seat_id), f"{s.mean_db:.4f}", f"{s.median_db:.4f}", f"{s.p05_db:.4f}")
        for s in summaries
    )
    return csv_text(("seat", "sinr_mean_db", "sinr_median_db", "sinr_p05_db"), rows)


def footprint_to_dict(s: FootprintSummary) -> dict:
    return {
        "seat": s.seat_id,
        "sinr_mean_db": s.mean_db,
        "sinr_median_db": s.median_db,
        "sinr_p05_db": s.p05_db,
    }
