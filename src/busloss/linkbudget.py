"""Link budget and interference footprint analysis over the bus layout.

Per-seat SNR, Shannon rate and coverage from the fitted path loss models,
plus Monte-Carlo SINR when several transmitters share the channel. All
power combining happens in linear watts; only the reported figures are dB.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .geometry import BusLayout, seat_links
from .models import (
    POWER_DB_RANGE,
    HeightClass,
    PathLossModel,
    Region,
    _coverage,
    check_ranges,
    csv_text,
    is_extrapolated,
    mean_path_loss,
)

THERMAL_NOISE_DBM_PER_HZ = -174.0  # 290 K reference

# Most shadowing values (draws x links) one Monte-Carlo call may draw. The
# footprint keeps one float64 SINR value per draw and link, about 400 MB at this
# limit; coverage only counts, so its memory does not grow with the draws.
MAX_DRAW_LINKS = 50_000_000

# Draws per path-loss block. The footprint's come from one Generator in turn, so
# they concatenate to the single (n_draws, k) draw bit for bit; coverage counts
# block i, from its own generator, in share i % _COVERAGE_SHARES. With 30 links,
# 1,024 to 16,384 rows ran equally fast and 65,536 rows about 20% slower.
_DRAW_CHUNK_ROWS = 4096
_COVERAGE_SHARES = 2

ModelMap = Mapping[tuple[Region, HeightClass], PathLossModel]


# The range of each budget field. With these and MAX_LINK_SNR_DB, the noise
# floor lies in [-1,100, 246] dBm and tx_power_dbm + g_tx_dbi + g_rx_dbi in
# [-900, 446] dBm, so the noise power and each received power 10**(dBm/10) are
# finite and normal for any path loss in [-2,600, 2,100] dB, and shannon_rate
# stays below 1e12 Hz x 1,100 bit/s/Hz.
_FIELD_RANGES = {
    "tx_power_dbm": POWER_DB_RANGE,
    "g_tx_dbi": POWER_DB_RANGE,
    "g_rx_dbi": POWER_DB_RANGE,
    "bandwidth_hz": (0.0, 1e12),
    "noise_figure_db": (0.0, 300.0),
    # An infinite threshold is meaningful: every link, or none, clears it.
    "snr_threshold_db": (-math.inf, math.inf),
}

# Most SNR a link with no path loss may have. The footprint's SINR denominator,
# (noise + total) - own, is 0 and the SINR infinite once a lone link's SNR
# reaches 2**53 (159.5 dB), where the noise vanishes from noise + total. At
# 200 dB that takes a draw with a path loss below 40.5 dB; the shipped models
# give at least 87.6 dB on the shipped layout, with sigma at most 3.13 dB.
MAX_LINK_SNR_DB = 200.0


@dataclass(frozen=True)
class LinkBudgetConfig:
    """Budget inputs. Only the 2 dBi antenna gains come from the measured
    system; the remaining defaults are 802.11ay-style placeholders. Each field
    must lie in its _FIELD_RANGES range (bandwidth_hz above 0), and the SNR of a
    link with no path loss may be at most MAX_LINK_SNR_DB."""

    tx_power_dbm: float = 10.0
    g_tx_dbi: float = 2.0
    g_rx_dbi: float = 2.0
    bandwidth_hz: float = 2.16e9
    noise_figure_db: float = 7.0
    snr_threshold_db: float = 5.0

    def __post_init__(self) -> None:
        check_ranges(self, _FIELD_RANGES)
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be > 0")
        snr = link_snr(self, 0.0)
        if snr > MAX_LINK_SNR_DB:
            raise ValueError(
                f"tx_power_dbm + g_tx_dbi + g_rx_dbi is {snr:g} dB above the noise floor "
                f"of bandwidth_hz and noise_figure_db; at most {MAX_LINK_SNR_DB:g} dB")


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


def link_snr(config: LinkBudgetConfig, pl_db):
    """SNR in dB for a link with the given path loss (a float or an array)."""
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


def _links(layout: BusLayout, models: ModelMap, height: HeightClass,
           seat_ids: Sequence[int] | None, use_all_model: bool):
    """(ids, distances, mean path loss array, sigma array) of seat_links's links."""
    ids, groups, distances = seat_links(layout, height, seat_ids)
    link_models = [models[(Region.ALL if use_all_model else g, height)] for g in groups]
    means = np.array([mean_path_loss(m, d) for m, d in zip(link_models, distances)])
    return ids, distances, means, np.array([m.sigma_db for m in link_models])


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
    ids, distances, means, sigmas = _links(layout, models, height, None, use_all_model)
    rows = zip(ids, distances, means.tolist(), sigmas.tolist(), link_snr(config, means).tolist())
    return [SeatReport(seat_id=seat_id, height=height, distance_m=d, mean_pl_db=pl, snr_db=snr,
                       rate_bps=shannon_rate(snr, config.bandwidth_hz),
                       coverage_prob=_coverage(pl, sigma, pl_max),
                       extrapolated=is_extrapolated(d))
            for seat_id, d, pl, sigma, snr in rows]


def _check_draws(n_draws: int, n_links: int) -> None:
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if n_draws * n_links > MAX_DRAW_LINKS:
        raise ValueError(f"{n_draws} draws x {n_links} links is over {MAX_DRAW_LINKS}")


def _standard_normals(seed: int, n_draws: int, n_links: int) -> Iterator[tuple[int, np.ndarray]]:
    """Standard normal shadowing for n_draws draws of n_links links, as (start,
    block) pairs of at most _DRAW_CHUNK_ROWS draws by n_links links, where block
    holds draws start, start + 1, ... in order, all from one Generator(seed).

    A block holds until the caller takes the next one; the caller may overwrite
    it in place. With more than one block, one worker thread draws the next
    block into a second buffer while the caller works on the current one. The
    worker ends before the last block is yielded, or when the generator is
    closed. _check_draws checks n_draws when this is called, before any buffer.
    """
    _check_draws(n_draws, n_links)
    return _drawn_ahead(np.random.default_rng(seed), n_draws, n_links)


def _drawn_ahead(rng: np.random.Generator, n_draws: int, n_links: int):
    """The blocks of _standard_normals, block i in buffer i % 2. The caller
    draws block 0; a worker draws block i + 1 while the caller holds block i."""
    starts = range(0, n_draws, min(_DRAW_CHUNK_ROWS, n_draws))
    buffers = np.empty((min(len(starts), 2), starts.step, n_links))
    blocks = ((start, buffers[i % 2][:n_draws - start]) for i, start in enumerate(starts))
    current = next(blocks)
    rng.standard_normal(out=current[1])
    if len(starts) > 1:
        # Imported here: it loads logging, which single-block calls never need.
        from concurrent.futures import ThreadPoolExecutor
        # Leaving the with block, on the last block or on close(), joins the worker.
        with ThreadPoolExecutor(1) as pool:
            for following in blocks:
                drawn = pool.submit(rng.standard_normal, out=following[1])
                yield current
                drawn.result()
                current = following
    yield current


def _row_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, median, 5th percentile) of each row, bit for bit np.mean, np.median
    and np.percentile(rows, 5.0, axis=1), whose default 'linear' method is
    restated here. The rows are reordered in place, never copied.

    ndarray.partition with one kth (a SIMD quickselect in numpy >= 2, several
    times faster than with a list of kths) puts rank k at column k and ranks
    0..k-1 before it, so rank k - 1 is their max. A row whose mean is NaN holds
    a NaN or both infinities; it goes through numpy's own functions, which give
    NaN for a NaN row.
    """
    n = rows.shape[1]
    # The mean reads each row in draw order, so it goes before any partition.
    means = np.mean(rows, axis=1)
    # numpy's virtual index v = (n - 1) q lies between ranks floor(v) and
    # floor(v) + 1, weighted by g = v - floor(v). For n = 1 both are the last
    # rank, which numpy indexes as -1, so g = v + 1.
    v = (n - 1) * (5.0 / 100)
    if n > 1:
        k = math.floor(v) + 1
        rows.partition(k, axis=1)
        a, b, g = rows[:, :k].max(axis=1), rows[:, k], v - (k - 1)
    else:
        a, b, g = rows[:, 0], rows[:, 0], v + 1.0
    # numpy's _lerp, which interpolates from the nearer neighbour.
    p05s = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
    half = n // 2
    rows.partition(half, axis=1)
    if n % 2:
        medians = np.mean(rows[:, half:half + 1], axis=1)
    else:
        medians = np.mean(np.stack((rows[:, :half].max(axis=1), rows[:, half]), axis=1), axis=1)
    for i in np.flatnonzero(np.isnan(means)):
        p05s[i] = np.percentile(rows[i], 5.0, overwrite_input=True)
        medians[i] = np.median(rows[i], overwrite_input=True)
    return means, medians, p05s


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
    (seats, n_draws) float64 SINR buffer; _row_stats takes its statistics in
    place. Each block of draws becomes path loss, received power and SINR in
    place, in the draw buffer and one received-power temporary, by the float64
    operations of the expression in each comment, in its order; the SINR goes
    into its columns of the buffer through a transposed view.
    """
    if not active_seats:
        raise ValueError("need at least one active seat")
    seen = set()
    for seat_id in active_seats:
        if seat_id in seen:
            raise ValueError(f"seat {seat_id} is listed more than once")
        seen.add(seat_id)
    _, _, means, sigmas = _links(layout, models, height, active_seats, use_all_model)
    noise_mw = 10.0 ** (noise_floor_dbm(config) / 10.0)
    # closing() ends the draw worker also when the loop raises.
    with closing(_standard_normals(seed, n_draws, len(means))) as blocks:
        sinr_db = np.empty((len(active_seats), n_draws))
        for start, z in blocks:
            # rx_mw = 10.0 ** (rx_power_dbm(config, means + sigmas * z) / 10.0)
            rx_mw = rx_power_dbm(config, np.add(means, np.multiply(sigmas, z, out=z), out=z))
            np.power(10.0, np.divide(rx_mw, 10.0, out=rx_mw), out=rx_mw)
            # sinr = 10.0 * np.log10(rx_mw / (noise_mw + rx_mw.sum(1, keepdims=True) - rx_mw))
            sinr = np.subtract(noise_mw + rx_mw.sum(axis=1, keepdims=True), rx_mw, out=z)
            np.log10(np.divide(rx_mw, sinr, out=sinr), out=sinr)
            np.multiply(10.0, sinr, out=sinr_db[:, start:start + len(sinr)].T)

    means, medians, p05s = _row_stats(sinr_db)
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

    A draw of link j clears it when its path loss, means[j] + sigmas[j] * z, is
    at most max_path_loss_db(config). Block i of the draws comes from its own
    generator, seeded by SeedSequence(seed).spawn(i + 1)[i]. A pool thread counts
    blocks 1, 3, ... while the caller counts 0, 2, ..., each in one reused buffer,
    and the integer counts are summed: the result does not depend on the
    scheduling, and memory does not grow with n_draws.
    """
    ids, _, means, sigmas = _links(layout, models, height, None, use_all_model)
    _check_draws(n_draws, len(ids))
    pl_max, starts = max_path_loss_db(config), range(0, n_draws, min(_DRAW_CHUNK_ROWS, n_draws))

    def count(share: int) -> np.ndarray:
        z, counts = np.empty((starts.step, len(ids))), np.zeros(len(ids), dtype=np.int64)
        for i in range(share, len(starts), _COVERAGE_SHARES):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            z = rng.standard_normal(out=z[:n_draws - starts[i]])
            path_loss = np.add(means, np.multiply(sigmas, z, out=z), out=z)
            counts += np.count_nonzero(path_loss <= pl_max, axis=0)
        return counts
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(_COVERAGE_SHARES) as pool:  # one thread per share submitted
        counts = sum(pool.map(count, range(1, min(_COVERAGE_SHARES, len(starts)))), count(0))
    return dict(zip(ids, (counts / n_draws).tolist()))


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
