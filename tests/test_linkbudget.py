"""Tests for link budget, coverage and interference footprint analysis."""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busloss.geometry import (
    BusLayout,
    ExcludedPositionError,
    Point3,
    SeatSpec,
    default_layout,
    link_distance,
    seats_in_group,
)
from busloss.linkbudget import (
    _DRAW_CHUNK_ROWS,
    MAX_DRAW_LINKS,
    MAX_LINK_SNR_DB,
    LinkBudgetConfig,
    _row_stats,
    _standard_normals,
    empirical_coverage,
    interference_footprint,
    link_snr,
    max_path_loss_db,
    noise_floor_dbm,
    rx_power_dbm,
    seat_sweep,
    shannon_rate,
)
from busloss.models import (
    HeightClass,
    PathLossModel,
    Region,
    builtin_registry,
    coverage_probability,
    mean_path_loss,
)
from tolerances import coverage_tolerance

CONFIG = LinkBudgetConfig(
    tx_power_dbm=10.0, g_tx_dbi=2.0, g_rx_dbi=2.0,
    bandwidth_hz=2.16e9, noise_figure_db=7.0, snr_threshold_db=5.0,
)


def two_seat_layout(sigma=0.0):
    """Two seats mirrored about the aisle: identical link geometry."""
    layout = BusLayout(
        length_m=12.80, width_m=2.55, rx=Point3(0.5, 1.275, 2.0),
        seats=[
            SeatSpec(1, 4.0, 1.0, 0.5, Region.A),
            SeatSpec(2, 4.0, 1.55, 0.5, Region.A),
        ],
    )
    models = {
        (Region.A, HeightClass.UPPER): PathLossModel(
            82.86, 2.03, sigma, region=Region.A, height=HeightClass.UPPER
        )
    }
    return layout, models


class TestNoiseFloor:
    def test_one_hertz_reference(self):
        config = LinkBudgetConfig(bandwidth_hz=1.0, noise_figure_db=0.0)
        assert noise_floor_dbm(config) == pytest.approx(-174.0)

    def test_ay_channel(self):
        assert noise_floor_dbm(CONFIG) == pytest.approx(-73.655, abs=0.005)

    def test_doubling_bandwidth(self):
        a = noise_floor_dbm(LinkBudgetConfig(bandwidth_hz=1e9))
        b = noise_floor_dbm(LinkBudgetConfig(bandwidth_hz=2e9))
        assert b - a == pytest.approx(3.0103, abs=1e-4)


class TestLinkSnr:
    def test_reference_budget(self):
        assert link_snr(CONFIG, 103.16) == pytest.approx(-15.5045, abs=0.001)

    def test_loss_linearity(self):
        assert link_snr(CONFIG, 100.0) - link_snr(CONFIG, 103.0) == pytest.approx(3.0)

    def test_zero_crossing(self):
        pl = CONFIG.tx_power_dbm + CONFIG.g_tx_dbi + CONFIG.g_rx_dbi - noise_floor_dbm(CONFIG)
        assert link_snr(CONFIG, pl) == pytest.approx(0.0)


class TestShannonRate:
    def test_unit_bandwidth(self):
        assert shannon_rate(0.0, 1.0) == pytest.approx(1.0)

    def test_vanishing_snr(self):
        assert shannon_rate(-300.0, 1e9) == pytest.approx(0.0, abs=1e-9)

    def test_twenty_db(self):
        assert shannon_rate(20.0, 2.16e9) == pytest.approx(14.3817e9, rel=1e-4)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            shannon_rate(0.0, 0.0)

    def test_huge_snr_does_not_overflow(self):
        # 10**(snr/10) overflows a float here; the rate is B * snr/10 * log2(10).
        rate = shannon_rate(4000.0, 1e9)
        assert rate == pytest.approx(1e9 * 400.0 * math.log2(10.0), rel=1e-12)


class TestSeatSweep:
    def test_report_counts(self):
        layout = default_layout()
        registry = builtin_registry()
        assert len(seat_sweep(layout, registry, CONFIG, HeightClass.UPPER)) == 30
        assert len(seat_sweep(layout, registry, CONFIG, HeightClass.LOWER)) == 22

    def test_equal_distance_equal_report(self):
        layout, models = two_seat_layout()
        a, b = seat_sweep(layout, models, CONFIG, HeightClass.UPPER)
        assert a.distance_m == b.distance_m
        assert a.snr_db == b.snr_db
        assert a.rate_bps == b.rate_bps

    def test_snr_decreases_with_distance_within_group(self):
        layout = default_layout()
        reports = seat_sweep(layout, builtin_registry(), CONFIG, HeightClass.UPPER)
        group_a = sorted(
            (r for r in reports if layout.seat(r.seat_id).group == Region.A),
            key=lambda r: r.distance_m,
        )
        snrs = [r.snr_db for r in group_a]
        assert all(x >= y for x, y in zip(snrs, snrs[1:]))

    def test_coverage_matches_analytic(self):
        # seat_sweep takes coverage from each link's mean path loss; the bits must
        # be those of coverage_probability at the link's distance.
        layout = default_layout()
        registry = builtin_registry()
        pl_max = (CONFIG.tx_power_dbm + CONFIG.g_tx_dbi + CONFIG.g_rx_dbi
                  - noise_floor_dbm(CONFIG) - CONFIG.snr_threshold_db)
        for height in HeightClass:
            for r in seat_sweep(layout, registry, CONFIG, height):
                model = registry[(layout.seat(r.seat_id).group, height)]
                assert r.coverage_prob == coverage_probability(model, r.distance_m, pl_max)

    def test_use_all_model(self):
        layout = default_layout()
        registry = builtin_registry()
        reports = seat_sweep(layout, registry, CONFIG, HeightClass.UPPER, use_all_model=True)
        model = registry[(Region.ALL, HeightClass.UPPER)]
        for r in reports:
            assert r.mean_pl_db == pytest.approx(mean_path_loss(model, r.distance_m))


class TestInterferenceFootprint:
    def test_single_seat_equals_snr_distribution(self):
        layout, models = two_seat_layout(sigma=0.0)
        (summary,) = interference_footprint(
            layout, models, CONFIG, [1], HeightClass.UPPER, seed=0, n_draws=100
        )
        d = link_distance(layout, 1, HeightClass.UPPER)
        pl = mean_path_loss(models[(Region.A, HeightClass.UPPER)], d)
        # lone transmitter: SINR is plain SNR
        assert summary.mean_db == pytest.approx(link_snr(CONFIG, pl), abs=1e-9)
        assert summary.median_db == pytest.approx(summary.mean_db, abs=1e-9)

    def test_two_equal_interferers_closed_form(self):
        layout, models = two_seat_layout(sigma=0.0)
        summaries = interference_footprint(
            layout, models, CONFIG, [1, 2], HeightClass.UPPER, seed=1, n_draws=50
        )
        d = link_distance(layout, 1, HeightClass.UPPER)
        pl = mean_path_loss(models[(Region.A, HeightClass.UPPER)], d)
        s_mw = 10 ** ((CONFIG.tx_power_dbm + 4.0 - pl) / 10.0)
        n_mw = 10 ** (noise_floor_dbm(CONFIG) / 10.0)
        expected = 10 * math.log10(s_mw / (n_mw + s_mw))
        for s in summaries:
            assert s.mean_db == pytest.approx(expected, abs=1e-9)
        assert expected < link_snr(CONFIG, pl)
        assert expected < 0.0  # equal signal and interference caps SINR below 0 dB

    def test_sinr_below_snr_with_interferers(self):
        layout = BusLayout(
            length_m=12.80, width_m=2.55, rx=Point3(0.5, 1.275, 2.0),
            seats=[
                SeatSpec(1, 3.0, 0.45, 0.5, Region.A),
                SeatSpec(2, 6.0, 1.55, 0.5, Region.A),
                SeatSpec(3, 9.5, 2.10, 0.5, Region.A),
            ],
        )
        models = {
            (Region.A, HeightClass.UPPER): PathLossModel(
                82.86, 2.03, 0.0, region=Region.A, height=HeightClass.UPPER
            )
        }
        summaries = interference_footprint(
            layout, models, CONFIG, [1, 2, 3], HeightClass.UPPER, seed=3, n_draws=10
        )
        for s in summaries:
            d = link_distance(layout, s.seat_id, HeightClass.UPPER)
            model = models[(Region.A, HeightClass.UPPER)]
            assert s.mean_db < link_snr(CONFIG, mean_path_loss(model, d))

    def test_interferer_at_noise_level_costs_3db(self):
        # adding an interferer exactly as strong as the noise halves SINR
        layout, models = two_seat_layout(sigma=0.0)
        d = link_distance(layout, 1, HeightClass.UPPER)
        pl = mean_path_loss(models[(Region.A, HeightClass.UPPER)], d)
        n_mw = 10 ** (noise_floor_dbm(CONFIG) / 10.0)
        s_mw = 10 ** ((CONFIG.tx_power_dbm + 4.0 - pl) / 10.0)
        with_interferer = 10 * math.log10(s_mw / (n_mw + n_mw))
        without = 10 * math.log10(s_mw / n_mw)
        assert without - with_interferer == pytest.approx(3.0103, abs=1e-4)

    def test_seed_determinism(self):
        layout = default_layout()
        registry = builtin_registry()
        kwargs = dict(active_seats=[2, 12], height=HeightClass.UPPER, seed=9, n_draws=500)
        a = interference_footprint(layout, registry, CONFIG, **kwargs)
        b = interference_footprint(layout, registry, CONFIG, **kwargs)
        assert [(s.mean_db, s.median_db, s.p05_db) for s in a] == [
            (s.mean_db, s.median_db, s.p05_db) for s in b
        ]

    def test_sigma_zero_independent_of_draws(self):
        layout, models = two_seat_layout(sigma=0.0)
        few = interference_footprint(layout, models, CONFIG, [1, 2], HeightClass.UPPER, seed=0, n_draws=1)
        many = interference_footprint(layout, models, CONFIG, [1, 2], HeightClass.UPPER, seed=99, n_draws=1000)
        for f, m in zip(few, many):
            assert f.mean_db == pytest.approx(m.mean_db, abs=1e-12)

    def test_repeated_seat_rejected(self):
        layout, models = two_seat_layout()
        with pytest.raises(ValueError, match="seat 2 is listed more than once"):
            interference_footprint(
                layout, models, CONFIG, [2, 1, 2], HeightClass.UPPER, seed=0, n_draws=10
            )

    def test_first_repeat_named(self):
        # Checked before any seat is resolved, so the ids need not exist.
        for active, repeat in (([7, 8, 8, 7], 8), (list(range(100, 20_100)) + [20_099, 100], 20_099)):
            with pytest.raises(ValueError, match=f"^seat {repeat} is listed more than once$"):
                interference_footprint(LAYOUT, REGISTRY, CONFIG, active, HeightClass.UPPER, 0, 10)

    def test_seats_resolved_before_draw_count(self):
        for n_draws in (0, MAX_DRAW_LINKS + 1):
            with pytest.raises(ExcludedPositionError):
                interference_footprint(
                    default_layout(), builtin_registry(), CONFIG, [5], HeightClass.LOWER,
                    seed=0, n_draws=n_draws,
                )

    def test_draw_links_over_limit_rejected(self):
        # Only draw counts over the limit are used: the check comes before any allocation.
        layout, models = two_seat_layout()
        n_draws = MAX_DRAW_LINKS // 2 + 1
        with pytest.raises(ValueError, match="draws x 2 links"):
            interference_footprint(
                layout, models, CONFIG, [1, 2], HeightClass.UPPER, seed=0, n_draws=n_draws
            )
        with pytest.raises(ValueError, match="draws x 2 links"):
            empirical_coverage(layout, models, CONFIG, HeightClass.UPPER, seed=0, n_draws=n_draws)


class TestEmpiricalCoverage:
    def test_sigma_zero_above_threshold(self):
        layout, models = two_seat_layout(sigma=0.0)
        config = LinkBudgetConfig(tx_power_dbm=60.0, snr_threshold_db=5.0)
        cov = empirical_coverage(layout, models, config, HeightClass.UPPER, seed=0, n_draws=10)
        assert set(cov.values()) == {1.0}
        # With beta = 0 the path loss is alpha exactly: a link at the largest path
        # loss clears the threshold, and one a double above it does not.
        pl_max = max_path_loss_db(CONFIG)
        for alpha, expected in [(pl_max, 1.0), (float(np.nextafter(pl_max, math.inf)), 0.0)]:
            models = {(Region.A, HeightClass.UPPER): PathLossModel(
                alpha, 0.0, 0.0, region=Region.A, height=HeightClass.UPPER)}
            cov = empirical_coverage(layout, models, CONFIG, HeightClass.UPPER, seed=0, n_draws=10)
            assert set(cov.values()) == {expected}

    def test_threshold_minus_inf(self):
        layout, models = two_seat_layout(sigma=3.0)
        config = LinkBudgetConfig(snr_threshold_db=-math.inf)
        cov = empirical_coverage(layout, models, config, HeightClass.UPPER, seed=0, n_draws=100)
        assert set(cov.values()) == {1.0}

    def test_converges_to_analytic(self):
        layout = default_layout()
        registry = builtin_registry()
        n_draws = 200_000
        cov = empirical_coverage(layout, registry, CONFIG, HeightClass.LOWER, seed=17, n_draws=n_draws)
        pl_max = (CONFIG.tx_power_dbm + 4.0 - noise_floor_dbm(CONFIG) - CONFIG.snr_threshold_db)
        for seat_id, fraction in cov.items():
            model = registry[(layout.seat(seat_id).group, HeightClass.LOWER)]
            d = link_distance(layout, seat_id, HeightClass.LOWER)
            p = coverage_probability(model, d, pl_max)
            assert abs(fraction - p) <= coverage_tolerance(p, n_draws)

    def test_threshold_plus_inf(self):
        layout, models = two_seat_layout(sigma=3.0)
        config = LinkBudgetConfig(snr_threshold_db=math.inf)
        cov = empirical_coverage(layout, models, config, HeightClass.UPPER, seed=0, n_draws=100)
        assert set(cov.values()) == {0.0}

    @pytest.mark.parametrize("tx_power_dbm, expected", [(-300.0, 0.0), (120.0, 1.0)])
    def test_budget_range_ends(self, tx_power_dbm, expected):
        config = LinkBudgetConfig(tx_power_dbm=tx_power_dbm)
        cov = empirical_coverage(LAYOUT, REGISTRY, config, HeightClass.UPPER, seed=0, n_draws=100)
        assert set(cov.values()) == {expected}


class TestMutatedLayout:
    """A seat appended to a copy of default_layout(), built by replace, takes part in
    every link-budget function."""

    @pytest.mark.parametrize("height", list(HeightClass))
    def test_appended_seat_in_every_result(self, height):
        base = default_layout()
        layout = replace(base, seats=base.seats + (SeatSpec(31, 1.0, 1.0, 0.5, Region.A),))
        registry = builtin_registry()
        d = link_distance(layout, 31, height)
        report = seat_sweep(layout, registry, CONFIG, height)[-1]
        assert (report.seat_id, report.distance_m) == (31, d)
        footprint = interference_footprint(layout, registry, CONFIG, [31, 14], height, 1, 50)
        assert [s.seat_id for s in footprint] == [31, 14]
        coverage = empirical_coverage(layout, registry, CONFIG, height, 1, 50)
        assert list(coverage)[-1] == 31
        assert list(coverage) == [r.seat_id for r in seat_sweep(layout, registry, CONFIG, height)]


LAYOUT = default_layout()
REGISTRY = builtin_registry()
UPPER_SEATS = seats_in_group(LAYOUT, Region.ALL, HeightClass.UPPER)


def shadowed_path_loss(seat_ids, height, z):
    """means + sigmas * z for the seats' links, z a (draws, seats) array of standard normals."""
    models = [REGISTRY[(LAYOUT.seat(s).group, height)] for s in seat_ids]
    means = np.array([mean_path_loss(m, link_distance(LAYOUT, s, height))
                      for m, s in zip(models, seat_ids)])
    sigmas = np.array([m.sigma_db for m in models])
    return means + sigmas * z


def one_shot_path_loss(seat_ids, height, seed, n_draws):
    """The single (n_draws, k) draw from one Generator that the footprint's blocks
    must reproduce."""
    z = np.random.default_rng(seed).standard_normal((n_draws, len(seat_ids)))
    return shadowed_path_loss(seat_ids, height, z)


def per_block_path_loss(seat_ids, height, seed, n_draws, rows):
    """The draws coverage counts: block i, of rows draws, from its own generator,
    seeded by SeedSequence(seed, spawn_key=(i,))."""
    z = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))).standard_normal(
        (min(rows, n_draws - start), len(seat_ids))) for i, start in enumerate(range(0, n_draws, rows))]
    return shadowed_path_loss(seat_ids, height, np.concatenate(z))


class TestDrawBlocks:
    """The block-wise engine against one full draw (the footprint) or one draw per
    block (coverage), with blocks of 1-5 rows so that every n_draws meets the block
    edges differently. Equality is exact: the blocks hold the same numbers in the
    same order."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.integers(1, 5),
        n_draws=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
        active=st.lists(st.sampled_from(UPPER_SEATS), min_size=1, max_size=6, unique=True),
        height=st.sampled_from(list(HeightClass)),
        tx_power_dbm=st.floats(10.0, 40.0),
    )
    def test_blocks_match_one_draw(self, rows, n_draws, seed, active, height, tx_power_dbm):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("busloss.linkbudget._DRAW_CHUNK_ROWS", rows)
            # A block holds only until the next is taken, so keep a copy.
            blocks = [(start, block.copy()) for start, block in
                      _standard_normals(seed, n_draws, len(active))]
            footprint = interference_footprint(
                LAYOUT, REGISTRY, CONFIG, active, HeightClass.UPPER, seed, n_draws)
            config = LinkBudgetConfig(tx_power_dbm=tx_power_dbm)
            coverage = empirical_coverage(LAYOUT, REGISTRY, config, height, seed, n_draws)

        z = np.random.default_rng(seed).standard_normal((n_draws, len(active)))
        assert [start for start, _ in blocks] == list(range(0, n_draws, rows))
        assert all(len(block) <= rows for _, block in blocks)
        assert np.array_equal(np.concatenate([block for _, block in blocks]), z)

        pl = one_shot_path_loss(active, HeightClass.UPPER, seed, n_draws)

        rx_mw = 10.0 ** (rx_power_dbm(CONFIG, pl) / 10.0)
        noise_mw = 10.0 ** (noise_floor_dbm(CONFIG) / 10.0)
        sinr = 10.0 * np.log10(rx_mw / (noise_mw + rx_mw.sum(axis=1, keepdims=True) - rx_mw))
        assert [(s.seat_id, s.mean_db, s.median_db, s.p05_db) for s in footprint] == [
            (seat_id, np.mean(sinr[:, i]), np.median(sinr[:, i]), np.percentile(sinr[:, i], 5.0))
            for i, seat_id in enumerate(active)
        ]

        seat_ids = seats_in_group(LAYOUT, Region.ALL, height)
        pl = per_block_path_loss(seat_ids, height, seed, n_draws, rows)
        fractions = np.mean(pl <= max_path_loss_db(config), axis=0)
        assert coverage == {seat_id: fractions[i] for i, seat_id in enumerate(seat_ids)}

    @pytest.mark.parametrize("rows, n_draws", [(3, 1), (3, 4), (3, 10), (3, 17),
                                               (_DRAW_CHUNK_ROWS, 3 * _DRAW_CHUNK_ROWS + 5)])
    def test_coverage_independent_of_shares(self, rows, n_draws):
        config = LinkBudgetConfig(tx_power_dbm=25.0)
        results = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("busloss.linkbudget._DRAW_CHUNK_ROWS", rows)
            for shares in (1, 2, 3):
                mp.setattr("busloss.linkbudget._COVERAGE_SHARES", shares)
                results.append(empirical_coverage(LAYOUT, REGISTRY, config, HeightClass.UPPER,
                                                  11, n_draws))
        assert results[0] == results[1] == results[2]
        pl = per_block_path_loss(UPPER_SEATS, HeightClass.UPPER, 11, n_draws, rows)
        assert list(results[0].values()) == np.mean(pl <= max_path_loss_db(config), axis=0).tolist()

    def test_block_seed_is_a_spawned_child(self):
        children = np.random.SeedSequence(11).spawn(5)
        assert [c.generate_state(4).tolist() for c in children] == [
            np.random.SeedSequence(11, spawn_key=(i,)).generate_state(4).tolist() for i in range(5)]


class TestDrawAhead:
    """The worker that draws block i + 1 while the caller holds block i, with blocks
    of 1-5 rows as in TestDrawBlocks, and the thread it runs on."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 5), n_draws=st.integers(1, 30), n_links=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_held_block_survives_the_worker(self, rows, n_draws, n_links, seed):
        z = np.random.default_rng(seed).standard_normal((n_draws, n_links))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("busloss.linkbudget._DRAW_CHUNK_ROWS", rows)
            for start, block in _standard_normals(seed, n_draws, n_links):
                assert np.array_equal(block, z[start:start + len(block)])
                block[:] = np.nan  # overwritten in place, as the footprint does
                time.sleep(1e-3)  # the worker draws the next block meanwhile
                assert np.isnan(block).all()

    def test_worker_lives_while_blocks_remain(self):
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("busloss.linkbudget._DRAW_CHUNK_ROWS", 2)
            counts = [threading.active_count() for _ in _standard_normals(1, 7, 3)]
        assert counts == [before + 1] * 3 + [before]

    def test_no_thread_outlives_a_call(self):
        before, n_draws = threading.active_count(), 3 * _DRAW_CHUNK_ROWS + 1
        interference_footprint(LAYOUT, REGISTRY, CONFIG, UPPER_SEATS, HeightClass.UPPER, 3, n_draws)
        assert threading.active_count() == before
        empirical_coverage(LAYOUT, REGISTRY, CONFIG, HeightClass.LOWER, 3, n_draws)
        assert threading.active_count() == before
        blocks = _standard_normals(3, n_draws, 2)
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before

    def test_no_thread_outlives_a_raise(self, monkeypatch):
        counts = []

        def failing_rx_power_dbm(config, pl_db):
            counts.append(threading.active_count())
            if len(counts) == 2:
                raise RuntimeError("second block")
            return rx_power_dbm(config, pl_db)

        monkeypatch.setattr("busloss.linkbudget.rx_power_dbm", failing_rx_power_dbm)
        before = threading.active_count()
        # The traceback holds the footprint's frame, and with it the block generator.
        with pytest.raises(RuntimeError, match="second block") as raised:
            interference_footprint(LAYOUT, REGISTRY, CONFIG, UPPER_SEATS, HeightClass.UPPER, 3,
                                   3 * _DRAW_CHUNK_ROWS)
        assert raised.traceback and counts == [before + 1] * 2
        assert threading.active_count() == before

        # Coverage: the second block counted raises, on the caller's thread or the
        # pool's, and the other share may count its next block meanwhile.
        counted, count_nonzero = [], np.count_nonzero

        def failing_count_nonzero(*args, **kwargs):
            counted.append(threading.active_count())
            if len(counted) == 2:
                raise RuntimeError("second block")
            return count_nonzero(*args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", failing_count_nonzero)
        with pytest.raises(RuntimeError, match="second block"):
            empirical_coverage(LAYOUT, REGISTRY, CONFIG, HeightClass.UPPER, 3, 3 * _DRAW_CHUNK_ROWS)
        assert counted in ([before + 1] * 2, [before + 1] * 3)
        assert threading.active_count() == before

    def test_concurrent_calls_agree_with_serial(self):
        # More callers than cores, each with its own worker, switching threads often.
        n_draws, seeds = 3 * _DRAW_CHUNK_ROWS + 5, range(4)
        coverage_config = LinkBudgetConfig(tx_power_dbm=25.0)

        def call(seed):
            return (interference_footprint(LAYOUT, REGISTRY, CONFIG, UPPER_SEATS[:6],
                                           HeightClass.UPPER, seed, n_draws),
                    empirical_coverage(LAYOUT, REGISTRY, coverage_config, HeightClass.LOWER, seed,
                                       n_draws))

        serial, results = [call(seed) for seed in seeds], {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda s=seed: results.update({s: call(s)}))
                       for seed in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert [results[seed] for seed in seeds] == serial

    def test_single_block_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"{thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for n_draws in (1, _DRAW_CHUNK_ROWS):
            interference_footprint(LAYOUT, REGISTRY, CONFIG, UPPER_SEATS, HeightClass.UPPER, 3, n_draws)
            empirical_coverage(LAYOUT, REGISTRY, CONFIG, HeightClass.UPPER, 3, n_draws)
        with pytest.raises(AssertionError, match="started"):
            interference_footprint(LAYOUT, REGISTRY, CONFIG, UPPER_SEATS, HeightClass.UPPER, 3,
                                   _DRAW_CHUNK_ROWS + 1)


def monte_carlo_digests(n_draws, height, use_all_model, snr_threshold_db=5.0, zero_sigma=False):
    """(footprint, coverage): the first 128 bits of the SHA-256 of float.hex of every
    FootprintSummary field (all eligible seats active), and of every
    empirical_coverage fraction, seed 23, 20 dBm budget."""
    registry = ({key: replace(m, sigma_db=0.0) for key, m in REGISTRY.items()}
                if zero_sigma else REGISTRY)
    config = LinkBudgetConfig(tx_power_dbm=20.0, snr_threshold_db=snr_threshold_db)
    seats = seats_in_group(LAYOUT, Region.ALL, height)
    footprint = interference_footprint(LAYOUT, registry, config, seats, height, 23, n_draws,
                                       use_all_model)
    coverage = empirical_coverage(LAYOUT, registry, config, height, 23, n_draws, use_all_model)
    return tuple(hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32] for lines in (
        [f"{s.seat_id} {s.mean_db.hex()} {s.median_db.hex()} {s.p05_db.hex()}" for s in footprint],
        [f"{seat_id} {fraction.hex()}" for seat_id, fraction in coverage.items()]))


class TestMonteCarloBits:
    """The footprint and coverage outputs, bit for bit, as recorded on numpy 2.4
    (x86-64), each under its own digest. tests/golden compares to a relative 1e-12,
    so only this catches a changed last bit; a numpy or libm whose pow or log10
    rounds differently fails here too. The draw counts straddle the 4,096-row
    block."""

    # Each case keeps the test id it had when one digest hashed both outputs.
    IDS = [
        "d6b7dc1a63ccda1a94e9e5bde7e35e3b",
        "a8695190b6a4b9e4adcb5e5e534249fc",
        "60d4dd4f35882bbb39f8639bc49b2d97",
        "bc42201bd658659016f5613bf09103ba",
        "972003ce1c739e0175d28deb34bd375d",
        "4929ec9e02019fcbf65129bbf5764f72",
        "2ebeb1b00135cf7cb62b010c2a8d429a",
        "07f1d768754e81533ac2b11a75efa3b1",
        "b0d9b7dadaacab6453c5708df73fcf2a",
        "fd000bfa070f5b5dfbbaf4d7efdd0ef2",
        "d998650db30e6646fece5645aff43d37",
        "9cd358749a6c71e4373a08115813fda1",
        "63fa5d4001a48bd4a13454920dbfa000",
        "9c5fa76f71cc8ebc23f70405e6e7337f",
        "ff40a2c72c8440c0f92dc40f97c2c2cd",
        "756a40fa578a3daeb5d05804a54c0ab0",
        "0a8beae9d50eb83a198009bdadb94206",
        "1be2c002513c771165e3b1c2a4a50062",
        "73956705d8f30af6ecd55790e39dad9e",
        "ae1c21ab071784132e5f6780a360d6ad",
        "46df4849e9ddd571a7189c088bc39377",
        "ccbb1e4e80817889849a8cb6d5929456",
    ]

    @pytest.mark.parametrize("case, footprint, coverage", [
        ((1, HeightClass.UPPER, False), "69563c803a0f61c77d773a4e0fbfeeb4",
         "d1742ed994fb20287bf8085b2af7eb98"),
        ((1, HeightClass.UPPER, True), "4f614923c9f1523dee66d6abfd2a17fb",
         "76f4e52a18c39183901e8f9ec477f6ee"),
        ((1, HeightClass.LOWER, False), "773c9d1f60c2ff908f6bca5d64340c4d",
         "8575360032d38a5c80a20b03bac82657"),
        ((1, HeightClass.LOWER, True), "0a500a09cd5aa0a9cc8ea54b99d5b849",
         "8575360032d38a5c80a20b03bac82657"),
        ((4095, HeightClass.UPPER, False), "66631ae661153e3ff37462c3c1822b36",
         "046f545120469ff0ea04d01db6fdbdcc"),
        ((4095, HeightClass.UPPER, True), "c98e338848ec94dc64d717791972808b",
         "d5ac30d5bf3d7d716d3d2249dfdcb05f"),
        ((4095, HeightClass.LOWER, False), "057d6c7b9d3d33d13ce018c529b0f337",
         "1346fbb3c06c5fd88f9719695abc855b"),
        ((4095, HeightClass.LOWER, True), "911665ff4dfb1219ab2362ab11ac67cc",
         "0128dd30a6d0562f70ebb216b1c0d0ed"),
        ((4097, HeightClass.UPPER, False), "618d05b5c098ac88bc6070cd119d1a85",
         "947df76a3151f4b8c50e06719e594082"),
        ((4097, HeightClass.UPPER, True), "cfba1d3143ff5f285fc5cfc66df82436",
         "24d872d7f520aa8658d05bea118b8501"),
        ((4097, HeightClass.LOWER, False), "ab39513f6e1e93629f525d5a734e29f9",
         "a61a8896bdaaef278feaff7495b19ffe"),
        ((4097, HeightClass.LOWER, True), "ef4f4ee06146bc10405431174bae02ed",
         "dcf72407aa96151c4e1a7d66105557c4"),
        ((20000, HeightClass.UPPER, False), "b7a345be286a8fd521f1973e12d59054",
         "fd03088895b64eff9d0d24922d049e19"),
        ((20000, HeightClass.UPPER, True), "d3f2eb3e06574af28bb7ae8c05daf873",
         "9c7a93c81a5d55ae9185a27607556419"),
        ((20000, HeightClass.LOWER, False), "876dd7a46e4803abad1abd13aa2d57cd",
         "9418d31b164430615633cce7f710d551"),
        ((20000, HeightClass.LOWER, True), "1bac6f2a902a2d8bd79b65b4fc10ad6d",
         "028e4e7bfd9e14df9f1aa8366964eacc"),
        ((4097, HeightClass.UPPER, False, math.inf), "618d05b5c098ac88bc6070cd119d1a85",
         "f3ef5d26e9686ce386d4221a6759e284"),
        ((4097, HeightClass.UPPER, False, -math.inf), "618d05b5c098ac88bc6070cd119d1a85",
         "1abf02853e452a00416a985eb7ef3a5c"),
        ((4097, HeightClass.LOWER, False, math.inf), "ab39513f6e1e93629f525d5a734e29f9",
         "a225431d16bf0d25eb024ebd2ed84fb1"),
        ((4097, HeightClass.LOWER, False, -math.inf), "ab39513f6e1e93629f525d5a734e29f9",
         "a28b3303b787613ff638086f6e210415"),
        ((4097, HeightClass.UPPER, False, 5.0, True), "3b21ddf457ba2d9b6f91d22ce9b97ad5",
         "3b29773ec5eff3ea9523e649ca307dab"),
        ((4097, HeightClass.LOWER, False, 5.0, True), "825a05055f056b755bcb3100c0f6d003",
         "18b9738c921c10d1c880776667ca73ec"),
    ], ids=[f"case{i}-{name}" for i, name in enumerate(IDS)])
    def test_outputs_unchanged(self, case, footprint, coverage):
        assert monte_carlo_digests(*case) == (footprint, coverage)


class TestRowStats:
    """_row_stats against numpy's own np.mean, np.median and np.percentile(..., 5.0),
    bit for bit. Rows are normal, tied (halves) or small integers, some with
    infinities or a NaN. Each zero is +0.0: the SINR, 10*log10(x), is never -0.0,
    and with both zeros in a row which of them lands at a rank depends on the
    partition's order."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 5_000) | st.sampled_from([4_097, 100_003, 500_000]),
        n_rows=st.integers(1, 3),
        kind=st.sampled_from(["normal", "tied", "integer"]),
        specials=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy(self, n, n_rows, kind, specials, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n_rows, n)) * 4.0 - 10.0
        if kind == "tied":
            rows = np.round(rows * 2.0) / 2.0
        elif kind == "integer":
            rows = rng.integers(-3, 4, (n_rows, n)).astype(float)
        for value in specials:
            rows[rng.integers(n_rows), rng.integers(n)] = value
        rows += 0.0
        # Both sides subtract infinities in the interpolation.
        with np.errstate(invalid="ignore"):
            expected = (np.mean(rows, axis=1), np.median(rows, axis=1),
                        np.percentile(rows, 5.0, axis=1))
            got = _row_stats(rows.copy())
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def traced_peak(call) -> int:
    """Peak bytes traced while call() runs; tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloMemory:
    """Memory, not time: the draw count must not set the coverage peak, and the
    footprint may hold only its SINR buffer plus per-block temporaries."""

    COVERAGE_CONFIG = LinkBudgetConfig(tx_power_dbm=25.0)
    BLOCK_BYTES = _DRAW_CHUNK_ROWS * len(UPPER_SEATS) * 8

    def setup_method(self):
        # First calls allocate numpy's and the registry's one-off state. Two
        # blocks each, so the draw-ahead worker's imports are done too.
        n_draws = _DRAW_CHUNK_ROWS + 1
        empirical_coverage(LAYOUT, REGISTRY, self.COVERAGE_CONFIG, HeightClass.UPPER, seed=0, n_draws=n_draws)
        interference_footprint(LAYOUT, REGISTRY, CONFIG, UPPER_SEATS, HeightClass.UPPER, 0, n_draws)

    def test_coverage_peak_independent_of_draws(self):
        small, large = (
            traced_peak(lambda: empirical_coverage(
                LAYOUT, REGISTRY, self.COVERAGE_CONFIG, HeightClass.UPPER, seed=3, n_draws=n_draws))
            for n_draws in (50_000, 400_000)
        )
        assert abs(large - small) <= self.BLOCK_BYTES

    def test_footprint_peak_is_one_buffer(self):
        n_draws = 100_000
        peak = traced_peak(lambda: interference_footprint(
            LAYOUT, REGISTRY, CONFIG, UPPER_SEATS, HeightClass.UPPER, seed=3, n_draws=n_draws))
        # The two draw buffers and a block's SINR temporaries are about six
        # block-sized arrays; the statistics reorder the buffer in place.
        assert peak < len(UPPER_SEATS) * n_draws * 8 + 8 * self.BLOCK_BYTES


class TestConfigValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkBudgetConfig(bandwidth_hz=0.0)

    def test_negative_noise_figure(self):
        with pytest.raises(ValueError):
            LinkBudgetConfig(noise_figure_db=-1.0)

    @pytest.mark.parametrize("name", [
        "tx_power_dbm", "g_tx_dbi", "g_rx_dbi", "bandwidth_hz", "noise_figure_db",
        "snr_threshold_db",
    ])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            LinkBudgetConfig(**{name: math.nan})

    @pytest.mark.parametrize("name", [
        "tx_power_dbm", "g_tx_dbi", "g_rx_dbi", "bandwidth_hz", "noise_figure_db",
    ])
    def test_infinity_rejected(self, name):
        for value in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                LinkBudgetConfig(**{name: value})

    def test_infinite_threshold_allowed(self):
        assert LinkBudgetConfig(snr_threshold_db=math.inf).snr_threshold_db == math.inf

    @pytest.mark.parametrize("name, value", [
        ("tx_power_dbm", 300.5), ("tx_power_dbm", -1e300), ("g_tx_dbi", 301.0),
        ("g_rx_dbi", -300.5), ("bandwidth_hz", 1.5e12), ("noise_figure_db", 300.5),
    ])
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be in"):
            LinkBudgetConfig(**{name: value})

    def test_range_ends_allowed(self):
        LinkBudgetConfig(tx_power_dbm=-300.0, g_tx_dbi=-300.0, g_rx_dbi=-300.0,
                         bandwidth_hz=1e12, noise_figure_db=300.0)

    def test_link_snr_at_zero_path_loss_bounded(self):
        config = replace(CONFIG, tx_power_dbm=MAX_LINK_SNR_DB - link_snr(CONFIG, 0.0) + 10.0)
        assert link_snr(config, 0.0) == pytest.approx(MAX_LINK_SNR_DB)
        with pytest.raises(ValueError, match=r"tx_power_dbm \+ g_tx_dbi \+ g_rx_dbi"):
            replace(config, tx_power_dbm=config.tx_power_dbm + 0.01)
        with pytest.raises(ValueError, match="bandwidth_hz and noise_figure_db"):
            replace(config, bandwidth_hz=1e-300)

    @pytest.mark.parametrize("height", list(HeightClass))
    def test_footprint_finite_at_the_limit(self, height):
        """A lone seat and the whole layout, at the most power the bound allows."""
        config = LinkBudgetConfig(tx_power_dbm=22.0, bandwidth_hz=1.0, noise_figure_db=0.0)
        assert link_snr(config, 0.0) == MAX_LINK_SNR_DB
        seats = seats_in_group(LAYOUT, Region.ALL, height)
        for active in (seats[:1], seats):
            for s in interference_footprint(LAYOUT, REGISTRY, config, active, height, 3, 2_000):
                assert all(map(math.isfinite, (s.mean_db, s.median_db, s.p05_db)))
