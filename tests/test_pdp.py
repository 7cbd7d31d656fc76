"""Tests for power delay profile reduction and measurement directory I/O."""

import numpy as np
import pytest

from busloss.geometry import default_layout, link_distance
from busloss.models import HeightClass, PathLossModel, Region, builtin_model, mean_path_loss
from busloss.pdp import (
    LinkCalibration,
    MeasurementSet,
    PdpFormatError,
    PdpRecord,
    aggregate_measurement,
    delay_to_distance,
    integrate_pdp,
    MAX_SWEEPS,
    load_measurement_dir,
    load_pdp_csv,
    measurements_to_samples,
    path_loss_from_power,
    peak_component,
    pdp_to_csv,
    synth_measurements,
    write_measurement_dir,
)


def make_pdp(delays, powers):
    return PdpRecord(np.asarray(delays, float), np.asarray(powers, float))


CAL = LinkCalibration(radiated_power_db=0.0, g_tx_dbi=2.0, g_rx_dbi=2.0)


class TestIntegratePdp:
    def test_single_bin_identity(self):
        assert integrate_pdp(make_pdp([13.5], [-99.4])) == pytest.approx(-99.4)

    def test_two_equal_bins(self):
        assert integrate_pdp(make_pdp([10, 20], [-100, -100]), 25.0) == pytest.approx(
            -96.98970004336019
        )

    def test_threshold_discards_weak_bin(self):
        assert integrate_pdp(make_pdp([10, 20], [-100, -140]), 25.0) == pytest.approx(-100.0)

    def test_empty_pdp_rejected(self):
        with pytest.raises(ValueError):
            integrate_pdp(make_pdp([], []))

    def test_bounded_by_peak_plus_bin_count(self):
        rng = np.random.default_rng(4)
        powers = -100 + 5 * rng.standard_normal(40)
        pdp = make_pdp(np.arange(40.0), powers)
        total = integrate_pdp(pdp, 25.0)
        peak = powers.max()
        kept = np.sum(powers >= peak - 25.0)
        assert peak <= total <= peak + 10 * np.log10(kept)

    def test_threshold_monotone(self):
        rng = np.random.default_rng(5)
        pdp = make_pdp(np.arange(30.0), -100 + 8 * rng.standard_normal(30))
        totals = [integrate_pdp(pdp, t) for t in (5, 15, 25, 40)]
        assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))


class TestPathLossFromPower:
    def test_reference_values(self):
        assert path_loss_from_power(CAL, -99.4) == pytest.approx(103.4)

    def test_zero_gain_identity(self):
        cal = LinkCalibration(radiated_power_db=-50.0, g_tx_dbi=0.0, g_rx_dbi=0.0)
        assert path_loss_from_power(cal, -50.0) == 0.0

    def test_linearity_in_rx_power(self):
        assert path_loss_from_power(CAL, -97.0) == pytest.approx(
            path_loss_from_power(CAL, -100.0) - 3.0
        )


class TestPeakComponent:
    def test_max_bin(self):
        pdp = make_pdp([10.0, 13.5, 20.0], [-110.0, -99.4, -105.0])
        assert peak_component(pdp) == (13.5, -99.4)

    def test_tie_takes_earliest(self):
        pdp = make_pdp([10.0, 20.0], [-100.0, -100.0])
        assert peak_component(pdp)[0] == 10.0

    def test_single_bin(self):
        assert peak_component(make_pdp([5.0], [-120.0])) == (5.0, -120.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            peak_component(make_pdp([], []))


class TestDelayToDistance:
    def test_measured_peak_delay(self):
        d = delay_to_distance(13.5)
        assert d == pytest.approx(4.047, abs=0.001)
        assert round(d, 2) == 4.05

    def test_zero(self):
        assert delay_to_distance(0.0) == 0.0

    def test_ten_metres(self):
        assert delay_to_distance(33.356) == pytest.approx(10.0, abs=0.001)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            delay_to_distance(-1.0)


class TestAggregateMeasurement:
    def test_identical_sweeps_idempotent(self):
        sweep = make_pdp([13.5], [-99.4])
        one = MeasurementSet(seat=14, height=HeightClass.UPPER, sweeps=[sweep])
        ten = MeasurementSet(seat=14, height=HeightClass.UPPER, sweeps=[sweep] * 10)
        assert aggregate_measurement(one, CAL) == aggregate_measurement(ten, CAL)

    def test_linear_domain_power_mean(self):
        sweeps = [make_pdp([10.0], [-100.0]), make_pdp([10.0], [-90.0])]
        mset = MeasurementSet(seat=1, height=HeightClass.LOWER, sweeps=sweeps)
        _, pl = aggregate_measurement(mset, CAL)
        # mean rx power is 10*log10((1e-10 + 1e-9)/2) = -92.596 dB, not -95
        assert pl == pytest.approx(0.0 - (-92.59637310505755) + 4.0)

    def test_median_peak_delay(self):
        sweeps = [make_pdp([d], [-100.0]) for d in (13.0, 13.5, 14.0)]
        mset = MeasurementSet(seat=1, height=HeightClass.UPPER, sweeps=sweeps)
        d, _ = aggregate_measurement(mset, CAL)
        assert d == pytest.approx(delay_to_distance(13.5))

    def test_sweep_order_irrelevant(self):
        sweeps = [make_pdp([d], [p]) for d, p in ((12.0, -101.0), (13.0, -99.0), (15.0, -104.0))]
        a = MeasurementSet(seat=1, height=HeightClass.UPPER, sweeps=sweeps)
        b = MeasurementSet(seat=1, height=HeightClass.UPPER, sweeps=sweeps[::-1])
        assert aggregate_measurement(a, CAL) == aggregate_measurement(b, CAL)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_measurement(
                MeasurementSet(seat=1, height=HeightClass.UPPER, sweeps=[]), CAL
            )

    @pytest.mark.parametrize("sweeps, reason", [
        ([([0.0], [-90.0])], "distance"),
        ([([0.0, 5.0], [-90.0, -95.0])] * 2 + [([2.0], [-99.0])], "distance"),
        ([([-5.0], [-90.0])], "distance"),
        ([([13.0], [5000.0])], "received power"),
        ([([13.0], [-5000.0])], "received power"),
        ([([13.0], [3080.0])] * 2, "received power"),
    ])
    def test_meaningless_set_named(self, sweeps, reason):
        mset = MeasurementSet(seat=14, height=HeightClass.UPPER,
                              sweeps=[make_pdp(d, p) for d, p in sweeps])
        with pytest.raises(ValueError, match=f"^14_upper: .*{reason}"):
            aggregate_measurement(mset, CAL)

    def test_sweep_below_float_range_counts_as_zero_power(self):
        # 10**(-500) is 0.0 in a double, which is its correctly rounded share of the mean
        sweeps = [make_pdp([13.0], [-90.0]), make_pdp([13.0], [-5000.0])]
        mset = MeasurementSet(seat=1, height=HeightClass.UPPER, sweeps=sweeps)
        assert aggregate_measurement(mset, CAL)[1] == pytest.approx(90.0 + 4.0 + 10 * np.log10(2))

    def test_end_to_end_single_component(self):
        # a lone component carrying exactly the model's mean loss round-trips
        model = builtin_model(Region.ALL, HeightClass.UPPER)
        d = 4.05
        loss = mean_path_loss(model, d)
        power = CAL.radiated_power_db + CAL.g_tx_dbi + CAL.g_rx_dbi - loss
        delay_ns = d / 299792458.0 * 1e9
        mset = MeasurementSet(
            seat=14, height=HeightClass.UPPER, sweeps=[make_pdp([delay_ns], [power])] * 10
        )
        dist, pl = aggregate_measurement(mset, CAL)
        assert pl == pytest.approx(loss, abs=1e-9)
        assert dist == pytest.approx(d, abs=1e-9)


class TestPdpValidation:
    def test_non_monotone_delays_rejected(self):
        with pytest.raises(ValueError):
            make_pdp([10.0, 10.0], [-100.0, -100.0])

    def test_non_finite_power_rejected(self):
        with pytest.raises(ValueError):
            make_pdp([1.0], [np.inf])

    # A NaN step passes the strictly-increasing check, so finiteness is checked first.
    @pytest.mark.parametrize("delays", [[np.nan, 1.0], [1.0, np.inf]])
    def test_non_finite_delay_rejected(self, delays):
        with pytest.raises(ValueError, match="all delays must be finite"):
            make_pdp(delays, [0.0, 0.0])


class TestMeasurementIo:
    def test_csv_round_trip(self, tmp_path):
        pdp = make_pdp([1.0, 2.5, 7.25], [-100.0, -104.5, -120.0])
        path = tmp_path / "sweep.csv"
        path.write_text(pdp_to_csv(pdp))
        back = load_pdp_csv(path)
        assert np.array_equal(back.delays_ns, pdp.delays_ns)
        assert np.array_equal(back.powers_db, pdp.powers_db)

    @pytest.mark.parametrize("row", ["2.0,inf", "2.0,-inf", "2.0,nan", "nan,-100"])
    def test_non_finite_value_named_line(self, tmp_path, row):
        path = tmp_path / "sweep_0.csv"
        path.write_text(f"delay_ns,power_db\n1.0,-100\n{row}\n")
        with pytest.raises(PdpFormatError, match=r"sweep_0\.csv:3: values must be finite"):
            load_pdp_csv(path)

    def test_write_refuses_set_with_sweeps(self, tmp_path):
        sets = [MeasurementSet(3, HeightClass.UPPER, [make_pdp([1.0], [-90.0])]),
                MeasurementSet(5, HeightClass.UPPER, [make_pdp([2.0], [-91.0])])]
        (tmp_path / "3_upper").mkdir()
        (tmp_path / "3_upper" / "meta.json").write_text("{}")
        write_measurement_dir(tmp_path, sets[:1])  # a set directory without sweeps is reused
        with pytest.raises(ValueError, match="^cannot write .*3_upper: already holds sweep files$"):
            write_measurement_dir(tmp_path, sets)
        assert not (tmp_path / "5_upper").exists()

    def test_infinite_seat_in_metadata_rejected(self, tmp_path):
        entry = tmp_path / "1_upper"
        entry.mkdir()
        (entry / "meta.json").write_text('{"seat": 1e400, "height": "upper"}')
        (entry / "sweep_0.csv").write_text("delay_ns,power_db\n1.0,-90\n")
        with pytest.raises(PdpFormatError, match="meta.json: bad metadata"):
            load_measurement_dir(tmp_path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "sweep_0.csv"
        path.write_text("delay_ns,power_db\n1.0,-100\n\n , \n\t\n2.0,-101\n")
        assert load_pdp_csv(path).powers_db.tolist() == [-100.0, -101.0]
        path.write_text("delay_ns,power_db\n1.0,-100\n ,x\n")
        with pytest.raises(PdpFormatError, match=":3: non-numeric"):
            load_pdp_csv(path)

    def test_header_only_file_named(self, tmp_path):
        path = tmp_path / "sweep_0.csv"
        path.write_text("delay_ns,power_db\n\n")
        with pytest.raises(PdpFormatError, match=r"sweep_0\.csv: no delay bins"):
            load_pdp_csv(path)

    def test_out_of_order_delays_named_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delay_ns,power_db\n2.0,-100\n1.0,-100\n")
        with pytest.raises(PdpFormatError, match=":3:"):
            load_pdp_csv(path)

    def test_directory_round_trip(self, tmp_path):
        sets = [
            MeasurementSet(
                seat=seat,
                height=height,
                sweeps=[make_pdp([13.5], [-99.4 - k]) for k in range(12)],
            )
            for seat, height in [(1, HeightClass.UPPER), (2, HeightClass.LOWER)]
        ]
        write_measurement_dir(tmp_path / "out", sets)
        back = load_measurement_dir(tmp_path / "out")
        assert [(s.seat, s.height, len(s.sweeps)) for s in back] == [
            (1, HeightClass.UPPER, 12),
            (2, HeightClass.LOWER, 12),
        ]
        # sweep files are named by position, so the order survives, past sweep_9 too
        assert [rec.powers_db.tolist() for rec in back[0].sweeps] == [[-99.4 - k] for k in range(12)]
        assert sorted(p.name for p in (tmp_path / "out" / "1_upper").iterdir()) == [
            "meta.json", *sorted(f"sweep_{k}.csv" for k in range(12))
        ]

    def test_seventy_two_sets(self, tmp_path):
        sets = []
        for seat in range(1, 31):
            sets.append(
                MeasurementSet(seat=seat, height=HeightClass.UPPER,
                               sweeps=[make_pdp([10.0], [-100.0])])
            )
        for seat in list(range(1, 5)) + list(range(9, 27)):
            sets.append(
                MeasurementSet(seat=seat, height=HeightClass.LOWER,
                               sweeps=[make_pdp([10.0], [-100.0])])
            )
        # pad with extra lower positions to reach the campaign's 72 sets
        for seat in range(31, 31 + (72 - len(sets))):
            sets.append(
                MeasurementSet(seat=seat, height=HeightClass.LOWER,
                               sweeps=[make_pdp([10.0], [-100.0])])
            )
        assert len(sets) == 72
        write_measurement_dir(tmp_path / "campaign", sets)
        assert len(load_measurement_dir(tmp_path / "campaign")) == 72

    def test_missing_meta_rejected(self, tmp_path):
        d = tmp_path / "1_upper"
        d.mkdir()
        (d / "sweep_0.csv").write_text("delay_ns,power_db\n1.0,-100\n")
        with pytest.raises(PdpFormatError, match="meta.json"):
            load_measurement_dir(tmp_path)

    def test_tree_without_sets_rejected(self, tmp_path):
        (tmp_path / "notes.txt").write_text("x\n")
        with pytest.raises(PdpFormatError) as exc:
            load_measurement_dir(tmp_path)
        assert str(exc.value) == f"{tmp_path}: no <seat>_<height> set directories"

    def test_meta_directory_mismatch_rejected(self, tmp_path):
        d = tmp_path / "1_upper"
        d.mkdir()
        (d / "meta.json").write_text('{"seat": 2, "height": "upper"}')
        (d / "sweep_0.csv").write_text("delay_ns,power_db\n1.0,-100\n")
        with pytest.raises(PdpFormatError, match="disagrees"):
            load_measurement_dir(tmp_path)


class TestCalibrationValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            LinkCalibration(radiated_power_db=0.0, noise_threshold_db=0.0)

    @pytest.mark.parametrize("fields", [
        {"radiated_power_db": 1e308, "g_tx_dbi": 1e308},
        {"radiated_power_db": -1e308, "g_rx_dbi": -1e308},
    ])
    def test_radiated_level_must_be_finite(self, fields):
        with pytest.raises(ValueError, match=r"radiated_power_db \+ g_tx_dbi \+ g_rx_dbi"):
            LinkCalibration(**fields)


class TestSynthAndSamples:
    LINKS = [(14, 4.05), (2, 1.72)]

    def test_noiseless_round_trip(self):
        # sigma = 0: every sweep reduces back to the model mean at the link distance
        model = PathLossModel(82.86, 2.03, 0.0)
        cal = LinkCalibration(radiated_power_db=3.0, g_tx_dbi=1.0, g_rx_dbi=4.0)
        sets = synth_measurements(model, self.LINKS, HeightClass.UPPER, cal, n_sweeps=3, seed=0)
        assert [(m.seat, len(m.sweeps)) for m in sets] == [(14, 3), (2, 3)]
        samples = measurements_to_samples(sets, cal)
        assert list(samples.seat) == [14, 2]
        assert list(samples.height) == [HeightClass.UPPER] * 2
        assert samples.region is None
        for (_, d), got_d, got_pl in zip(self.LINKS, samples.distance_m, samples.path_loss_db):
            assert got_d == pytest.approx(d, rel=1e-12)
            assert got_pl == pytest.approx(mean_path_loss(model, d), abs=1e-9)

    def test_same_seed_identical(self):
        model = builtin_model(Region.ALL, HeightClass.UPPER)
        a, b = (synth_measurements(model, self.LINKS, HeightClass.UPPER, CAL, 4, seed=5)
                for _ in range(2))
        assert [r.powers_db.tolist() for m in a for r in m.sweeps] == [
            r.powers_db.tolist() for m in b for r in m.sweeps
        ]

    @pytest.mark.parametrize("n_sweeps", [0, -1, MAX_SWEEPS + 1])
    def test_sweep_count_checked(self, n_sweeps):
        model = builtin_model(Region.ALL, HeightClass.UPPER)
        with pytest.raises(ValueError, match="n_sweeps"):
            synth_measurements(model, self.LINKS, HeightClass.UPPER, CAL, n_sweeps, seed=0)

    def test_layout_tags_regions(self):
        layout = default_layout()
        d = link_distance(layout, 14, HeightClass.UPPER)
        sets = synth_measurements(
            builtin_model(Region.ALL, HeightClass.UPPER), [(14, d)], HeightClass.UPPER,
            CAL, 1, seed=0,
        )
        samples = measurements_to_samples(sets, CAL, layout)
        assert samples.region == [layout.seat(14).group]

    def test_no_sets_gives_empty_samples(self):
        samples = measurements_to_samples([], CAL)
        assert len(samples) == 0
