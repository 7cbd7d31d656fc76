"""Tests for least-squares model fitting and synthetic sample generation."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busloss.fit import (
    SAMPLE_TAGS,
    DegenerateDataError,
    InsufficientDataError,
    SampleSet,
    fit_by_partition,
    fit_log_distance,
    fit_result_to_dict,
    partition_to_dict,
    samples_from_csv,
    samples_to_csv,
    synth_samples,
    synth_seat_samples,
)
from busloss.geometry import default_layout, seat_links
from busloss.models import (
    CSV_BLOCK_ROWS,
    HeightClass,
    PathLossModel,
    Region,
    builtin_model,
    builtin_models,
    mean_path_loss,
)
from test_linkbudget import traced_peak
from tolerances import K, coverage_tolerance, fit_errors, kurtosis_se, skewness_se


def noiseless_samples(model, distances):
    return SampleSet(
        np.asarray(distances, dtype=float),
        np.array([mean_path_loss(model, d) for d in distances]),
    )


class TestFitLogDistance:
    def test_noiseless_recovery(self):
        model = builtin_model(Region.ALL, HeightClass.LOWER)
        result = fit_log_distance(noiseless_samples(model, [1, 2, 4, 8]))
        assert result.model.alpha_db == pytest.approx(85.23, rel=1e-9)
        assert result.model.beta == pytest.approx(1.74, rel=1e-9)
        assert result.model.sigma_db < 1e-9
        assert result.r_squared == pytest.approx(1.0)

    def test_synthetic_round_trip(self):
        model = builtin_model(Region.ALL, HeightClass.UPPER)
        rng = np.random.default_rng(3)
        distances = rng.uniform(1.0, 12.0, 10**4)
        result = fit_log_distance(synth_samples(model, distances, seed=5))
        # The replaced bounds were 2.97, 5.85 and 3.02 SEs of alpha, beta, sigma.
        assert np.all(np.less_equal(fit_errors(result, model), (2.9, K, 3.0)))

    def test_standard_errors_calibrated(self):
        # In 95% of fits, alpha and beta each lie within 1.96 of their own SEs of
        # the truth. The SEs use the fitted sigma, so over 98 degrees of freedom
        # the expected fraction is 0.947 rather than 0.95, 0.4 binomial SEs off.
        # With 1,000 fits, SEs 20% too small or 30% too large fail.
        model = builtin_model(Region.ALL, HeightClass.UPPER)
        n_fits, within = 1000, np.zeros(2)
        for seed in range(n_fits):
            distances = np.random.default_rng(10_000 + seed).uniform(1.0, 12.0, 100)
            result = fit_log_distance(synth_samples(model, distances, seed=seed))
            within += [abs(result.model.alpha_db - model.alpha_db) <= 1.96 * result.alpha_se_db,
                       abs(result.model.beta - model.beta) <= 1.96 * result.beta_se]
        assert np.all(np.abs(within / n_fits - 0.95) <= coverage_tolerance(0.95, n_fits))

    def test_matches_normal_equations_oracle(self):
        # brute-force normal equations, independent of the fit path
        d = np.array([2.0, 2.0, 8.0])
        y = np.array([90.0, 92.0, 101.0])
        x = 10 * np.log10(d)
        n, sx, sy = len(x), x.sum(), y.sum()
        sxx, sxy = (x * x).sum(), (x * y).sum()
        beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        alpha = (sy - beta * sx) / n
        result = fit_log_distance(SampleSet(d, y))
        assert result.model.beta == pytest.approx(beta, rel=1e-9)
        assert result.model.alpha_db == pytest.approx(alpha, rel=1e-9)

    @pytest.mark.parametrize("region, expected", [
        ([Region.B] * 4, Region.B),
        ([Region.B, Region.B, None, Region.B], None),
        ([Region.B, Region.C, Region.B, Region.B], None),
        ([None] * 4, None),
        (None, None),
    ], ids=["uniform", "one-missing", "two-values", "all-missing", "no-column"])
    def test_model_tag_from_a_uniform_column(self, region, expected):
        samples = SampleSet(np.array([1.0, 2.0, 4.0, 8.0]), np.array([80.0, 86.0, 92.0, 97.0]),
                            region=region)
        assert fit_log_distance(samples).model.region is expected

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_log_distance(SampleSet(np.array([1.0, 2.0]), np.array([85.0, 90.0])))

    def test_single_distance_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_log_distance(
                SampleSet(np.array([2.0, 2.0, 2.0]), np.array([90.0, 91.0, 92.0]))
            )

    def test_fit_beyond_the_model_ranges_degenerate(self):
        # Valid samples 1e-7 m apart fit beta of about 2.3e7, beyond PathLossModel's range.
        samples = SampleSet(np.array([1.0, 1.0000001, 1.0000002]), np.array([80.0, 90.0, 100.0]))
        with pytest.raises(DegenerateDataError, match=r"^fitted model out of range: beta must"):
            fit_log_distance(samples)

    def test_overflowing_sums_degenerate(self):
        # residuals of 1e308 square to inf; the fit reports that instead of an inf sigma
        with pytest.raises(DegenerateDataError, match="too large"):
            fit_log_distance(
                SampleSet(np.array([1.0, 2.0, 3.0]), np.array([1e308, -1e308, 1e308]))
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_path_loss_rejected(self, value):
        with pytest.raises(ValueError, match="^path loss must be finite$"):
            SampleSet(np.array([1.0, 2.0, 3.0]), np.array([value, 1.0, 2.0]))

    def test_residual_orthogonality(self):
        model = builtin_model(Region.B, HeightClass.LOWER)
        result = fit_log_distance(synth_samples(model, np.linspace(1, 12, 500), seed=9))
        x = 10 * np.log10(np.linspace(1, 12, 500))
        n = result.n
        assert abs(result.residuals_db.sum()) < 1e-9 * n
        assert abs((result.residuals_db * x).sum()) < 1e-9 * n

    def test_scale_covariance(self):
        model = builtin_model(Region.D, HeightClass.UPPER)
        base = synth_samples(model, np.linspace(1, 12, 200), seed=21)
        scaled = SampleSet(base.distance_m * 10, base.path_loss_db)
        fit_a = fit_log_distance(base)
        fit_b = fit_log_distance(scaled)
        assert fit_b.model.beta == pytest.approx(fit_a.model.beta, rel=1e-9)
        assert fit_b.model.alpha_db == pytest.approx(
            fit_a.model.alpha_db - 10 * fit_a.model.beta, rel=1e-9
        )

    def test_estimator_consistency(self):
        # median absolute error over seeds shrinks as N grows
        model = builtin_model(Region.ALL, HeightClass.LOWER)
        med_err = []
        for n in (10**2, 10**3, 10**4):
            errs = []
            for seed in range(30):
                d = np.random.default_rng(1000 + seed).uniform(1, 12, n)
                fitted = fit_log_distance(synth_samples(model, d, seed=seed)).model
                errs.append(abs(fitted.beta - model.beta))
            med_err.append(np.median(errs))
        assert med_err[0] > med_err[1] > med_err[2]


class TestFitByPartition:
    def test_single_cell_plus_all(self):
        model = builtin_model(Region.A, HeightClass.UPPER)
        samples = synth_samples(model, np.linspace(1, 12, 50), seed=2)
        result = fit_by_partition(samples)
        assert set(result.fits) == {
            (Region.A, HeightClass.UPPER),
            (Region.ALL, HeightClass.UPPER),
        }

    def test_per_group_round_trip(self):
        parts = []
        for i, region in enumerate((Region.A, Region.B, Region.C, Region.D)):
            model = builtin_model(region, HeightClass.UPPER)
            parts.append(synth_samples(model, np.linspace(1, 12, 2000), seed=100 + i))
        samples = SampleSet(
            np.concatenate([p.distance_m for p in parts]),
            np.concatenate([p.path_loss_db for p in parts]),
            region=sum((list(p.region) for p in parts), []),
            height=sum((list(p.height) for p in parts), []),
        )
        result = fit_by_partition(samples)
        # The replaced bounds were at least 2.98, 4.72 and 2.86 SEs of alpha,
        # beta and sigma over the four regions.
        for region in (Region.A, Region.B, Region.C, Region.D):
            truth = builtin_model(region, HeightClass.UPPER)
            errors = fit_errors(result.fits[(region, HeightClass.UPPER)], truth)
            assert np.all(np.less_equal(errors, (2.9, K, 2.8)))
        assert (Region.ALL, HeightClass.UPPER) in result.fits

    def test_empty_samples(self):
        samples = SampleSet(np.array([]), np.array([]), region=[], height=[])
        assert fit_by_partition(samples).fits == {}

    def test_matches_per_cell_reference(self):
        # Reference: each cell fitted on the samples picked out by a plain loop.
        rng = np.random.default_rng(4)
        n = 400
        regions = [None, Region.A, Region.B, Region.C, Region.D]
        heights = [None, HeightClass.LOWER, HeightClass.UPPER]
        region = [regions[i] for i in rng.integers(len(regions), size=n)]
        height = [heights[i] for i in rng.integers(len(heights), size=n)]
        samples = SampleSet(rng.uniform(1, 12, n), rng.normal(95, 3, n),
                            region=region, height=height)
        result = fit_by_partition(samples)
        expected = []
        for h in HeightClass:
            for r in Region:
                idx = [i for i in range(n)
                       if height[i] is h and (r is Region.ALL or region[i] is r)]
                ref = fit_log_distance(
                    SampleSet(samples.distance_m[idx], samples.path_loss_db[idx]),
                    region=r, height=h,
                )
                assert result.fits[(r, h)].model == ref.model
                expected.append((r, h))
        assert list(result.fits) == expected
        assert result.skipped == []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([1.0, 2.0, 4.5]) | st.floats(0.5, 15.0), min_size=n, max_size=n),
        st.lists(st.floats(60.0, 120.0), min_size=n, max_size=n),
        st.lists(st.sampled_from([None, *Region]), min_size=n, max_size=n),
        st.lists(st.sampled_from([None, *HeightClass]), min_size=n, max_size=n))))
    def test_equals_boolean_mask_cells_bit_for_bit(self, columns):
        # Reference: each cell's samples picked by a boolean mask over object columns,
        # in file order; a tag None or Region.ALL joins only its height's All cell. The
        # partition is checked on the columns as built and as the CSV reader codes them.
        distance, loss, region, height = columns
        samples = SampleSet(np.array(distance, float), np.array(loss, float),
                            region=region, height=height)
        regions, heights = np.array(region, object), np.array(height, object)
        fits, skipped = {}, []
        for h in HeightClass:
            for r in Region:
                mask = (heights == h) & ((regions == r) | (r is Region.ALL))
                if mask.any():
                    cell = SampleSet(samples.distance_m[mask], samples.path_loss_db[mask])
                    try:
                        fits[(r, h)] = fit_log_distance(cell, region=r, height=h)
                    except (InsufficientDataError, DegenerateDataError):
                        skipped.append((r, h, int(mask.sum())))

        def bits(res):
            m = res.model
            return ([float(v).hex() for v in (m.alpha_db, m.beta, m.sigma_db, res.r_squared,
                                              res.alpha_se_db, res.beta_se)],
                    m.region, m.height, res.n, res.residuals_db.tobytes())

        for given_samples in (samples, samples_from_csv(samples_to_csv(samples))):
            result = fit_by_partition(given_samples)
            assert list(result.fits) == list(fits) and result.skipped == skipped
            assert [bits(r) for r in result.fits.values()] == [bits(r) for r in fits.values()]

    def test_small_cell_skipped(self):
        samples = SampleSet(
            np.array([1.0, 2.0]),
            np.array([85.0, 90.0]),
            region=[Region.A, Region.A],
            height=[HeightClass.LOWER, HeightClass.LOWER],
        )
        result = fit_by_partition(samples)
        assert result.fits == {}
        assert (Region.A, HeightClass.LOWER, 2) in result.skipped


class TestPartitionToDict:
    def test_cells_then_skipped(self):
        model = builtin_model(Region.B, HeightClass.UPPER)
        d = [1.0, 2.0, 3.0, 4.0, 1.5, 2.5]
        samples = replace(noiseless_samples(model, d), region=[Region.B] * 4 + [Region.C] * 2,
                          height=[HeightClass.UPPER] * 6)
        partition = fit_by_partition(samples)
        out = partition_to_dict(partition)
        assert list(out) == ["B/upper", "All/upper", "skipped"]
        assert out["B/upper"] == fit_result_to_dict(partition.fits[(Region.B, HeightClass.UPPER)])
        assert out["skipped"] == [{"region": "C", "height": "upper", "n": 2}]

    def test_no_skipped_key_when_every_cell_fits(self):
        model = builtin_model(Region.A, HeightClass.LOWER)
        samples = replace(noiseless_samples(model, [1.0, 2.0, 3.0]), region=[Region.A] * 3,
                          height=[HeightClass.LOWER] * 3)
        assert list(partition_to_dict(fit_by_partition(samples))) == ["A/lower", "All/lower"]

    def test_no_fitted_cell_raises(self):
        samples = SampleSet([1.0, 2.0], [85.0, 90.0], region=[Region.A] * 2,
                            height=[HeightClass.LOWER] * 2)
        with pytest.raises(InsufficientDataError, match="no cell"):
            partition_to_dict(fit_by_partition(samples))


class TestSynthSamples:
    def test_sigma_zero_on_mean_line(self):
        model = PathLossModel(85.0, 2.0, 0.0)
        samples = synth_samples(model, [1.0, 3.0, 9.0], seed=0)
        expected = [mean_path_loss(model, d) for d in (1.0, 3.0, 9.0)]
        assert samples.path_loss_db == pytest.approx(expected)

    def test_same_seed_identical(self):
        model = builtin_model(Region.C, HeightClass.LOWER)
        a = synth_samples(model, [1, 2, 3], seed=12)
        b = synth_samples(model, [1, 2, 3], seed=12)
        assert np.array_equal(a.path_loss_db, b.path_loss_db)

    def test_residual_normality_moments(self):
        model = builtin_model(Region.ALL, HeightClass.UPPER)
        samples = synth_samples(model, [5.0] * 10**4, seed=8)
        resid = samples.path_loss_db - mean_path_loss(model, 5.0)
        z = (resid - resid.mean()) / resid.std()
        skewness = np.mean(z**3)
        excess_kurtosis = np.mean(z**4) - 3.0
        assert abs(skewness) <= K * skewness_se(len(z))
        assert abs(excess_kurtosis) <= K * kurtosis_se(len(z))

    def test_refit_fixed_point(self):
        for model in builtin_models():
            exact = PathLossModel(model.alpha_db, model.beta, 0.0,
                                  region=model.region, height=model.height)
            fitted = fit_log_distance(synth_samples(exact, [1.3, 2.9, 2.9, 7.7], seed=1)).model
            assert fitted.alpha_db == pytest.approx(model.alpha_db, rel=1e-9)
            assert fitted.beta == pytest.approx(model.beta, rel=1e-9)

    @pytest.mark.parametrize("height", list(HeightClass))
    def test_seat_samples_draw_at_seat_links(self, height):
        model = builtin_model(Region.ALL, height)
        ids, groups, distances = seat_links(default_layout(), height)
        got = synth_seat_samples(model, default_layout(), height, seed=7)
        want = synth_samples(model, distances, seed=7)
        assert got.distance_m.tobytes() == want.distance_m.tobytes()
        assert got.path_loss_db.tobytes() == want.path_loss_db.tobytes()
        assert (list(got.seat), list(got.region), got.distance_m.tolist()) == (ids, groups, distances)
        assert list(got.height) == [height] * len(ids)


class TestSampleCsv:
    def test_round_trip_with_tags(self):
        samples = SampleSet(
            np.array([1.5, 2.5]),
            np.array([88.0, 92.5]),
            seat=[1, 2],
            region=[Region.A, Region.B],
            height=[HeightClass.LOWER, HeightClass.UPPER],
        )
        back = samples_from_csv(samples_to_csv(samples))
        assert np.array_equal(back.distance_m, samples.distance_m)
        assert np.array_equal(back.path_loss_db, samples.path_loss_db)
        assert list(back.seat) == [1, 2]
        assert list(back.region) == [Region.A, Region.B]
        assert list(back.height) == [HeightClass.LOWER, HeightClass.UPPER]

    @pytest.mark.parametrize("columns, row, tags", [
        ("height,seat", "upper,7", {"height": [HeightClass.UPPER], "seat": [7]}),
        ("region", "B", {"region": [Region.B]}),
        ("seat,region,height", "3,C,lower",
         {"seat": [3], "region": [Region.C], "height": [HeightClass.LOWER]}),
        ("region,height,seat", ",upper,", {"region": [None], "height": [HeightClass.UPPER],
                                           "seat": [None]}),
    ])
    def test_tag_columns_in_any_order_and_subset(self, columns, row, tags):
        samples = samples_from_csv(f"distance_m,path_loss_db,{columns}\n2.0,90.0,{row}\n")
        for name in ("seat", "region", "height"):
            column = getattr(samples, name)
            assert (None if column is None else list(column)) == tags.get(name)

    @pytest.mark.parametrize("text, error", [
        ("distance_m,path_loss_db,floor\n1,85,2\n", "x.csv:1: unknown column 'floor'"),
        ("distance_m,path_loss_db,region,region\n1,85,A,B\n", "x.csv:1: repeated column 'region'"),
        ("distance_m,path_loss_db, seat ,height,seat\n1,85,1,upper,2\n",
         "x.csv:1: repeated column 'seat'"),
        ("distance_m,path_loss_db,height,region\n1,85,upper,A\n2,90,upper,E\n",
         "x.csv:3: bad tag value"),
        ("distance_m,path_loss_db,seat\n1,85,1\n2,90,1\n3,95,x\n", "x.csv:4: bad tag value"),
        ("distance_m,path_loss_db,height\n1,85,middle\n", "x.csv:2: bad tag value"),
    ])
    def test_bad_header_or_tag_names_line(self, text, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            samples_from_csv(text, source="x.csv")

    def test_minimal_schema(self):
        text = "distance_m,path_loss_db\n1.0,85.0\n2.0,90.0\n"
        samples = samples_from_csv(text)
        assert len(samples) == 2
        assert samples.seat is None

    def test_error_names_line(self):
        text = "distance_m,path_loss_db\n1.0,85.0\nbad,90.0\n"
        with pytest.raises(ValueError, match=":3:"):
            samples_from_csv(text, source="x.csv")

    def test_blank_rows_skipped(self):
        text = "distance_m,path_loss_db,seat\n1.0,85.0,3\n\n , ,\n2.0,90.0,\n"
        samples = samples_from_csv(text)
        assert samples.path_loss_db.tolist() == [85.0, 90.0]
        assert list(samples.seat) == [3, None]

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError, match=":2:"):
            samples_from_csv("distance_m,path_loss_db\n-1.0,85.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_path_loss_names_line(self, value):
        text = f"distance_m,path_loss_db\n1.0,85.0\n2.0,{value}\n3.0,95.0\n"
        with pytest.raises(ValueError, match="x.csv:3: path loss must be finite"):
            samples_from_csv(text, source="x.csv")


class TestSampleCsvMemory:
    """Memory, not time: writing or reading a sample CSV holds the text and the
    columns, and Python strings for one block of rows at a time, never a string
    or a list entry for every row."""

    N = 200_000  # the sample_roundtrip size

    @classmethod
    def setup_class(cls):
        rng = np.random.default_rng(11)
        ids, groups, distances = seat_links(default_layout(), HeightClass.UPPER)
        pick = rng.integers(len(ids), size=cls.N)
        cls.samples = SampleSet(
            np.array(distances)[pick] + rng.uniform(-0.1, 0.1, cls.N),
            80.0 + rng.normal(0.0, 3.0, cls.N),
            seat=[ids[i] for i in pick], region=[groups[i] for i in pick],
            height=[HeightClass.UPPER, HeightClass.LOWER] * (cls.N // 2))
        cls.text = samples_to_csv(cls.samples)
        samples_from_csv(cls.text[:1000].rpartition("\n")[0])  # one-off state

    def block_allowance(self) -> int:
        # One block of rows, CSV_BLOCK_ROWS lines of the text's mean length, held
        # as strings several times over: the lines, their cells or row tuples, and
        # a str header of about 50 bytes for each (a line here is about 47 characters).
        return 16 * CSV_BLOCK_ROWS * len(self.text) // self.N

    def test_read_peak(self):
        peak = traced_peak(lambda: samples_from_csv(self.text))
        s = samples_from_csv(self.text)
        columns = s.distance_m.nbytes + s.path_loss_db.nbytes + sum(
            getattr(s, name).codes.nbytes for name in SAMPLE_TAGS)
        # read_csv's float arrays, which the record copies, and a few bytes a row
        # of the rules' masks.
        assert peak < columns + 16 * self.N + 8 * self.N + self.block_allowance()

    def test_write_peak(self):
        peak = traced_peak(lambda: samples_to_csv(self.samples))
        n, text = self.N, len(self.text)
        # While rows are joined: the blocks so far, the Python float of each float
        # cell (an object and a list entry, 32 bytes) and an object array entry per
        # tag cell. At the end: the blocks and the text they join into, after the
        # floats are freed.
        cells = 2 * (sys.getsizeof(0.0) + 8) + 3 * 8
        assert peak < max(text + cells * n, 2 * text + 3 * 8 * n) + self.block_allowance()
