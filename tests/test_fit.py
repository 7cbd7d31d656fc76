"""Tests for least-squares model fitting and synthetic sample generation."""

from dataclasses import replace

import numpy as np
import pytest

from busloss.fit import (
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
    HeightClass,
    PathLossModel,
    Region,
    builtin_model,
    builtin_models,
    mean_path_loss,
)


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
        assert result.model.alpha_db == pytest.approx(82.86, abs=0.2)
        assert result.model.beta == pytest.approx(2.03, abs=0.05)
        assert result.model.sigma_db == pytest.approx(2.34, abs=0.05)

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

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_log_distance(SampleSet(np.array([1.0, 2.0]), np.array([85.0, 90.0])))

    def test_single_distance_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_log_distance(
                SampleSet(np.array([2.0, 2.0, 2.0]), np.array([90.0, 91.0, 92.0]))
            )

    def test_overflowing_sums_degenerate(self):
        # residuals of 1e308 square to inf; the fit reports that instead of an inf sigma
        with pytest.raises(DegenerateDataError, match="too large"):
            fit_log_distance(
                SampleSet(np.array([1.0, 2.0, 3.0]), np.array([1e308, -1e308, 1e308]))
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_path_loss_rejected(self, value):
        with pytest.raises(ValueError, match="all path losses must be finite"):
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
        for region in (Region.A, Region.B, Region.C, Region.D):
            truth = builtin_model(region, HeightClass.UPPER)
            fitted = result.fits[(region, HeightClass.UPPER)].model
            assert fitted.alpha_db == pytest.approx(truth.alpha_db, abs=0.5)
            assert fitted.beta == pytest.approx(truth.beta, abs=0.1)
            assert fitted.sigma_db == pytest.approx(truth.sigma_db, abs=0.12)
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
        assert abs(skewness) < 0.1
        assert abs(excess_kurtosis) < 0.2

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
        links = seat_links(default_layout(), height)
        got = synth_seat_samples(model, default_layout(), height, seed=7)
        want = synth_samples(model, [d for _, _, d in links], seed=7)
        assert got.distance_m.tobytes() == want.distance_m.tobytes()
        assert got.path_loss_db.tobytes() == want.path_loss_db.tobytes()
        assert list(zip(got.seat, got.region, got.distance_m)) == links
        assert list(got.height) == [height] * len(links)


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
            assert getattr(samples, name) == tags.get(name)

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
