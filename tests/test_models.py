"""Tests for the log-distance shadow-fading model and the shipped registry."""

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import busloss
from busloss.models import (
    CSV_BLOCK_ROWS,
    CombinedForm,
    HeightClass,
    PathLossModel,
    Region,
    builtin_model,
    builtin_models,
    builtin_registry,
    compare_models,
    coverage_probability,
    csv_text,
    first_fault,
    float_field,
    float_record,
    from_combined_form,
    fspl,
    int_field,
    is_extrapolated,
    load_json_object,
    mean_path_loss,
    model_from_dict,
    model_to_json,
    path_loss_band,
    read_csv,
    read_text,
    sample_path_loss,
    tag_field,
    to_combined_form,
    verify_registry,
)
from tolerances import K, coverage_tolerance, mean_se, quantile_se, sd_se

ALL_LOWER = builtin_model(Region.ALL, HeightClass.LOWER)
ALL_UPPER = builtin_model(Region.ALL, HeightClass.UPPER)


class Rows:
    """A record type for read_csv: the float columns as .arrays and the tag columns
    as .tags, checked when built by its rules, which pass every row."""

    @staticmethod
    def rules(*arrays):
        return []

    def __init__(self, *arrays, **tags):
        self.arrays, self.tags = list(arrays), tags
        fault = first_fault(self.rules(*arrays))
        if fault:
            raise ValueError(fault[1])


def checked(rules):
    """The Rows type whose rules(*arrays) gives rules' (bad-row mask, message) pairs."""
    return type("Checked", (Rows,), {"rules": staticmethod(rules)})


class TestMeanPathLoss:
    def test_at_one_metre_equals_alpha(self):
        assert mean_path_loss(ALL_LOWER, 1.0) == pytest.approx(85.23)

    def test_all_upper_at_ten_metres(self):
        assert mean_path_loss(ALL_UPPER, 10.0) == pytest.approx(103.16)

    def test_a_upper_at_measured_distance(self):
        # hand-checked: 83.29 + 18.3*log10(4.05)
        model = builtin_model(Region.A, HeightClass.UPPER)
        assert mean_path_loss(model, 4.05) == pytest.approx(94.40642692482844)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
    def test_bad_distance_rejected(self, d):
        with pytest.raises(ValueError):
            mean_path_loss(ALL_LOWER, d)

    def test_array_uses_numpy_log10_and_float_math_log10(self):
        # The two log10s round differently for some distances: synth draws at an
        # array and perfbench's reference at floats, so each keeps its own bits.
        d = np.geomspace(0.5, 15, 500)
        for model in builtin_models():
            assert mean_path_loss(model, d).tobytes() == (
                model.alpha_db + 10.0 * model.beta * np.log10(d)).tobytes()
            assert [mean_path_loss(model, x) for x in d.tolist()] == [
                model.alpha_db + 10.0 * model.beta * math.log10(x) for x in d.tolist()]

    def test_array_leaves_bad_distances_to_the_caller(self):
        # No warning either: pyproject.toml makes a RuntimeWarning an error.
        means = mean_path_loss(ALL_LOWER, np.array([0.0, -1.0, 2.0]))
        assert np.isneginf(means[0]) and np.isnan(means[1])
        assert means[2] == pytest.approx(mean_path_loss(ALL_LOWER, 2.0), rel=1e-15)

    def test_monotone_in_distance(self):
        for model in builtin_models():
            losses = [mean_path_loss(model, d) for d in np.linspace(0.5, 15, 50)]
            assert all(a < b for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("d", [0.7, 1.0, 3.3, 12.0])
    def test_decade_law(self, d):
        for model in builtin_models():
            delta = mean_path_loss(model, 10 * d) - mean_path_loss(model, d)
            assert delta == pytest.approx(10 * model.beta, abs=1e-9)


class TestSamplePathLoss:
    def test_sigma_zero_is_mean(self):
        model = PathLossModel(85.0, 2.0, 0.0)
        rng = np.random.default_rng(0)
        assert sample_path_loss(model, 2.0, rng) == mean_path_loss(model, 2.0)

    def test_same_seed_same_value(self):
        a = sample_path_loss(ALL_LOWER, 5.0, np.random.default_rng(42))
        b = sample_path_loss(ALL_LOWER, 5.0, np.random.default_rng(42))
        assert a == b

    @pytest.mark.parametrize("seed", [0, 42])
    def test_scalar_draw_is_float_of_one_normal(self, seed):
        d = 5.0
        value = sample_path_loss(ALL_LOWER, d, np.random.default_rng(seed), size=None)
        assert type(value) is float
        assert value == mean_path_loss(ALL_LOWER, d) + ALL_LOWER.sigma_db * float(
            np.random.default_rng(seed).standard_normal())

    def test_array_of_distances(self):
        d = np.array([0.5, 3.3, 12.0])
        draws = sample_path_loss(ALL_LOWER, d, np.random.default_rng(42), size=len(d))
        z = np.random.default_rng(42).standard_normal(len(d))
        assert draws.tobytes() == (mean_path_loss(ALL_LOWER, d) + ALL_LOWER.sigma_db * z).tobytes()

    def test_moments_match_model(self):
        rng = np.random.default_rng(7)
        n, sigma = 10**6, ALL_LOWER.sigma_db
        draws = sample_path_loss(ALL_LOWER, 5.0, rng, size=n)
        assert abs(np.mean(draws) - mean_path_loss(ALL_LOWER, 5.0)) <= K * mean_se(sigma, n)
        assert abs(np.std(draws) - sigma) <= K * sd_se(sigma, n - 1)


class TestCoverageProbability:
    def test_at_mean_is_half(self):
        d = 4.0
        assert coverage_probability(ALL_UPPER, d, mean_path_loss(ALL_UPPER, d)) == pytest.approx(0.5)

    def test_one_sigma_above_mean(self):
        # Phi(1) from the standard normal CDF
        assert coverage_probability(ALL_UPPER, 10.0, 103.16 + 2.34) == pytest.approx(
            0.8413447460685429, abs=1e-6
        )

    def test_sigma_zero_step(self):
        model = PathLossModel(85.0, 2.0, 0.0)
        mean = mean_path_loss(model, 3.0)
        assert coverage_probability(model, 3.0, mean + 0.01) == 1.0
        assert coverage_probability(model, 3.0, mean - 0.01) == 0.0

    def test_matches_empirical_fraction(self):
        rng = np.random.default_rng(11)
        d, l_max = 3.0, 95.0
        draws = sample_path_loss(ALL_LOWER, d, rng, size=10**6)
        frac = np.mean(draws <= l_max)
        p = coverage_probability(ALL_LOWER, d, l_max)
        assert abs(frac - p) <= coverage_tolerance(p, 10**6)


class TestRegistry:
    def test_count_and_uniqueness(self):
        models = builtin_models()
        assert len(models) == 10
        assert len({(m.region, m.height) for m in models}) == 10

    def test_all_lower_row(self):
        m = builtin_model(Region.ALL, HeightClass.LOWER)
        assert (m.alpha_db, m.beta, m.sigma_db) == (85.23, 1.74, 2.54)

    def test_c_upper_row(self):
        m = builtin_model(Region.C, HeightClass.UPPER)
        assert (m.alpha_db, m.beta, m.sigma_db) == (81.24, 2.39, 2.27)

    def test_registry_matches_list(self):
        registry = builtin_registry()
        assert set(registry.values()) == set(builtin_models())

    def test_models_built_once(self):
        for key in builtin_registry():
            assert builtin_model(*key) is builtin_registry()[key]
        assert all(m is builtin_model(m.region, m.height) for m in builtin_models())

    def test_tags_hash_by_identity(self):
        # Members are singletons compared by identity, so the identity hash agrees
        # with equality; Enum's hash(self._name_) made each registry lookup and each
        # TagColumn.of pass a Python-level call per tag.
        for tag in [*Region, *HeightClass]:
            assert hash(tag) == object.__hash__(tag)

    def test_registry_copy_is_the_callers(self):
        key = (Region.ALL, HeightClass.LOWER)
        registry = builtin_registry()
        registry[key] = PathLossModel(1.0, 1.0, 1.0)
        del registry[(Region.A, HeightClass.UPPER)]
        fresh = builtin_registry()
        assert len(fresh) == 10
        assert fresh[key] is ALL_LOWER


class TestVerifyRegistry:
    def test_shipped_registry_passes(self):
        ok, rows = verify_registry()
        assert ok
        assert [(r["height"], r["quantity"]) for r in rows] == [
            (h, q) for h in ("lower", "upper") for q in ("alpha", "slope", "var")]
        assert verify_registry(builtin_registry()) == (ok, rows)

    def test_perturbed_registry_fails_only_its_row(self):
        registry = builtin_registry()
        key = (Region.ALL, HeightClass.UPPER)
        registry[key] = PathLossModel(82.86, 2.1, 2.34, *key)
        ok, rows = verify_registry(registry)
        assert not ok
        failed = [(r["height"], r["quantity"]) for r in rows if not r["pass"]]
        assert failed == [("upper", "slope")]
        slope = rows[4]
        assert slope["actual"] == pytest.approx(21.0)
        assert slope["delta"] == pytest.approx(0.7)


class TestPathLossBand:
    @pytest.mark.parametrize("model", builtin_models())
    @pytest.mark.parametrize("d", [0.25, 1.0, 3.7, 15.0, 40.0])
    def test_mean_plus_minus_z95_sigma(self, model, d):
        mean, p05, p95 = path_loss_band(model, d)
        assert mean == mean_path_loss(model, d)
        assert p05 == mean - 1.6449 * model.sigma_db
        assert p95 == mean + 1.6449 * model.sigma_db

    def test_empirical_percentiles(self):
        # The standard error is 0.0049 dB at sigma 2.34 dB. 1.6449 is 5e-5 from
        # the exact normal quantile, which puts the band's ends 0.02 SE off.
        n = 10**6
        draws = sample_path_loss(ALL_UPPER, 4.0, np.random.default_rng(5), size=n)
        _, p05, p95 = path_loss_band(ALL_UPPER, 4.0)
        se = quantile_se(0.05, ALL_UPPER.sigma_db, n)
        assert np.percentile(draws, [5, 95]) == pytest.approx([p05, p95], abs=K * se)

    def test_zero_sigma_collapses(self):
        assert len(set(path_loss_band(PathLossModel(80.0, 2.0, 0.0), 2.0))) == 1

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan])
    def test_bad_distance_rejected(self, d):
        with pytest.raises(ValueError, match="distance"):
            path_loss_band(ALL_LOWER, d)


class TestCombinedForm:
    def test_all_lower_rounds_to_published_form(self):
        form = to_combined_form(ALL_LOWER)
        assert form.slope_db_per_decade == pytest.approx(17.4)
        assert form.variance_db2 == pytest.approx(6.4516)
        assert round(form.slope_db_per_decade, 1) == 17.4
        assert round(form.variance_db2, 1) == 6.5

    def test_all_upper_rounds_to_published_form(self):
        form = to_combined_form(ALL_UPPER)
        assert form.slope_db_per_decade == pytest.approx(20.3)
        assert round(form.variance_db2, 1) == 5.5

    def test_sigma_zero_gives_zero_variance(self):
        assert to_combined_form(PathLossModel(80.0, 2.0, 0.0)).variance_db2 == 0.0

    def test_round_trip(self):
        for model in builtin_models():
            back = from_combined_form(to_combined_form(model), model.region, model.height)
            assert back.alpha_db == pytest.approx(model.alpha_db, rel=1e-12)
            assert back.beta == pytest.approx(model.beta, rel=1e-12)
            assert back.sigma_db == pytest.approx(model.sigma_db, rel=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            CombinedForm(80.0, 20.0, -1.0)


class TestFspl:
    def test_one_metre_sixty_ghz(self):
        assert fspl(1.0, 60e9) == pytest.approx(68.0, abs=0.05)

    def test_decade_adds_twenty_db(self):
        assert fspl(10.0, 60e9) - fspl(1.0, 60e9) == pytest.approx(20.0, abs=1e-9)

    def test_below_measured_loss(self):
        assert fspl(4.05, 60e9) == pytest.approx(80.16, abs=0.05)
        assert fspl(4.05, 60e9) < 94.4

    def test_below_every_builtin_over_measured_range(self):
        for model in builtin_models():
            for d in np.linspace(1.0, 12.0, 56):
                assert fspl(d, 60e9) < mean_path_loss(model, d)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fspl(0.0, 60e9)
        with pytest.raises(ValueError):
            fspl(1.0, 0.0)


class TestCompareModels:
    def test_identity_is_zero(self):
        assert compare_models(ALL_UPPER, ALL_UPPER, [1, 2, 5]) == [0.0, 0.0, 0.0]

    def test_upper_vs_lower_at_one_metre(self):
        (delta,) = compare_models(ALL_UPPER, ALL_LOWER, [1.0])
        assert delta == pytest.approx(-2.37)

    def test_upper_vs_lower_at_ten_metres(self):
        (delta,) = compare_models(ALL_UPPER, ALL_LOWER, [10.0])
        assert delta == pytest.approx(0.53)

    def test_empty_distances(self):
        assert compare_models(ALL_UPPER, ALL_LOWER, []) == []


class TestModelJson:
    def test_round_trip_bit_exact(self):
        for model in builtin_models():
            assert model_from_dict(json.loads(model_to_json(model))) == model

    def test_schema_fields(self):
        obj = json.loads(model_to_json(ALL_UPPER))
        assert obj == {
            "alpha_db": 82.86,
            "beta": 2.03,
            "sigma_db": 2.34,
            "region": "All",
            "height": "upper",
        }


class TestValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PathLossModel(80.0, 2.0, -0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PathLossModel(math.inf, 2.0, 1.0)

    @pytest.mark.parametrize("params", [(-1000.0, -100.0, 0.0), (1000.0, 100.0, 100.0)])
    def test_range_ends_accepted(self, params):
        assert PathLossModel(*params).alpha_db == params[0]

    @pytest.mark.parametrize("params, message", [
        ((1000.5, 2.0, 1.0), "alpha_db must be in [-1000, 1000], got 1000.5"),
        ((80.0, -100.5, 1.0), "beta must be in [-100, 100], got -100.5"),
        ((80.0, 1e308, 1.0), "beta must be in [-100, 100], got 1e+308"),
        ((80.0, 2.0, 100.5), "sigma_db must be in [0, 100], got 100.5"),
        ((80.0, math.nan, 1.0), "beta must be in [-100, 100], got nan"),
    ])
    def test_out_of_range_names_field(self, params, message):
        with pytest.raises(ValueError) as exc:
            PathLossModel(*params)
        assert str(exc.value) == message

    def test_mean_loss_finite_at_the_range_ends(self):
        # |log10 d| < 324 for every positive finite double d.
        for d in (5e-324, 1.7976931348623157e308):
            for beta in (-100.0, 100.0):
                mean, p05, p95 = path_loss_band(PathLossModel(1000.0, beta, 100.0), d)
                assert all(math.isfinite(v) and abs(v) < 325_200 for v in (mean, p05, p95))

    def test_extrapolation_flag(self):
        assert not is_extrapolated(1.0)
        assert not is_extrapolated(12.0)
        assert is_extrapolated(0.2)
        assert is_extrapolated(20.0)


class TestInputHelpers:
    @pytest.mark.parametrize("value", [None, "x", [1.0], math.nan, "nan", 10**400])
    def test_float_field_names_bad_field(self, value):
        with pytest.raises(ValueError, match="field 'beta' must be a number"):
            float_field({"beta": value}, "beta")

    # JSON true and "7" are not numbers, though float() takes both.
    @pytest.mark.parametrize("value", [True, False, "7", "-inf", "1_0"])
    def test_float_field_rejects_bools_and_text(self, value):
        with pytest.raises(ValueError, match=f"^field 'beta' must be a number, got {value!r}$"):
            float_field({"beta": value}, "beta")

    @pytest.mark.parametrize("value", [7, -2, 7.5, np.float64(3.0)])
    def test_float_field_takes_ints_and_floats(self, value):
        number = float_field({"beta": value}, "beta")
        assert type(number) is float and number == value

    def test_float_field_default_and_infinity(self):
        assert float_field({}, "g", 2.0) == 2.0
        assert float_field({"g": -math.inf}, "g") == -math.inf

    def test_float_record_reads_fields_in_order(self):
        @dataclass(frozen=True)
        class Record:
            a: float
            b: float = 2.0

        assert float_record(Record, {"a": 1}) == Record(1.0, 2.0)
        with pytest.raises(ValueError, match="^missing field 'a'$"):
            float_record(Record, {"b": 3.0})
        with pytest.raises(ValueError, match="field 'a'"):
            float_record(Record, {"a": "x", "b": "y"})

    def test_float_record_readers(self):
        @dataclass(frozen=True)
        class Record:
            a: float
            tag: Region | None = None
            n: int = 3

        calls = []

        def read_n(obj, name, default):
            calls.append((name, default))
            return int_field(obj, name, default)

        readers = {"tag": functools.partial(tag_field, tags=Region), "n": read_n}
        assert float_record(Record, {"a": 1, "tag": "B"}, readers=readers) == Record(
            1.0, Region.B, 3)
        assert float_record(Record, {"a": 1, "tag": None, "n": 5}, readers=readers) == Record(
            1.0, None, 5)
        assert calls == [("n", 3), ("n", 3)]
        with pytest.raises(ValueError, match="^r: unknown field 'm'$"):
            float_record(Record, {"a": 1, "m": 2}, "r: ", readers)

    def test_tag_field_names_field_and_choices(self):
        tags = [Region.A, Region.B]
        assert tag_field({"g": "B"}, "g", tags=tags) is Region.B
        assert tag_field({}, "g", None, tags) is None
        assert tag_field({"g": None}, "g", None, tags) is None
        with pytest.raises(ValueError, match="^missing field 'g'$"):
            tag_field({}, "g", tags=tags)
        for value in ("All", "b", None, 1, ["A"]):
            with pytest.raises(ValueError) as exc:
                tag_field({"g": value}, "g", tags=tags)
            assert str(exc.value) == f"field 'g' must be one of A, B, got {value!r}"

    def test_model_from_dict_ignores_other_keys(self):
        obj = {"alpha_db": 80, "beta": 2, "sigma_db": 1, "r_squared": 0.5, "n": 3, "x": "y"}
        assert model_from_dict(obj) == PathLossModel(80.0, 2.0, 1.0)

    def test_load_json_object_names_file(self, tmp_path):
        class ModelFileError(ValueError):
            pass

        path = tmp_path / "m.json"
        for text, expected in [
            ("{", "invalid JSON"),
            ("[]", "model must be a JSON object, not list"),
            ('{"beta": 2.0, "sigma_db": 1.0}', "missing field 'alpha_db'"),
            ('{"alpha_db": NaN, "beta": 2.0, "sigma_db": 1.0}', "field 'alpha_db'"),
        ]:
            path.write_text(text)
            with pytest.raises(ModelFileError, match=expected) as exc:
                load_json_object(path, "model", model_from_dict, ModelFileError)
            assert str(path) in str(exc.value)

    def test_load_json_object_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="model file not found"):
            load_json_object(tmp_path / "none.json", "model", model_from_dict)

    def test_csv_text(self, monkeypatch):
        assert csv_text(("a", "b"), [("1", "2"), ("3", "")]) == "a,b\n1,2\n3,\n"
        assert csv_text(("a",), []) == "a\n"
        assert csv_text(("a",), [("",)]) == "a\n\n"
        monkeypatch.setattr("busloss.models.CSV_BLOCK_ROWS", 2)
        rows = [(str(i), "") for i in range(5)]
        assert csv_text(("a", "b"), iter(rows)) == "a,b\n" + "".join(f"{i},\n" for i in range(5))
        assert csv_text(("a",), [("",)] * 3) == "a\n\n\n\n"

    # The test_csv_rows_* tests check read_csv's framing, test_float_rows_* its
    # float() conversion and test_raise_first_bad_row the order of its faults.
    def test_csv_rows_inverts_csv_text(self):
        text = csv_text(("a", "b", "c"), [("1", "", "x"), (" ", " ", ""), ("2", "3", "y")])
        rows = read_csv(text, "t.csv", "test", ("a",), Rows, {"c": str, "b": int})
        assert [a.tolist() for a in rows.arrays] == [[1.0, 2.0]]
        assert [(name, list(column)) for name, column in rows.tags.items()] == [
            ("b", [None, 3]), ("c", ["x", "y"])]

    def test_csv_tag_columns_are_categorical(self):
        # Each distinct cell is parsed once; cells that parse to one tag share its code.
        text = "a,b\n1, 3\n2,\n3,3 \n4,03\n5,7\n"
        tags = read_csv(text, "t.csv", "test", ("a",), Rows, {"b": int}).tags
        assert tags["b"].codes.tolist() == [0, -1, 0, 0, 1] and tags["b"].values == (3, 7)
        assert not tags["b"].codes.flags.writeable

    def test_csv_tag_values_in_file_order_under_any_hash_seed(self):
        # Set iteration follows the string hash, which PYTHONHASHSEED sets per process;
        # the values must keep file order anyway, also for tags first seen in a later block.
        code = ("import busloss.models as m\n"
                "m.CSV_BLOCK_ROWS = 2\n"
                "from busloss.fit import samples_from_csv\n"
                "s = samples_from_csv(open(0).read())\n"
                "print(s.seat.values, [r.value for r in s.region.values])\n")
        text = ("distance_m,path_loss_db,seat,region\n1,80, 3,C\n2,81,,A\n"
                "3,82,3 , D\n4,83,03,B \n5,84,7,\n6,85,5,All\n")
        env = {**os.environ, "PYTHONHASHSEED": "9", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(busloss.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], input=text, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout == "(3, 7, 5) ['C', 'A', 'D', 'B', 'All']\n"

    @pytest.mark.parametrize("text, expected", [
        ("", "t.csv: empty test file"),
        ("b,a\n", "t.csv:1: header must start with a"),
        ("a,d\n", "t.csv:1: unknown column 'd'"),
        ("a,b,b\n", "t.csv:1: repeated column 'b'"),
        # A text with no line feed is all header.
        ("a,d", "t.csv:1: unknown column 'd'"),
        ("a,b,b", "t.csv:1: repeated column 'b'"),
    ])
    def test_csv_rows_header_errors(self, text, expected):
        with pytest.raises(ValueError, match=f"^{expected}$"):
            read_csv(text, "t.csv", "test", ("a",), Rows, {"b": str})

    def test_csv_rows_is_lazy(self):
        # The rows before a wrong-width row are read and checked first.
        text = "a,b\r\n1,2\r\n1,2,3\n"
        with pytest.raises(ValueError, match="^t.csv:3: expected 2 columns$"):
            read_csv(text, "t.csv", "test", ("a", "b"), Rows)
        with pytest.raises(ValueError, match="^t.csv:2: b is 2$"):
            read_csv(text, "t.csv", "test", ("a", "b"), checked(lambda a, b: [(b == 2, "b is 2")]))

    def test_csv_columns_blocks_count_skipped_rows(self, monkeypatch):
        monkeypatch.setattr("busloss.models.CSV_BLOCK_ROWS", 3)
        text = "a,b\n1,2\n\n3,4\n5,6\n , \n7,8\n"
        arrays = read_csv(text, "t.csv", "test", ("a", "b"), Rows).arrays
        assert [a.tolist() for a in arrays] == [[1, 3, 5, 7], [2, 4, 6, 8]]
        for value, line in [(1, 2), (3, 4), (5, 5), (7, 7)]:
            def rules(a, b):
                return [(a == value, f"a is {value}")]

            with pytest.raises(ValueError, match=f"^t.csv:{line}: a is {value}$"):
                read_csv(text, "t.csv", "test", ("a", "b"), checked(rules))
        for row, bad, message in [("7,8", "7,x", "7: non-numeric value"),
                                  ("7,8", "7,8,9", "7: expected 2 columns"),
                                  ("5,6", "5,6,", "5: expected 2 columns")]:
            with pytest.raises(ValueError, match=f"^t.csv:{message}$"):
                read_csv(text.replace(row, bad), "t.csv", "test", ("a", "b"), Rows)
        assert CSV_BLOCK_ROWS == 8192

    def test_csv_columns_blank_chars_are_str_whitespace(self):
        from busloss.models import _BLANK_CHARS

        whitespace = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
        assert sorted(_BLANK_CHARS) == sorted(whitespace + ",")

    @pytest.mark.parametrize("columns, rows", [
        ([[]], 0), ([["1", " 2 ", "1_0"]], 3), ([["x"]], 0), ([["1", "2", "x", "4"]], 2),
        ([["1"] * 1000 + ["nan", ""] + ["1"] * 5], 1001),
        ([["1", "2", "3", "4"], ["5", "6", "x", "8"]], 2),
        ([["1", "y", "3"], ["5", "6", "x"]], 1),
    ])
    def test_float_rows_stop_at_first_rejected_row(self, columns, rows):
        # A leading column of zeros keeps a row whose cells are blank from being skipped.
        names = ["i"] + [f"c{k}" for k in range(len(columns))]
        text = csv_text(names, [("0", *row) for row in zip(*columns)])
        seen = []
        try:
            read_csv(text, "t.csv", "test", names,
                     checked(lambda *arrays: seen.extend(arrays) or []))
        except ValueError as exc:
            assert rows < len(columns[0])
            assert str(exc) == f"t.csv:{rows + 2}: non-numeric value"
        else:
            assert rows == len(columns[0])
        assert len(seen) == len(names)
        for cells, column in zip([["0"] * rows, *columns], seen):
            assert column.dtype == np.float64
            np.testing.assert_array_equal(column, [float(c) for c in cells[:rows]])

    @pytest.mark.parametrize("parsed, masks, expected", [
        (3, [[0, 0, 0], [0, 0, 0]], None),
        (2, [[0, 0], [0, 0]], "t.csv:9: non-numeric value"),
        (3, [[0, 1, 0], [1, 0, 0]], "t.csv:2: second"),
        (3, [[0, 1, 1], [0, 1, 0]], "t.csv:5: first"),
        (1, [[1], [1]], "t.csv:2: first"),
    ])
    def test_raise_first_bad_row(self, parsed, masks, expected):
        # Rows on lines 2, 5 and 9; the row after the first `parsed` is not a number.
        cells = ["x" if i == parsed else "1" for i in range(3)]
        text = "a\n{}\n\n\n{}\n\n\n\n{}\n".format(*cells)

        def rules(a):
            assert len(a) == parsed
            return [(np.array(m, dtype=bool), msg) for m, msg in zip(masks, ["first", "second"])]

        if expected is None:
            read_csv(text, "t.csv", "test", ("a",), checked(rules))
            return
        with pytest.raises(ValueError, match=f"^{expected}$"):
            read_csv(text, "t.csv", "test", ("a",), checked(rules))

    @pytest.mark.parametrize("text, expected", [
        ("a\n\n , \n", "t.csv: no rows"),
        ("a\n\nx\n", "t.csv:3: non-numeric value"),
        ("a\n1\n", None),
    ])
    def test_fault_of_no_row_names_only_the_source(self, text, expected):
        # A rule bad at row 0 of no row: the reader names the file; a row that
        # stops the reading first is named by its own fault.
        record = checked(lambda a: [(np.array([a.size == 0]), "no rows")])
        if expected is None:
            assert read_csv(text, "t.csv", "test", ("a",), record).arrays[0].tolist() == [1.0]
            return
        with pytest.raises(ValueError, match=f"^{expected}$"):
            read_csv(text, "t.csv", "test", ("a",), record)

    def test_read_text_names_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"a\r\nb\xe9")
        with pytest.raises(ValueError, match="s.csv: not UTF-8 text"):
            read_text(path, "sample")
        path.write_bytes(b"a\r\nb\r")
        assert read_text(path, "sample") == "a\nb\n"
        with pytest.raises(ValueError, match="^sample file not found: none.csv$"):
            read_text("none.csv", "sample")

    @pytest.mark.parametrize("value", [1.5, "x", None, math.inf])
    def test_int_field_names_bad_field(self, value):
        with pytest.raises(ValueError, match="field 'seat' must be"):
            int_field({"seat": value}, "seat")
        assert int_field({"seat": 14.0}, "seat") == 14
