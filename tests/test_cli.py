"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import busloss
from busloss.cli import _json_table, build_parser, main
from busloss.models import HeightClass, Region, builtin_model, model_to_dict


SHIPPED_LAYOUT = resources.files("busloss") / "data" / "default_layout.json"
OTHER_MODEL = {"alpha_db": 78.86, "beta": 2.03, "sigma_db": 2.0, "region": None, "height": None}


def shipped_layout() -> dict:
    """A fresh copy of the JSON object of the shipped layout file."""
    return json.loads(SHIPPED_LAYOUT.read_text(encoding="utf-8"))


# SHA-256 of the stdout of commands that draw no random numbers. Output bytes
# are part of the contract, so a refactor must leave every digest unchanged.
GOLDEN_DIGESTS = [
    (["verify"], "1597091ee89de85b9ff0d8ddd48ba12232e49e2fb115d903fce84aae0fcd4689"),
    (["eval", "--model", "All/upper", "--distances", "1:12:0.5"],
     "239ccac1c3230e680e1ccc4e6057f59c6f53b25c8e8a5dcd6d65ae3625de0917"),
    (["eval", "--model", "B/lower", "--distances", "0.25:16:0.25"],
     "d0c0047741a0b41bd84a54f509f151f3f29a5e9af96c555c0c80de855741e21c"),
    (["compare", "--model-a", "C/upper", "--model-b", "{other}", "--distances", "0.5:15:0.5"],
     "453d48cd237f182fed58f7023d69f9471635bab7bfff338b2935bb386f1bef41"),
    (["sweep", "--height", "upper"],
     "b2f0cadd8cd30891868c043a9b17a53f584c812bceca459a4be3d42f59f44d6d"),
    (["sweep", "--height", "lower"],
     "bc27636020c6f34d94bc32cb810e7a4a1adcbfa41b8f4479ff9ad006866a1c6e"),
    (["sweep", "--height", "upper", "--format", "json"],
     "5977caf0d9865b695af334865fece8bde19e43c46edc37b96b81fe57b05492a2"),
    (["sweep", "--height", "lower", "--format", "json"],
     "920efa7cea5cf572ed2947acd2eefd72f4b71ec1f2ee383951767c795367fad6"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def noiseless_csv(tmp_path):
    """Synthetic sigma=0 sample CSV generated from the pooled lower model."""
    model_path = tmp_path / "model.json"
    obj = model_to_dict(builtin_model(Region.ALL, HeightClass.LOWER))
    obj["sigma_db"] = 0.0
    model_path.write_text(json.dumps(obj))
    out = tmp_path / "samples.csv"
    code = main([
        "synth", "--model", str(model_path), "--height", "lower",
        "--seed", "1", "--output", str(out),
    ])
    assert code == 0
    return out


class TestFit:
    def test_noiseless_recovery(self, capsys, noiseless_csv):
        code, out, _ = run(capsys, "fit", str(noiseless_csv))
        assert code == 0
        result = json.loads(out)
        assert round(result["alpha_db"], 2) == 85.23
        assert round(result["beta"], 2) == 1.74

    def test_by_group(self, capsys, noiseless_csv):
        code, out, _ = run(capsys, "fit", str(noiseless_csv), "--by-group")
        assert code == 0
        result = json.loads(out)
        assert "All/lower" in result
        assert round(result["All/lower"]["alpha_db"], 2) == 85.23

    def test_two_rows_exit_3(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("distance_m,path_loss_db\n1.0,85.0\n2.0,90.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 3

    def test_text_in_numeric_column_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("distance_m,path_loss_db\n1.0,85.0\nabc,90.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 2
        assert ":3:" in err

    @pytest.mark.parametrize("by_group", [[], ["--by-group"]])
    def test_non_finite_path_loss_names_line(self, capsys, tmp_path, by_group):
        path = tmp_path / "bad.csv"
        path.write_text("distance_m,path_loss_db\n1.0,85.0\n2.0,90.0\n3.0,nan\n4.0,96.0\n")
        code, out, err = run(capsys, "fit", str(path), *by_group)
        assert code == 2
        assert out == ""
        assert f"{path}:4: path loss must be finite" in err

    def test_by_group_without_tag_columns_names_file(self, capsys, tmp_path):
        path = tmp_path / "untagged.csv"
        path.write_text("distance_m,path_loss_db,region\n1.0,85.0,A\n2.0,90.0,A\n3.0,93.0,A\n")
        code, out, err = run(capsys, "fit", str(path), "--by-group")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: --by-group needs region and height columns\n"


class TestEval:
    def test_mean_at_ten_metres(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "All/upper", "--distances", "10:10:1")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(103.16, abs=0.001)

    def test_sigma_zero_percentiles_collapse(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(
            {"alpha_db": 80.0, "beta": 2.0, "sigma_db": 0.0, "region": None, "height": None}
        ))
        code, out, _ = run(capsys, "eval", "--model", str(model_path), "--distances", "2:2:1")
        row = out.splitlines()[1].split(",")
        assert row[1] == row[2] == row[3]

    def test_percentile_spread(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "All/lower", "--distances", "1:1:1")
        row = out.splitlines()[1].split(",")
        assert float(row[3]) - float(row[2]) == pytest.approx(8.356, abs=0.001)

    def test_invalid_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--model", "All/lower", "--distances", "0:5:1")
        assert code == 2

    def test_extrapolation_warning(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "All/lower", "--distances", "0.1:0.2:0.1")
        assert code == 0
        assert "extrapolat" in err

    @pytest.mark.parametrize("spec", ["1:1000001:1", "1:1e30:1e-30", "1e-300:1e300:1e-300"])
    def test_grid_over_limit_exit_2(self, capsys, spec):
        # the point count is checked before any grid is allocated
        code, out, err = run(capsys, "eval", "--model", "All/lower", "--distances", spec)
        assert code == 2
        assert out == ""
        assert "more than 1000000 points" in err

    @pytest.mark.parametrize("spec", ["1:inf:1", "nan:5:1", "1:5:nan", "1:5:inf"])
    def test_non_finite_range_exit_2(self, capsys, spec):
        code, _, err = run(capsys, "eval", "--model", "All/lower", "--distances", spec)
        assert code == 2
        assert "invalid distance range" in err

    def test_missing_model_path_names_both_readings(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "data/missing.json", "--distances", "1:2:1")
        assert code == 2
        assert "Region/height" in err
        assert "existing file" in err


class TestJsonInputs:
    @pytest.mark.parametrize("argv, content, expected", [
        (["eval", "--model", "{f}", "--distances", "1:2:1"], "[1, 2]", "JSON object"),
        (["eval", "--model", "{f}", "--distances", "1:2:1"],
         '{"alpha_db": null, "beta": 2.0, "sigma_db": 1.0}', "alpha_db"),
        (["compare", "--model-a", "All/upper", "--model-b", "{f}", "--distances", "1:2:1"],
         '"text"', "JSON object"),
        (["process", "{d}", "{f}"], "[]", "JSON object"),
        (["process", "{d}", "{f}"], '{"radiated_power_db": null}', "radiated_power_db"),
        (["synth", "--model", "All/upper", "--height", "upper", "--seed", "1",
          "--pdp-dir", "{d}", "--calibration", "{f}"], "3", "JSON object"),
        (["sweep", "--height", "upper", "--config", "{f}"], "[]", "JSON object"),
        (["sweep", "--height", "upper", "--config", "{f}"], '{"tx_power_dbm": null}',
         "tx_power_dbm"),
        (["footprint", "--height", "upper", "--active", "14", "--seed", "1",
          "--config", "{f}"], "null", "JSON object"),
        (["footprint", "--height", "upper", "--active", "14", "--seed", "1",
          "--config", "{f}"], '{"tx_power_dbm": "x"}', "tx_power_dbm"),
        (["sweep", "--height", "upper", "--layout", "{f}"], "[]", "JSON object"),
        (["sweep", "--height", "upper", "--config", "{f}"], '{"tx_power_dbn": 30}',
         "unknown field 'tx_power_dbn'"),
        (["process", "{d}", "{f}"], '{"radiated_power_db": 0.0, "tx_power_dbn": 30}',
         "unknown field 'tx_power_dbn'"),
    ])
    def test_malformed_file_exit_2(self, capsys, tmp_path, argv, content, expected):
        path = tmp_path / "input.json"
        path.write_text(content)
        argv = [a.format(f=path, d=tmp_path / "pdp") for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert expected in err
        assert not (tmp_path / "pdp").exists()


    @pytest.mark.parametrize("argv", [
        ["sweep", "--height", "upper"],
        ["footprint", "--height", "upper", "--active", "14", "--seed", "1", "--draws", "10"],
    ])
    def test_nan_budget_field_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "budget.json"
        path.write_text('{"tx_power_dbm": NaN}')
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert "tx_power_dbm" in err

    # JSON true and "7" are not numbers, though float() takes both.
    @pytest.mark.parametrize("value", [True, "7"], ids=["true", "text"])
    @pytest.mark.parametrize("argv, base, where", [
        (["sweep", "--height", "upper", "--config", "{f}"], {}, ["tx_power_dbm"]),
        (["process", "{d}", "{f}"], {}, ["radiated_power_db"]),
        (["eval", "--model", "{f}", "--distances", "1:2:1"], OTHER_MODEL, ["beta"]),
        (["sweep", "--height", "upper", "--layout", "{f}"], shipped_layout(),
         ["seats", 3, "x"]),
    ], ids=["budget", "calibration", "model", "layout"])
    def test_bool_or_text_number_exit_2(self, capsys, tmp_path, argv, base, where, value):
        obj = json.loads(json.dumps(base))
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *[a.format(f=path, d=tmp_path) for a in argv])
        assert (code, out) == (2, "")
        assert str(path) in err
        assert f"field {where[-1]!r} must be a number, got {value!r}" in err

    @pytest.mark.parametrize("field, value, message", [
        ("lower_excluded", "false", "must be true or false, got 'false'"),
        ("lower_excluded", None, "must be true or false, got None"),
        ("lower_excluded", 0, "must be true or false, got 0"),
        ("group", 1, "must be one of A, B, C, D, got 1"),
        ("group", "E", "must be one of A, B, C, D, got 'E'"),
        ("group", "All", "must be one of A, B, C, D, got 'All'"),
    ])
    def test_layout_seat_field_exit_2(self, capsys, tmp_path, field, value, message):
        path = tmp_path / "layout.json"
        obj = shipped_layout()
        obj["seats"][0][field] = value
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sweep", "--height", "lower", "--layout", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: bad layout (seat 1: field {field!r} {message})\n"

    @staticmethod
    def _misspell_seat_5_flag(obj):
        (seat,) = (s for s in obj["seats"] if s["id"] == 5)
        seat["lower_exluded"] = seat.pop("lower_excluded")

    @pytest.mark.parametrize("edit, message", [
        (_misspell_seat_5_flag, "seat 5: unknown field 'lower_exluded'"),
        (lambda obj: obj["seats"][0].update(colour="red"), "seat 1: unknown field 'colour'"),
        (lambda obj: obj.update(colour="red"), "unknown field 'colour'"),
        (lambda obj: obj["rx"].update(zz=1.0), "rx: unknown field 'zz'"),
        (lambda obj: obj.pop("seats"), "missing field 'seats'"),
        (lambda obj: obj.update(seats=[]), "field 'seats' must list at least one seat"),
        (lambda obj: obj.update(seats=5), "field 'seats' must list at least one seat"),
        (lambda obj: obj.update(rx=[1, 2, 3]), "rx: must be a JSON object, not list"),
        (lambda obj: obj["rx"].pop("x"), "rx: missing field 'x'"),
        (lambda obj: obj["seats"].insert(2, "abc"), "seats[2]: must be a JSON object, not str"),
        (lambda obj: obj["seats"][2].pop("id"), "seats[2]: missing field 'id'"),
        (lambda obj: obj["seats"][2].update(id="3"), "seats[2]: field 'id' must be a number, got '3'"),
        (lambda obj: obj["seats"][4].update(x="a"), "seat 5: field 'x' must be a number, got 'a'"),
    ], ids=["misspelt-seat-flag", "seat-extra", "top-extra", "rx-extra", "no-seats", "empty-seats",
            "seats-number", "rx-list", "rx-no-x", "seat-text", "seat-no-id", "seat-text-id",
            "seat-text-x"])
    def test_layout_unknown_field_or_no_seats_exit_2(self, capsys, tmp_path, edit, message):
        # Seat 5 has no lower position, so the misspelt flag would list it.
        path = tmp_path / "layout.json"
        obj = shipped_layout()
        edit(obj)
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sweep", "--height", "lower", "--layout", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: bad layout ({message})\n"

    def test_layout_text_number_names_file_and_field(self, capsys, tmp_path):
        path = tmp_path / "layout.json"
        obj = shipped_layout()
        obj["seats"][3]["x"] = "a"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sweep", "--height", "upper", "--layout", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert "field 'x'" in err


class TestVerify:
    def test_shipped_registry_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out

    def test_perturbed_registry_fails(self):
        from busloss.cli import verify_registry
        from busloss.models import PathLossModel, builtin_registry

        registry = dict(builtin_registry())
        key = (Region.ALL, HeightClass.LOWER)
        registry[key] = PathLossModel(85.23, 1.74, 3.0, *key)
        ok, rows = verify_registry(registry)
        assert not ok
        failed = [r for r in rows if not r["pass"]]
        assert any(r["quantity"] == "var" and r["actual"] == 9.0 for r in failed)

    def test_tolerance_boundary(self):
        # deltas at the rounding half-width pass; just beyond they fail
        from busloss.cli import verify_registry
        from busloss.models import PathLossModel, builtin_registry
        import math

        registry = dict(builtin_registry())
        key = (Region.ALL, HeightClass.UPPER)

        registry[key] = PathLossModel(82.86, 2.03, math.sqrt(5.4701), *key)
        _, rows = verify_registry(registry)
        var_row = [r for r in rows if r["height"] == "upper" and r["quantity"] == "var"][0]
        assert var_row["pass"]

        registry[key] = PathLossModel(82.86, 2.03, math.sqrt(5.4699), *key)
        _, rows = verify_registry(registry)
        var_row = [r for r in rows if r["height"] == "upper" and r["quantity"] == "var"][0]
        assert not var_row["pass"]


def write_set(root, sweeps, seat=14, height="upper"):
    """A one-set measurement tree; sweeps lists each sweep's `delay,power` rows."""
    entry = root / f"{seat}_{height}"
    entry.mkdir(parents=True)
    (entry / "meta.json").write_text(json.dumps({"seat": seat, "height": height}))
    for k, rows in enumerate(sweeps):
        (entry / f"sweep_{k}.csv").write_text("delay_ns,power_db\n" + "".join(r + "\n" for r in rows))
    return root


class TestProcessPipeline:
    def test_synth_process_fit_round_trip(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        obj = model_to_dict(builtin_model(Region.ALL, HeightClass.UPPER))
        obj["sigma_db"] = 0.0
        model_path.write_text(json.dumps(obj))
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps({"radiated_power_db": 0.0}))

        pdp_dir = tmp_path / "pdp"
        assert main([
            "synth", "--model", str(model_path), "--height", "upper",
            "--seed", "7", "--pdp-dir", str(pdp_dir), "--calibration", str(cal_path),
        ]) == 0
        capsys.readouterr()

        samples_path = tmp_path / "samples.csv"
        assert main([
            "process", str(pdp_dir), str(cal_path), "--output", str(samples_path),
        ]) == 0
        capsys.readouterr()

        code, out, _ = run(capsys, "fit", str(samples_path))
        assert code == 0
        result = json.loads(out)
        assert round(result["alpha_db"], 2) == 82.86
        assert round(result["beta"], 2) == 2.03

    def test_help_says_layout_gives_the_region_column(self, capsys):
        # process without --layout writes no region column, so fit --by-group exits 2 on it.
        with pytest.raises(SystemExit) as exc:
            main(["process", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0
        assert ("--layout LAYOUT layout JSON that tags each sample with its seat's region, "
                "which fit --by-group needs (default: no region column)") in text
        assert "shipped layout" not in text

    def test_corrupt_sweep_exit_2(self, capsys, tmp_path):
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps({"radiated_power_db": 0.0}))
        d = tmp_path / "pdp" / "1_upper"
        d.mkdir(parents=True)
        (d / "meta.json").write_text('{"seat": 1, "height": "upper"}')
        (d / "sweep_0.csv").write_text("delay_ns,power_db\n2.0,-100\n1.0,-100\n")
        code, _, err = run(capsys, "process", str(tmp_path / "pdp"), str(cal_path))
        assert code == 2
        assert "sweep_0.csv" in err

    def test_tree_without_sets_exit_2(self, capsys, tmp_path):
        cal = tmp_path / "cal.json"
        cal.write_text('{"radiated_power_db": 0.0}')
        (tmp_path / "pdp").mkdir()
        (tmp_path / "pdp" / "notes.txt").write_text("no sets yet\n")
        out_path = tmp_path / "samples.csv"
        code, out, err = run(capsys, "process", str(tmp_path / "pdp"), str(cal), "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'pdp'}: no <seat>_<height> set directories\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("sweeps, reason", [
        ([["0.0,-90"]], "distance"),
        ([["0.0,-90", "5.0,-95"], ["0.0,-91"], ["2.0,-99"]], "distance"),
        ([["13.0,5000"]], "received power"),
        ([["13.0,-5000"]], "received power"),
    ])
    def test_meaningless_set_names_set(self, capsys, tmp_path, sweeps, reason):
        cal = tmp_path / "cal.json"
        cal.write_text('{"radiated_power_db": 0.0}')
        code, out, err = run(capsys, "process", str(write_set(tmp_path / "pdp", sweeps)), str(cal))
        assert (code, out) == (2, "")
        assert err.startswith("error: 14_upper: ") and reason in err
        assert err.count("\n") == 1

    def test_set_seat_missing_from_layout_names_set(self, capsys, tmp_path):
        cal = tmp_path / "cal.json"
        cal.write_text('{"radiated_power_db": 0.0}')
        root = write_set(tmp_path / "pdp", [["13.5,-90"]])
        write_set(root, [["13.5,-90"]], seat=99)
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(shipped_layout()))
        code, out, err = run(capsys, "process", str(root), str(cal), "--layout", str(layout))
        assert (code, out) == (4, "")
        assert err == f"error: {layout}: 99_upper: no seat with id 99\n"

    @pytest.mark.parametrize("command", ["synth", "process"])
    def test_calibration_sum_overflow_exit_2(self, capsys, tmp_path, command):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps({"radiated_power_db": 1e308, "g_tx_dbi": 1e308}))
        argv = {
            "synth": ["synth", "--model", "All/upper", "--height", "upper", "--seed", "1",
                      "--pdp-dir", str(tmp_path / "out"), "--calibration", str(cal)],
            "process": ["process", str(write_set(tmp_path / "pdp", [["13.5,-90"]])), str(cal)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert str(cal) in err and "radiated_power_db must be in [-300, 300], got 1e+308" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("calibration, expected", [
        ({"radiated_power_db": 1e300}, "radiated_power_db must be in [-300, 300], got 1e+300"),
        ({"radiated_power_db": 0.0, "g_rx_dbi": -301}, "g_rx_dbi must be in [-300, 300], got -301.0"),
        ({"radiated_power_db": 0.0, "g_tx_dbi": 1e300, "g_rx_dbi": -1e300},
         "g_tx_dbi must be in [-300, 300], got 1e+300"),
    ], ids=["radiated-1e300", "g-rx-minus-301", "gains-cancel"])
    def test_out_of_range_calibration_exit_2(self, capsys, tmp_path, calibration, expected):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(calibration))
        samples = tmp_path / "s.csv"
        code, out, err = run(capsys, "process", str(write_set(tmp_path / "pdp", [["13.5,-90"]])),
                             str(cal), "-o", str(samples))
        assert (code, out) == (2, "")
        assert err == f"error: {cal}: bad calibration ({expected})\n"
        assert not samples.exists()


# Valid input lines of each CSV reader: a sample file through fit, a sweep file through process.
CSV_READER_LINES = {
    "sample": ["distance_m,path_loss_db", "1.0,85.0", "2.0,90.5", "4.0,96.0"],
    "sweep": ["delay_ns,power_db", "13.0,-90.0", "14.0,-95.0", "15.0,-97.5"],
}


class TestCsvInputs:
    # (row inserted as line 3, line end, expected stderr with {path}; None: the
    # output of the valid file). The text is written as Latin-1.
    @pytest.mark.parametrize("row, newline, error", [
        ("1.5," + "1" * 200_000, "\n", "{path}:3: "),
        ("1.5,9\xe9", "\n", "{path}: not UTF-8"),
        ('"1.5",90.0', "\n", "{path}:3: non-numeric value"),
        (None, "\r\n", None),
        (",", "\n", None),
    ], ids=["long cell", "latin-1 byte", "quoted cell", "crlf", "comma-only row"])
    @pytest.mark.parametrize("reader", sorted(CSV_READER_LINES))
    def test_reader_boundary(self, capsys, tmp_path, reader, row, newline, error):
        lines = CSV_READER_LINES[reader]
        if reader == "sample":
            path = tmp_path / "samples.csv"
            argv = ["fit", str(path)]
        else:
            path = write_set(tmp_path / "pdp", [[]]) / "14_upper" / "sweep_0.csv"
            cal = tmp_path / "cal.json"
            cal.write_text('{"radiated_power_db": 0.0}')
            argv = ["process", str(tmp_path / "pdp"), str(cal)]

        path.write_text("\n".join(lines) + "\n")
        code, valid_out, _ = run(capsys, *argv)
        assert code == 0
        changed = lines if row is None else [*lines[:2], row, *lines[2:]]
        path.write_bytes((newline.join(changed) + newline).encode("latin-1"))
        code, out, err = run(capsys, *argv)
        if error is None:
            assert (code, out, err) == (0, valid_out, "")
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: " + error.format(path=path))
            assert err.count("\n") == 1


class TestFilePaths:
    @pytest.mark.parametrize("argv, target", [
        (["eval", "--model", "All/upper", "--distances", "1:2:1", "-o", "{t}"], "missing/x.csv"),
        (["synth", "--model", "All/upper", "--height", "upper", "--seed", "1",
          "--pdp-dir", "{t}", "--calibration", "{cal}"], "a_file"),
    ], ids=["-o in a missing directory", "--pdp-dir on a file"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, argv, target):
        cal = tmp_path / "cal.json"
        cal.write_text('{"radiated_power_db": 0.0}')
        (tmp_path / "a_file").write_text("")
        path = tmp_path / target
        code, out, err = run(capsys, *[a.format(t=path, cal=cal) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_directory_as_model_named(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", "--model", str(tmp_path), "--distances", "1:2:1")
        assert (code, out, err) == (2, "", f"error: {tmp_path}: not a regular file\n")

    def test_directory_as_sweep_named(self, capsys, tmp_path):
        sweep = write_set(tmp_path / "pdp", [["13.0,-90"], ["13.0,-91"]]) / "14_upper" / "sweep_1.csv"
        sweep.unlink()
        sweep.mkdir()
        cal = tmp_path / "cal.json"
        cal.write_text('{"radiated_power_db": 0.0}')
        code, out, err = run(capsys, "process", str(tmp_path / "pdp"), str(cal))
        assert (code, out, err) == (2, "", f"error: {sweep}: not a regular file\n")


class TestSynth:
    def test_same_seed_identical(self, capsys):
        _, out_a, _ = run(capsys, "synth", "--model", "All/upper", "--height", "upper", "--seed", "5")
        _, out_b, _ = run(capsys, "synth", "--model", "All/upper", "--height", "upper", "--seed", "5")
        assert out_a == out_b

    def test_existing_sweeps_exit_2_and_tree_unchanged(self, capsys, tmp_path):
        cal, pdp = tmp_path / "cal.json", tmp_path / "pdp"
        cal.write_text('{"radiated_power_db": 0.0}')
        argv = ["synth", "--model", "All/upper", "--height", "upper", "--pdp-dir", str(pdp),
                "--calibration", str(cal)]
        assert run(capsys, *argv, "--sweeps", "12", "--seed", "1")[0] == 0
        before = {p: p.read_bytes() for p in pdp.rglob("*") if p.is_file()}
        code, out, err = run(capsys, *argv, "--sweeps", "10", "--seed", "2")
        assert (code, out) == (2, "")
        first = min(pdp.iterdir(), key=lambda p: int(p.name.split("_")[0]))
        assert err.strip().endswith(f"cannot write {first}: already holds sweep files")
        assert {p: p.read_bytes() for p in pdp.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("sweeps", ["0", "-1", "1001"])
    def test_sweep_count_out_of_range_exit_2(self, capsys, tmp_path, sweeps):
        cal = tmp_path / "cal.json"
        cal.write_text('{"radiated_power_db": 0.0}')
        code, out, err = run(
            capsys, "synth", "--model", "All/upper", "--height", "upper", "--seed", "1",
            "--pdp-dir", str(tmp_path / "pdp"), "--calibration", str(cal), "--sweeps", sweeps,
        )
        assert code == 2
        assert out == ""
        assert "n_sweeps must be between 1 and 1000" in err
        assert not (tmp_path / "pdp").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--model", "All/upper", "--height", "upper"],
        ["footprint", "--height", "upper", "--active", "14"],
    ])
    def test_negative_seed_names_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "argument --seed: must be a non-negative integer, got -1" in captured.err

    def test_lower_omits_excluded_seats(self, capsys):
        _, out, _ = run(capsys, "synth", "--model", "All/lower", "--height", "lower", "--seed", "1")
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 22
        seats = {int(r.split(",")[2]) for r in rows}
        assert seats.isdisjoint(set(range(5, 9)) | set(range(27, 31)))


class TestSweepAndFootprint:
    def test_row_counts(self, capsys):
        _, out_upper, _ = run(capsys, "sweep", "--height", "upper")
        _, out_lower, _ = run(capsys, "sweep", "--height", "lower")
        assert len(out_upper.strip().splitlines()) == 31
        assert len(out_lower.strip().splitlines()) == 23

    def test_csv_header(self, capsys):
        _, out, _ = run(capsys, "sweep", "--height", "upper")
        assert out.splitlines()[0] == "seat,height,distance_m,mean_pl_db,snr_db,rate_bps,coverage"

    def test_single_active_seat_matches_sweep_snr(self, capsys):
        _, sweep_out, _ = run(capsys, "sweep", "--height", "upper")
        snr_by_seat = {
            int(r.split(",")[0]): float(r.split(",")[4])
            for r in sweep_out.strip().splitlines()[1:]
        }
        _, fp_out, _ = run(
            capsys, "footprint", "--height", "upper", "--active", "14",
            "--seed", "1", "--draws", "20000",
        )
        row = fp_out.strip().splitlines()[1].split(",")
        # single transmitter: mean SINR converges on the sweep's mean-loss SNR
        assert float(row[1]) == pytest.approx(snr_by_seat[14], abs=0.1)

    def test_footprint_deterministic(self, capsys):
        args = ("footprint", "--height", "upper", "--active", "1,2", "--seed", "3", "--draws", "500")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    def test_excluded_seat_exit_4(self, capsys):
        code, _, _ = run(
            capsys, "footprint", "--height", "lower", "--active", "5",
            "--seed", "1", "--draws", "10",
        )
        assert code == 4

    def test_excluded_seat_checked_before_draws(self, capsys):
        code, _, _ = run(
            capsys, "footprint", "--height", "lower", "--active", "5",
            "--seed", "1", "--draws", "0",
        )
        assert code == 4

    def test_duplicate_active_seat_exit_2(self, capsys):
        code, out, err = run(
            capsys, "footprint", "--height", "upper", "--active", "14,2,14",
            "--seed", "1", "--draws", "10",
        )
        assert code == 2
        assert out == ""
        assert "seat 14" in err

    def test_first_repeated_active_seat_named(self, capsys):
        code, out, err = run(
            capsys, "footprint", "--height", "upper", "--active", "7,8,8,7",
            "--seed", "1", "--draws", "10",
        )
        assert (code, out, err) == (2, "", "error: seat 8 is listed more than once\n")

    def test_single_block_footprint_loads_no_thread_pool(self):
        # Only a footprint or coverage of more than one draw block imports
        # concurrent.futures, which loads logging; a cold start and a small
        # Monte-Carlo call pay for neither.
        code = ("import sys, busloss, busloss.cli\n"
                "busloss.cli.main(['footprint', '--height', 'upper', '--active', '14,2,22',"
                " '--seed', '3', '--draws', '1000', '--format', 'json'])\n"
                "busloss.empirical_coverage(busloss.default_layout(), busloss.builtin_registry(),"
                " busloss.LinkBudgetConfig(), busloss.HeightClass.UPPER, 3, 1000)\n"
                "print(sorted({'logging', 'concurrent.futures'} & set(sys.modules)), file=sys.stderr)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(busloss.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert [row["seat"] for row in json.loads(proc.stdout)] == [14, 2, 22]
        assert proc.stderr == "[]\n"

    def test_draws_over_limit_exit_2(self, capsys):
        # 10^11 draws x 2 links is rejected by arithmetic before anything is allocated
        code, out, err = run(
            capsys, "footprint", "--height", "upper", "--active", "1,2",
            "--seed", "1", "--draws", "100000000000",
        )
        assert code == 2
        assert out == ""
        assert "100000000000 draws x 2 links is over 50000000" in err

    def test_excluded_seat_checked_before_draw_limit(self, capsys):
        code, _, _ = run(
            capsys, "footprint", "--height", "lower", "--active", "5",
            "--seed", "1", "--draws", "100000000000",
        )
        assert code == 4

    def test_unknown_seat_exit_4(self, capsys):
        code, _, _ = run(
            capsys, "footprint", "--height", "upper", "--active", "99",
            "--seed", "1", "--draws", "10",
        )
        assert code == 4

    def test_excluded_seat_before_unknown_seat_exit_4(self, capsys):
        # the active seats are resolved in order, so the first bad one is named
        code, out, err = run(
            capsys, "footprint", "--height", "lower", "--active", "5,99",
            "--seed", "1", "--draws", "10",
        )
        assert (code, out) == (4, "")
        assert err == "error: seat 5 has no lower position (wheel arch)\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--height", "upper", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 30
        assert {"seat", "snr_db", "coverage", "extrapolated"} <= set(rows[0])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.dictionaries(
        st.text(max_size=4),
        st.floats() | st.integers() | st.booleans() | st.none() | st.text(max_size=4),
        max_size=5)))
    def test_json_table_is_indented_dumps(self, records):
        assert _json_table(records) == json.dumps(records, indent=2)

    @pytest.mark.parametrize("records", [
        [{}], [{}, {}], [{"a": 1}, {}], [{}, {"a": 1}, {}],
        [{"a": "}"}, {"b": ","}, {"c": "\n"}],
        [{"},\n    {": "},\n    {"}, {"x": "}, {", "y": "{}"}, {"z": "\n  },\n  {"}],
    ])
    def test_json_table_record_boundaries(self, records):
        assert _json_table(records) == json.dumps(records, indent=2)


class TestBudgetRanges:
    """Budgets whose powers leave float64, or drown the noise in it, exit 2 and
    name the fields instead of printing Infinity, NaN or -inf."""

    FOOTPRINT = ["footprint", "--height", "upper", "--active", "14,2", "--seed", "1",
                 "--draws", "100"]

    @pytest.mark.parametrize("argv, budget, expected", [
        (["sweep", "--height", "upper", "--format", "json"], {"tx_power_dbm": 1e300},
         "tx_power_dbm must be in [-300, 300], got 1e+300"),
        (FOOTPRINT + ["--format", "json"], {"tx_power_dbm": 1e300},
         "tx_power_dbm must be in [-300, 300], got 1e+300"),
        (FOOTPRINT, {"tx_power_dbm": -3500}, "tx_power_dbm must be in [-300, 300], got -3500"),
        (["footprint", "--height", "upper", "--active", "14", "--seed", "1", "--draws", "100"],
         {"tx_power_dbm": 300}, "tx_power_dbm + g_tx_dbi + g_rx_dbi is 377.655 dB above"),
    ], ids=["sweep-1e300", "footprint-json-1e300", "footprint-csv-minus-3500", "lone-seat-300"])
    def test_out_of_range_budget_exit_2(self, capsys, tmp_path, argv, budget, expected):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(budget))
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: bad budget config (")
        assert expected in err


class TestModelBounds:
    """A model file whose parameters leave their ranges exits 2 naming the file and
    the field, instead of printing -inf, NaN or inf or failing on the samples."""

    HUGE_BETA = {"alpha_db": 80, "beta": 1e308, "sigma_db": 2}

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "{m}", "--distances", "0.5:2:0.5"],
        ["compare", "--model-a", "All/upper", "--model-b", "{m}", "--distances", "0.5:2:0.5"],
        ["synth", "--model", "{m}", "--height", "upper", "--seed", "1"],
    ], ids=["eval", "compare", "synth"])
    def test_huge_beta_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.HUGE_BETA))
        code, out, err = run(capsys, *[a.format(m=path) for a in argv])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: bad model (beta must be in [-100, 100], got 1e+308)\n"

    @pytest.mark.parametrize("by_group", [False, True], ids=["fit", "by-group"])
    def test_fit_beyond_the_bounds_exit_3_or_skipped(self, capsys, tmp_path, by_group):
        # Three valid samples 1e-7 m apart whose OLS beta is about 2.3e7.
        rows = ["1,80", "1.0000001,90", "1.0000002,100"]
        text = "distance_m,path_loss_db,region,height\n"
        text += "".join(f"{row},A,upper\n" for row in rows)
        text += "".join(f"{row},B,upper\n" for row in ["1,80", "2,90", "3,100"])
        path = tmp_path / "s.csv"
        path.write_text(text if by_group else "distance_m,path_loss_db\n" + "\n".join(rows))
        code, out, err = run(capsys, "fit", str(path), *(["--by-group"] if by_group else []))
        if by_group:
            assert code == 0
            assert json.loads(out)["skipped"] == [{"region": "A", "height": "upper", "n": 3}]
        else:
            assert (code, out) == (3, "")
            assert err.startswith("error: fitted model out of range: beta must be in [-100, 100]")


class TestModelFiles:
    """fit's output is a model file: model_from_dict reads the model's own fields and
    ignores the statistics beside them."""

    STATS = ("r_squared", "n", "alpha_se_db", "beta_se")

    def test_fit_output_is_a_model_file(self, capsys, tmp_path):
        samples, model = tmp_path / "s.csv", tmp_path / "m.json"
        assert main(["synth", "--model", "All/upper", "--height", "upper", "--seed", "1",
                     "-o", str(samples)]) == 0
        assert main(["fit", str(samples), "-o", str(model)]) == 0
        obj = json.loads(model.read_text())
        assert set(self.STATS) < obj.keys()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({k: v for k, v in obj.items() if k not in self.STATS}))
        capsys.readouterr()
        outputs = []
        for argv in (["eval", "--model", "{m}", "--distances", "0.5:15:0.5"],
                     ["compare", "--model-a", "All/upper", "--model-b", "{m}",
                      "--distances", "0.5:15:0.5"],
                     ["synth", "--model", "{m}", "--height", "lower", "--seed", "2"]):
            for path in (model, bare):
                code, out, err = run(capsys, *[a.format(m=path) for a in argv])
                assert (code, err) == (0, "")
                outputs.append(out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 31
        assert outputs[2] == outputs[3] and outputs[4] == outputs[5]

    @pytest.mark.parametrize("field, value, choices", [
        ("region", "E", "A, B, C, D, All"),
        ("region", 1, "A, B, C, D, All"),
        ("height", "middle", "lower, upper"),
        ("height", ["upper"], "lower, upper"),
    ])
    def test_tag_fault_names_field(self, capsys, tmp_path, field, value, choices):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**OTHER_MODEL, field: value}))
        code, out, err = run(capsys, "eval", "--model", str(path), "--distances", "1:2:1")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: bad model "
                       f"(field {field!r} must be one of {choices}, got {value!r})\n")

    def test_null_or_absent_tags_are_none(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        outputs = []
        for obj in (OTHER_MODEL, {k: OTHER_MODEL[k] for k in ("alpha_db", "beta", "sigma_db")}):
            path.write_text(json.dumps(obj))
            outputs.append(run(capsys, "eval", "--model", str(path), "--distances", "1:2:1"))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


class TestParserCache:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_in_process_sequence_matches_fresh_parser(self, capsys, noiseless_csv):
        """Every call through the cached parser gives what a freshly built one gives,
        whatever the calls before it set, printed or failed on."""
        footprint = ["footprint", "--height", "upper", "--active", "14,2", "--seed", "3",
                     "--draws", "50"]
        sequence = [
            [*footprint, "--format", "json"],
            footprint,
            ["--help"],
            ["sweep", "--height", "lower", "--use-all-model"],
            ["bogus"],
            ["sweep", "--height", "lower"],
            ["fit", str(noiseless_csv), "--by-group"],
            ["sweep", "--help"],
            ["fit", str(noiseless_csv)],
        ]

        def call(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            return (code, *capsys.readouterr())

        cached = [call(argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(call(argv))
        assert cached == fresh
        assert cached[0][1].startswith("[") and not cached[1][1].startswith("[")
        assert cached[3][1] != cached[5][1]
        assert cached[6][1] != cached[8][1]
        assert [result[0] for result in cached] == [
            0, 0, ("exit", 0), 0, ("exit", 2), 0, 0, ("exit", 0), 0]


class TestCompare:
    def test_requires_external_model_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "compare", "--model-a", "All/upper", "--model-b", "All/lower",
            "--distances", "1:10:1",
        )
        assert code == 2  # the second model must be a user-supplied file

    def test_external_model(self, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(OTHER_MODEL))
        code, out, _ = run(
            capsys, "compare", "--model-a", "All/upper", "--model-b", str(other),
            "--distances", "1:5:1",
        )
        assert code == 0
        deltas = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert deltas == pytest.approx([4.0] * 5)


class TestDeterminism:
    @pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS)
    def test_rng_free_output_digest(self, capsys, tmp_path, argv, digest):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(OTHER_MODEL))
        code, out, _ = run(capsys, *[a.format(other=other) for a in argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_eval_byte_identical(self, capsys):
        args = ("eval", "--model", "B/upper", "--distances", "1:12:0.5")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b
