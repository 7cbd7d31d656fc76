"""The benchmark's span tracer (perfbench/spans.py) wraps busloss functions by
name and reads their parameters by name. These tests run each traced layer once
under the tracer, so that renaming a traced function or parameter fails here
instead of breaking `perfbench/run.py --trace 1`."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import busloss.cli
from busloss import fit, geometry, linkbudget, models
from busloss.models import HeightClass, Region

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_exists(spans):
    for mod_name, fn_name, _, _ in spans.TARGETS:
        assert callable(getattr(sys.modules[f"busloss.{mod_name}"], fn_name, None)), fn_name


def test_every_layer_is_traced_and_counted(spans, tmp_path):
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(json.dumps(geometry.layout_to_dict(geometry.default_layout())))
    cal = tmp_path / "cal.json"
    cal.write_text('{"radiated_power_db": 0.0}')
    pdp_dir, samples_csv = tmp_path / "pdp", tmp_path / "samples.csv"
    argvs = [
        ["synth", "--model", "All/upper", "--height", "upper", "--seed", "1",
         "--pdp-dir", pdp_dir, "--calibration", cal, "--sweeps", "2"],
        ["process", pdp_dir, cal, "--layout", layout_path, "-o", samples_csv],
        ["fit", samples_csv, "--by-group", "-o", tmp_path / "fit.json"],
        ["footprint", "--height", "upper", "--active", "14,2", "--seed", "1", "--draws", "10"],
        ["footprint", "--height", "upper", "--active", "14", "--seed", "1", "--draws", "10",
         "--format", "json", "-o", tmp_path / "fp.json"],
        ["sweep", "--height", "lower", "-o", tmp_path / "sweep.csv"],
        ["sweep", "--height", "lower", "--format", "json", "-o", tmp_path / "sweep.json"],
    ]
    tracer = spans.Tracer()
    with tracer.installed():
        # Called through the modules, so that the tracer's wrappers run.
        for argv in argvs:
            assert busloss.cli.main([str(a) for a in argv]) == 0
        text = fit.samples_to_csv(fit.samples_from_csv(samples_csv.read_text()))
        coverage = linkbudget.empirical_coverage(
            geometry.default_layout(), models.builtin_registry(),
            linkbudget.LinkBudgetConfig(), HeightClass.UPPER, seed=1, n_draws=10,
        )
    summary = spans.summarise(tracer.take())["layers"]

    for layer in spans.LAYERS:
        assert summary[layer]["calls"] > 0, layer
        assert summary[layer]["errors"] == 0, layer
    n_sets = len(geometry.seats_in_group(geometry.default_layout(), Region.ALL, HeightClass.UPPER))
    assert summary["pdp.load_measurement_dir"]["files"] == 2 * n_sets
    assert summary["pdp.load_measurement_dir"]["bins"] == 2 * n_sets
    assert summary["pdp.load_measurement_dir"]["bytes"] > 0
    assert summary["pdp.aggregate_measurement"]["calls"] == n_sets
    assert summary["pdp.aggregate_measurement"]["sweeps"] == 2 * n_sets
    assert summary["fit.samples_to_csv"]["rows"] == 2 * n_sets
    assert summary["fit.samples_to_csv"]["bytes"] == 2 * len(text)
    assert summary["fit.samples_from_csv"]["rows"] == 2 * n_sets
    assert summary["fit.fit_by_partition"]["cells_fitted"] > 0
    assert summary["fit.fit_log_distance"]["samples"] > 0
    assert summary["linkbudget.interference_footprint"]["draw_links"] == 10 * 2 + 10 * 1
    assert summary["linkbudget.empirical_coverage"]["draw_links"] == 10 * len(coverage)
    assert summary["linkbudget.seat_sweep"]["seats"] > 0
