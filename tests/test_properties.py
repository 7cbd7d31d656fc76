"""Property tests: any JSON value in an input file ends in a clean exit, and
each CSV reader gives back exactly what its writer wrote."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busloss.cli import main
from busloss.fit import SampleSet, samples_from_csv, samples_to_csv
from busloss.geometry import default_layout, layout_to_dict
from busloss.models import HeightClass, Region
from busloss.pdp import (
    MeasurementSet,
    PdpRecord,
    load_pdp_csv,
    pdp_to_csv,
    write_measurement_dir,
)

# Fixed examples keep the suite deterministic; no example database is written.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


def objects_with(names):
    """JSON objects holding any subset of the named fields, each with any JSON
    value, most often a number."""
    field_values = st.floats() | st.integers() | json_values
    return st.fixed_dictionaries({}, optional={name: field_values for name in names})


SHIPPED_LAYOUT = layout_to_dict(default_layout())


@st.composite
def mutated_layouts(draw):
    """The shipped layout with one field, of the bus, its receiver or one seat, replaced."""
    obj = json.loads(json.dumps(SHIPPED_LAYOUT))
    seat = draw(st.sampled_from(obj["seats"]))
    target = draw(st.sampled_from([obj, obj["rx"], seat]))
    target[draw(st.sampled_from(sorted(target)))] = draw(st.floats() | json_values)
    return obj


MODEL_FIELDS = ("alpha_db", "beta", "sigma_db", "region", "height")
BUDGET_FIELDS = ("tx_power_dbm", "g_tx_dbi", "g_rx_dbi", "bandwidth_hz", "noise_figure_db",
                 "snr_threshold_db")
CALIBRATION_FIELDS = ("radiated_power_db", "g_tx_dbi", "g_rx_dbi", "noise_threshold_db")

# (argv with {f} for the JSON file and {d} for a valid measurement tree, file contents)
CASES = {
    "model": (["eval", "--model", "{f}", "--distances", "1:2:1"],
              json_values | objects_with(MODEL_FIELDS)),
    "budget": (["sweep", "--height", "upper", "--config", "{f}"],
               json_values | objects_with(BUDGET_FIELDS)),
    "calibration": (["process", "{d}", "{f}"],
                    json_values | objects_with(CALIBRATION_FIELDS)),
    "layout": (["sweep", "--height", "upper", "--layout", "{f}"],
               json_values | objects_with(SHIPPED_LAYOUT) | mutated_layouts()),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("properties")
    sweeps = [PdpRecord([13.5, 20.0], [-90.0, -101.0], sweep=k) for k in range(2)]
    write_measurement_dir(root / "pdp", [MeasurementSet(14, HeightClass.UPPER, sweeps)])
    return root


@pytest.mark.parametrize("kind", sorted(CASES))
def test_any_json_input_exits_cleanly(workdir, kind):
    argv, contents = CASES[kind]
    path = workdir / f"{kind}.json"

    @PROPERTY
    @given(contents)
    def check(value):
        path.write_text(json.dumps(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(f=path, d=workdir / "pdp") for a in argv])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert str(path) in err.getvalue()

    check()



@st.composite
def sample_sets(draw):
    n = draw(st.integers(0, 12))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    distance = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                             min_size=n, max_size=n))
    loss = draw(st.lists(floats, min_size=n, max_size=n))

    def tags(values):
        return draw(st.none() | st.lists(st.none() | values, min_size=n, max_size=n))

    return SampleSet(
        np.array(distance, dtype=float), np.array(loss, dtype=float),
        seat=tags(st.integers()),
        region=tags(st.sampled_from(Region)),
        height=tags(st.sampled_from(HeightClass)),
    )


@PROPERTY
@given(sample_sets())
def test_sample_csv_round_trip(samples):
    back = samples_from_csv(samples_to_csv(samples))
    assert back.distance_m.tolist() == samples.distance_m.tolist()
    assert back.path_loss_db.tolist() == samples.path_loss_db.tolist()
    for name in ("seat", "region", "height"):
        assert getattr(back, name) == getattr(samples, name)


@st.composite
def pdp_records(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    delays = sorted(draw(st.lists(finite, max_size=12, unique=True)))
    powers = draw(st.lists(finite, min_size=len(delays), max_size=len(delays)))
    return PdpRecord(delays, powers)


def test_pdp_csv_round_trip(tmp_path):
    path = tmp_path / "sweep_0.csv"

    @PROPERTY
    @given(pdp_records())
    def check(record):
        path.write_text(pdp_to_csv(record))
        back = load_pdp_csv(path)
        assert back.delays_ns.tolist() == record.delays_ns.tolist()
        assert back.powers_db.tolist() == record.powers_db.tolist()

    check()
