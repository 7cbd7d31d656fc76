"""Property tests: any JSON value in an input file, and any bytes in a CSV
file, ends in a clean exit, and each CSV reader gives back exactly what its
writer wrote."""

import contextlib
import io
import json
import shutil

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

finite = st.floats(allow_nan=False, allow_infinity=False)


def run_cli(argv):
    """(exit code, stderr) of an in-process CLI call. An exception escaping
    main, which would print a traceback, fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()

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

# kind: (file, argv, file contents). In argv, {f} is the file and {w} the work
# directory, which holds a valid measurement tree pdp/ and calibration cal.json.
CASES = {
    "model": ("model.json", ["eval", "--model", "{f}", "--distances", "1:2:1"],
              json_values | objects_with(MODEL_FIELDS)),
    "budget": ("budget.json", ["sweep", "--height", "upper", "--config", "{f}"],
               json_values | objects_with(BUDGET_FIELDS)),
    "calibration": ("calibration.json", ["process", "{w}/pdp", "{f}"],
                    json_values | objects_with(CALIBRATION_FIELDS)),
    "layout": ("layout.json", ["sweep", "--height", "upper", "--layout", "{f}"],
               json_values | objects_with(SHIPPED_LAYOUT) | mutated_layouts()),
    "metadata": ("meta/14_upper/meta.json", ["process", "{w}/meta", "{w}/cal.json"],
                 json_values | objects_with(("seat", "height")) | st.fixed_dictionaries({
                     "seat": st.integers(13, 15) | st.floats(13, 15),
                     "height": st.sampled_from([h.value for h in HeightClass])})),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("properties")
    sweeps = [PdpRecord([13.5, 20.0], [-90.0, -101.0]) for _ in range(2)]
    for tree in ("pdp", "meta"):
        write_measurement_dir(root / tree, [MeasurementSet(14, HeightClass.UPPER, sweeps)])
    (root / "cal.json").write_text('{"radiated_power_db": 0.0}')
    return root


@pytest.mark.parametrize("kind", sorted(CASES))
def test_any_json_input_exits_cleanly(workdir, kind):
    file, argv, contents = CASES[kind]
    path = workdir / file

    @PROPERTY
    @given(contents)
    def check(value):
        path.write_text(json.dumps(value))
        code, err = run_cli([a.format(f=path, w=workdir) for a in argv])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert str(path) in err

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
        got, want = getattr(back, name), getattr(samples, name)
        assert (got is None) if want is None else (list(got) == list(want))


@st.composite
def pdp_records(draw):
    delays = sorted(draw(st.lists(finite, min_size=1, max_size=12, unique=True)))
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


# Valid cells of each sample CSV column; numbers cover the full double range.
SAMPLE_CELLS = {
    "distance_m": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "path_loss_db": finite,
    "seat": st.integers().map(str) | st.just(""),
    "region": st.sampled_from([r.value for r in Region] + [""]),
    "height": st.sampled_from([h.value for h in HeightClass] + [""]),
}


@st.composite
def sample_csv_texts(draw):
    """Sample CSV text: the schema header with any tag columns and rows of
    matching cells; about half the time one line is replaced by any cells."""
    tags = draw(st.lists(st.sampled_from(["seat", "region", "height"]), unique=True))
    header = ["distance_m", "path_loss_db", *tags]
    cells = [SAMPLE_CELLS[name].map(lambda v: v if isinstance(v, str) else repr(v))
             for name in header]
    lines = [header, *draw(st.lists(st.tuples(*cells), max_size=10))]
    if draw(st.booleans()):
        any_cell = st.text(max_size=4) | st.sampled_from(header) | st.floats().map(repr)
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.lists(any_cell, max_size=6))
    return "\n".join(",".join(line) for line in lines) + "\n"


@pytest.mark.parametrize("by_group", [[], ["--by-group"]])
def test_any_sample_csv_exits_cleanly(tmp_path, by_group):
    path = tmp_path / "samples.csv"

    # Exit 3 (too few samples or distances, sums that overflow) describes the
    # data, not a fault at a place in the file, so only exit 2 names the file.
    @PROPERTY
    @given(sample_csv_texts())
    def check(text):
        path.write_text(text)
        code, err = run_cli(["fit", path, *by_group])
        assert code in (0, 2, 3)
        if code == 2:
            assert err.startswith(f"error: {path}")

    check()


@st.composite
def sweeps(draw):
    """Rows of one sweep: strictly increasing delays and powers, all finite
    and over the full double range."""
    delays = sorted(draw(st.lists(finite, max_size=4, unique=True)))
    return [f"{d!r},{draw(finite)!r}" for d in delays]


def test_any_sweep_rows_exit_cleanly(tmp_path):
    cal = tmp_path / "cal.json"
    cal.write_text('{"radiated_power_db": 0.0}')

    @PROPERTY
    @given(st.lists(sweeps(), min_size=1, max_size=3))
    def check(rows):
        root = tmp_path / "pdp"
        shutil.rmtree(root, ignore_errors=True)
        entry = root / "14_upper"
        entry.mkdir(parents=True)
        (entry / "meta.json").write_text('{"seat": 14, "height": "upper"}')
        for k, sweep in enumerate(rows):
            (entry / f"sweep_{k}.csv").write_text("delay_ns,power_db\n" + "\n".join(sweep))
        code, err = run_cli(["process", root, cal])
        assert code in (0, 2)
        if code == 2:
            assert err.startswith((f"error: {entry}", "error: 14_upper: "))

    check()


@pytest.mark.parametrize("reader", ["sample", "sweep"])
def test_any_bytes_exit_cleanly(tmp_path, reader):
    """Any bytes as a sample file for fit or a sweep file for process, half the
    time after the right header line."""
    cal = tmp_path / "cal.json"
    cal.write_text('{"radiated_power_db": 0.0}')
    write_measurement_dir(tmp_path / "pdp", [MeasurementSet(14, HeightClass.UPPER, [])])
    path, argv, header = {
        "sample": (tmp_path / "samples.csv", ["fit", tmp_path / "samples.csv"],
                   b"distance_m,path_loss_db\n"),
        "sweep": (tmp_path / "pdp" / "14_upper" / "sweep_0.csv", ["process", tmp_path / "pdp", cal],
                  b"delay_ns,power_db\n"),
    }[reader]

    # A sweep file that parses can still fail as a set, which names its directory.
    @PROPERTY
    @given(st.binary() | st.binary().map(lambda data: header + data))
    def check(data):
        path.write_bytes(data)
        code, err = run_cli(argv)
        assert code in (0, 2, 3)
        if code == 2:
            assert err.startswith((f"error: {path}", "error: 14_upper: "))

    check()
