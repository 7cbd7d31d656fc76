"""Validated records are immutable: an edit is made only through dataclasses.replace,
which builds a new record and so runs the constructor's checks again. The arrays
inside a record are read-only too."""

import operator
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from busloss.fit import SampleSet, synth_samples
from busloss.geometry import LayoutError, Point3, SeatSpec, default_layout
from busloss.models import HeightClass, Region, TagColumn, builtin_model
from busloss.pdp import PdpRecord

LAYOUT = default_layout()
# A duplicate id, far outside the 12.8 m x 2.55 m footprint.
STRAY_SEAT = SeatSpec(14, 50.0, 9.0, 0.5, Region.A)
SAMPLES = synth_samples(builtin_model(Region.ALL, HeightClass.UPPER), np.linspace(1, 12, 6), 1)
SWEEP = PdpRecord([1.0, 2.0], [-90.0, -95.0])


@pytest.mark.parametrize("record, direct_edit, direct_error, changes, error, messages", [
    (LAYOUT, lambda r: r.seats.append(STRAY_SEAT), AttributeError,
     {"seats": (*LAYOUT.seats, STRAY_SEAT)}, LayoutError,
     ["duplicate seat id 14", "seat 14 at (50.0, 9.0) is outside the footprint"]),
    (LAYOUT, lambda r: setattr(r, "height_mode", "seat-relative"), FrozenInstanceError,
     {"height_mode": "seat-relative"}, LayoutError, ["height_mode must be one of"]),
    (LAYOUT, lambda r: setattr(r, "rx", Point3(99.0, 99.0, 2.0)), FrozenInstanceError,
     {"rx": Point3(99.0, 99.0, 2.0)}, LayoutError, ["rx must lie within the bus footprint"]),
    (LAYOUT, lambda r: setattr(r, "lower_height_m", -5.0), FrozenInstanceError,
     {"lower_height_m": -5.0}, LayoutError, ["lower_height_m must lie in [0, 1000.0] m"]),
    (SAMPLES, lambda r: setattr(r, "region", [Region.B]), FrozenInstanceError,
     {"region": [Region.B], "height": [HeightClass.UPPER] * 6}, ValueError,
     ["region tags must match sample count"]),
    (SWEEP, lambda r: setattr(r, "delays_ns", np.array([2.0, 1.0, 0.5])), FrozenInstanceError,
     {"delays_ns": np.array([2.0, 1.0, 0.5])}, ValueError,
     ["delay and power arrays must match in length"]),
], ids=["layout-seat-appended", "layout-height-mode", "layout-rx", "layout-lower-height",
        "samples-region", "sweep-delays"])
def test_edit_only_through_validating_replace(record, direct_edit, direct_error, changes,
                                              error, messages):
    with pytest.raises(direct_error):
        direct_edit(record)
    with pytest.raises(error) as exc:
        replace(record, **changes)
    for message in messages:
        assert message in str(exc.value)


@pytest.mark.parametrize("write, error, message", [
    (lambda: SAMPLES.region.append(Region.B), AttributeError, "append"),
    (lambda: SAMPLES.region.codes.__setitem__(0, 0), ValueError, "read-only"),
    (lambda: operator.setitem(SAMPLES.region, 0, Region.B), TypeError, "item assignment"),
    (lambda: setattr(SAMPLES.region, "values", (Region.B,)), FrozenInstanceError, "values"),
    (lambda: SAMPLES.distance_m.__setitem__(0, -1.0), ValueError, "read-only"),
    (lambda: SWEEP.powers_db.__setitem__(0, 1.0), ValueError, "read-only"),
], ids=["samples-region-append", "samples-region-item", "samples-region-tag-item",
        "samples-region-values", "samples-distance-item", "sweep-power-item"])
def test_record_arrays_refuse_writes(write, error, message):
    with pytest.raises(error, match=message):
        write()


@pytest.mark.parametrize("build, message", [
    (lambda: PdpRecord(5.0, -80.0), "delay and power arrays"),
    (lambda: SampleSet(2.0, 80.0), "distance and path loss arrays"),
    (lambda: SampleSet([[1.0, 2.0]], [[80.0, 81.0]]), "distance and path loss arrays"),
], ids=["sweep-scalars", "samples-scalars", "samples-2d"])
def test_columns_must_be_1d(build, message):
    with pytest.raises(ValueError, match=f"^{message} must match in length and be 1-D$"):
        build()


@pytest.mark.parametrize("build, column, bad", [
    (lambda a: SampleSet(a, a + 80.0), "distance_m", -1.0),
    (lambda a: PdpRecord(a, -a), "delays_ns", 9.0),
], ids=["samples", "sweep"])
def test_callers_writes_do_not_show_through(build, column, bad):
    given = np.array([1.0, 2.0, 4.0])
    record = build(given)
    given[0] = bad  # a negative distance, or delays no longer increasing
    assert getattr(record, column).tolist() == [1.0, 2.0, 4.0]
    assert not np.shares_memory(getattr(record, column), given)


@pytest.mark.parametrize("given", [
    pytest.param(lambda tags: np.array(tags, dtype=object), id="object array"),
    pytest.param(lambda tags: np.array(tags, dtype=object).repeat(2)[::2], id="strided view"),
    pytest.param(list, id="list"),
])
def test_tag_columns_are_read_only_copies(given):
    regions = given([Region.A, Region.B, None, Region.A])
    samples = SampleSet(np.array([1.0, 2.0, 4.0, 8.0]), np.array([80.0, 86.0, 92.0, 98.0]),
                        region=regions)
    column = samples.region
    assert isinstance(column, TagColumn) and len(column) == 4
    assert column.codes.dtype == np.intp and not column.codes.flags.writeable
    assert column.codes.tolist() == [0, 1, -1, 0] and column.values == (Region.A, Region.B)
    assert list(column) == [Region.A, Region.B, None, Region.A]
    assert [column[i] for i in range(4)] == [Region.A, Region.B, None, Region.A]
    if isinstance(regions, np.ndarray):
        regions[0] = Region.C  # the caller's own array stays writable
    assert column[0] is Region.A
    assert replace(samples, distance_m=samples.distance_m * 2).region is column



@pytest.mark.parametrize("codes, values", [
    ([-2, 0], (Region.A, Region.B)), ([5], (Region.A,)), ([-1, 0], ()),
], ids=["below-missing", "past-values", "no-values"])
def test_tag_codes_must_index_values(codes, values):
    # -2 read as None by [i] but as the last value in iteration; 5 raised IndexError on [i].
    with pytest.raises(ValueError, match=rf"^tag codes must lie in \[-1, {len(values)}\)$"):
        TagColumn(np.array(codes), values)


def test_tag_codes_at_the_range_ends():
    assert list(TagColumn(np.array([-1, 1, 0]), ("x", "y"))) == [None, "y", "x"]
    assert list(TagColumn(np.array([-1, -1]), ())) == [None, None]
    assert len(TagColumn(np.array([], dtype=np.intp), ())) == 0


def test_tag_column_owns_its_codes():
    # The column kept a view of the caller's codes: codes[0] = 7 then made column[0]
    # raise IndexError.
    codes = np.array([0, 1, 0])
    column = TagColumn(codes, (Region.A, Region.B))
    codes[0] = 7
    assert column.codes.tolist() == [0, 1, 0] and column[0] is Region.A
    assert codes.flags.writeable and column.codes.dtype == np.intp
    assert TagColumn(np.array([1, 0], np.uint8), ("x", "y")).codes.dtype == np.intp
    assert len(TagColumn(np.array([]), ())) == len(TagColumn([], (Region.A,))) == 0


@pytest.mark.parametrize("codes", [np.zeros((3, 1), int), np.array([0.7, 0.2]),
                                   np.array([True, False]), np.array([[]], dtype=np.intp)],
                         ids=["2-d", "float", "bool", "empty-2-d"])
def test_tag_codes_must_be_a_1d_integer_array(codes):
    # A (3, 1) column built a SampleSet that samples_to_csv failed on with a TypeError
    # and fit_by_partition with "condition must be a 1-d array"; float codes were
    # truncated to [0 0].
    with pytest.raises(ValueError, match=r"^tag codes must be a 1-D integer array$"):
        TagColumn(codes, (Region.A,))
