"""Validated records are immutable: an edit is made only through dataclasses.replace,
which builds a new record and so runs the constructor's checks again."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from busloss.fit import synth_samples
from busloss.geometry import LayoutError, Point3, SeatSpec, default_layout
from busloss.models import HeightClass, Region, builtin_model
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
