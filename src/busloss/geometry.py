"""Bus interior geometry: seats, groups, transmitter heights, link distances.

Dimensions (12.80 m x 2.55 m), the access-point height (2 m), the transmitter
heights (1.2 m upper / 0.7 m lower) and the excluded lower seats (5-8 and
27-30, over the wheel arches) are fixed facts of the measured vehicle. The
individual seat coordinates and the A-D group boundaries are approximate
layout data and live in a JSON config so they can be corrected without code
changes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

from .models import (
    HeightClass,
    Region,
    check_fields,
    float_field,
    float_record,
    int_field,
    load_json_object,
)

DEFAULT_UPPER_HEIGHT_M = 1.2
DEFAULT_LOWER_HEIGHT_M = 0.7
# Offset of a head-worn device above the seat in seat-relative mode.
SEAT_RELATIVE_UPPER_OFFSET_M = 0.7

HEIGHT_MODES = ("floor", "seat_relative")

# Bound on every dimension and height; it keeps squared distances finite.
MAX_EXTENT_M = 1000.0


class LayoutError(ValueError):
    """Invalid bus layout configuration; message lists every violation."""


class SeatNotFoundError(KeyError):
    """No seat with the requested id."""


class ExcludedPositionError(ValueError):
    """Lower transmitter position requested on a wheel-arch seat."""


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class SeatSpec:
    id: int
    x: float
    y: float
    seat_height_m: float
    group: Region
    lower_excluded: bool = False


@dataclass
class BusLayout:
    """Immutable-after-load description of the vehicle interior."""

    length_m: float
    width_m: float
    rx: Point3
    seats: list[SeatSpec] = field(default_factory=list)
    upper_height_m: float = DEFAULT_UPPER_HEIGHT_M
    lower_height_m: float = DEFAULT_LOWER_HEIGHT_M
    height_mode: str = "floor"

    def __post_init__(self) -> None:
        problems = []
        if not 0 < self.length_m <= MAX_EXTENT_M:
            problems.append(f"length_m must be > 0 and <= {MAX_EXTENT_M}")
        if not 0 < self.width_m <= MAX_EXTENT_M:
            problems.append(f"width_m must be > 0 and <= {MAX_EXTENT_M}")
        heights = [("rx z", self.rx.z), ("upper_height_m", self.upper_height_m),
                   ("lower_height_m", self.lower_height_m)]
        heights += [(f"seat {seat.id} seat_height_m", seat.seat_height_m) for seat in self.seats]
        for name, z in heights:
            if not 0 <= z <= MAX_EXTENT_M:
                problems.append(f"{name} must lie in [0, {MAX_EXTENT_M}] m")
        if self.height_mode not in HEIGHT_MODES:
            problems.append(f"height_mode must be one of {HEIGHT_MODES}")
        if self.length_m > 0 and self.width_m > 0:
            if not (0 <= self.rx.x <= self.length_m and 0 <= self.rx.y <= self.width_m):
                problems.append("rx must lie within the bus footprint")
        seen = set()
        for seat in self.seats:
            if seat.id in seen:
                problems.append(f"duplicate seat id {seat.id}")
            seen.add(seat.id)
            if not (0 <= seat.x <= self.length_m and 0 <= seat.y <= self.width_m):
                problems.append(f"seat {seat.id} at ({seat.x}, {seat.y}) is outside the footprint")
            if seat.group == Region.ALL:
                problems.append(f"seat {seat.id}: group must be one of A-D, not All")
        if problems:
            raise LayoutError("; ".join(problems))
        self._by_id = {seat.id: seat for seat in self.seats}

    def seat(self, seat_id: int) -> SeatSpec:
        try:
            return self._by_id[seat_id]
        except KeyError:
            raise SeatNotFoundError(f"no seat with id {seat_id}") from None


def tx_position(layout: BusLayout, seat_id: int, height: HeightClass) -> Point3:
    """Transmitter coordinates for a seat at the given height class."""
    seat = layout.seat(seat_id)
    if height == HeightClass.LOWER and seat.lower_excluded:
        raise ExcludedPositionError(
            f"seat {seat_id} has no lower position (wheel arch)"
        )
    if layout.height_mode == "seat_relative":
        z = seat.seat_height_m
        if height == HeightClass.UPPER:
            z += SEAT_RELATIVE_UPPER_OFFSET_M
    else:
        z = layout.upper_height_m if height == HeightClass.UPPER else layout.lower_height_m
    return Point3(seat.x, seat.y, z)


def link_distance(layout: BusLayout, seat_id: int, height: HeightClass) -> float:
    """3-D Euclidean distance from the receiver to the transmitter position."""
    tx = tx_position(layout, seat_id, height)
    rx = layout.rx
    return math.sqrt((tx.x - rx.x) ** 2 + (tx.y - rx.y) ** 2 + (tx.z - rx.z) ** 2)


def seats_in_group(
    layout: BusLayout, region: Region, height: HeightClass
) -> list[int]:
    """Seat ids eligible at the given height; Region.ALL selects every group."""
    ids = []
    for seat in layout.seats:
        if region != Region.ALL and seat.group != region:
            continue
        if height == HeightClass.LOWER and seat.lower_excluded:
            continue
        ids.append(seat.id)
    return ids


def seat_links(layout: BusLayout, height: HeightClass,
               seat_ids: Sequence[int] | None = None) -> list[tuple[int, Region, float]]:
    """(seat id, group, link distance) of each seat at the height class, in order:
    the given seats, or by default every eligible one. All seats are resolved on
    the call, so an unknown or excluded seat raises before any later check."""
    if seat_ids is None:
        seat_ids = seats_in_group(layout, Region.ALL, height)
    return [(s, layout.seat(s).group, link_distance(layout, s, height)) for s in seat_ids]


def default_layout() -> BusLayout:
    """The shipped 30-seat city-bus layout, read from data/default_layout.json.

    That file is the only copy of the seat coordinates, groups and
    exclusions. It is parsed and validated once per process; each call
    returns a fresh BusLayout with its own seat list, built and validated
    again by BusLayout, so callers may mutate it. Only the frozen SeatSpec
    and Point3 values are shared between calls.
    """
    layout = _shipped_layout()
    return replace(layout, seats=list(layout.seats))


@functools.cache
def _shipped_layout() -> BusLayout:
    path = resources.files(__package__) / "data" / "default_layout.json"
    return layout_from_dict(json.loads(path.read_text(encoding="utf-8")))


def layout_to_dict(layout: BusLayout) -> dict:
    return {
        "length_m": layout.length_m,
        "width_m": layout.width_m,
        "rx": asdict(layout.rx),
        "upper_height_m": layout.upper_height_m,
        "lower_height_m": layout.lower_height_m,
        "height_mode": layout.height_mode,
        "seats": [{**asdict(seat), "group": seat.group.value} for seat in layout.seats],
    }


def _group(value) -> Region:
    try:
        return Region(value)
    except ValueError:
        raise ValueError(f"field 'group' must be one of A, B, C, D, got {value!r}") from None


def _flag(obj: dict, name: str) -> bool:
    """obj[name] if it is JSON true or false, False if absent; ValueError otherwise."""
    value = obj.get(name, False)
    if not isinstance(value, bool):
        raise ValueError(f"field {name!r} must be true or false, got {value!r}")
    return value


def _seat_from_dict(s: dict) -> SeatSpec:
    seat_id = int_field(s, "id")
    check_fields(s, SeatSpec, f"seat {seat_id}: ")
    return SeatSpec(
        id=seat_id,
        x=float_field(s, "x"),
        y=float_field(s, "y"),
        seat_height_m=float_field(s, "seat_height_m", 0.5),
        group=_group(s["group"]),
        lower_excluded=_flag(s, "lower_excluded"),
    )


def layout_from_dict(obj: dict) -> BusLayout:
    """Build a layout; every number is read with float_field, and a seat's group and
    lower_excluded flag are checked, so that a bad value's message names its field.
    The keys of the layout, its receiver and each seat are the fields of BusLayout,
    Point3 and SeatSpec; any other key is rejected by name, and the layout must
    list at least one seat."""
    try:
        check_fields(obj, BusLayout)
        seats = [_seat_from_dict(s) for s in obj["seats"]]
        if not seats:
            raise ValueError("field 'seats' must list at least one seat")
        rx = float_record(Point3, obj["rx"], "rx: ")
        return BusLayout(
            length_m=float_field(obj, "length_m"),
            width_m=float_field(obj, "width_m"),
            rx=rx,
            seats=seats,
            upper_height_m=float_field(obj, "upper_height_m", DEFAULT_UPPER_HEIGHT_M),
            lower_height_m=float_field(obj, "lower_height_m", DEFAULT_LOWER_HEIGHT_M),
            height_mode=str(obj.get("height_mode", "floor")),
        )
    except KeyError as exc:
        raise LayoutError(f"missing field {exc}") from None
    except TypeError as exc:
        raise LayoutError(f"a field has the wrong type: {exc}") from None


def load_layout(path: str | Path) -> BusLayout:
    """Load and validate a layout JSON file; every failure is a LayoutError naming the file."""
    return load_json_object(path, "layout", layout_from_dict, LayoutError)
