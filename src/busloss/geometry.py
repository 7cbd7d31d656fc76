"""Bus interior geometry: seats, groups, transmitter heights, link distances.

Dimensions (12.80 m x 2.55 m), the access-point height (2 m), the transmitter
heights (1.2 m upper / 0.7 m lower) and the excluded lower seats (5-8 and
27-30, over the wheel arches) are fixed facts of the measured vehicle. The
individual seat coordinates and the A-D group boundaries are approximate
layout data and live in a JSON config so they can be corrected without code
changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .models import (
    HeightClass,
    Region,
    float_field,
    float_record,
    int_field,
    json_field,
    load_json_object,
    tag_field,
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
    """No seat with the requested id; str() gives the message without KeyError's quotes."""
    __str__ = Exception.__str__


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


@dataclass(frozen=True)
class BusLayout:
    """The vehicle interior: an immutable record, validated when built. `seats` is
    stored as a tuple, whatever sequence is passed; dataclasses.replace builds an
    edited copy and validates it again."""

    length_m: float
    width_m: float
    rx: Point3
    seats: tuple[SeatSpec, ...] = ()
    upper_height_m: float = DEFAULT_UPPER_HEIGHT_M
    lower_height_m: float = DEFAULT_LOWER_HEIGHT_M
    height_mode: str = "floor"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seats", tuple(self.seats))
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

    def seat(self, seat_id: int) -> SeatSpec:
        """The seat with this id, found by scanning `seats`."""
        for seat in self.seats:
            if seat.id == seat_id:
                return seat
        raise SeatNotFoundError(f"no seat with id {seat_id}")


def _excluded(seat: SeatSpec, height: HeightClass) -> bool:
    """True for the lower position of a wheel-arch seat, the one excluded position."""
    return height == HeightClass.LOWER and seat.lower_excluded


def _tx_z(layout: BusLayout, seat: SeatSpec, height: HeightClass) -> float:
    """Transmitter height of a seat; ExcludedPositionError on a wheel arch."""
    if _excluded(seat, height):
        raise ExcludedPositionError(f"seat {seat.id} has no lower position (wheel arch)")
    if layout.height_mode == "seat_relative":
        z = seat.seat_height_m
        if height == HeightClass.UPPER:
            z += SEAT_RELATIVE_UPPER_OFFSET_M
        return z
    return layout.upper_height_m if height == HeightClass.UPPER else layout.lower_height_m


def _distance(layout: BusLayout, seat: SeatSpec, height: HeightClass) -> float:
    """3-D Euclidean distance from the receiver to the seat's transmitter."""
    rx, z = layout.rx, _tx_z(layout, seat, height)
    return math.sqrt((seat.x - rx.x) ** 2 + (seat.y - rx.y) ** 2 + (z - rx.z) ** 2)


def tx_position(layout: BusLayout, seat_id: int, height: HeightClass) -> Point3:
    """Transmitter coordinates for a seat at the given height class."""
    seat = layout.seat(seat_id)
    return Point3(seat.x, seat.y, _tx_z(layout, seat, height))


def link_distance(layout: BusLayout, seat_id: int, height: HeightClass) -> float:
    """3-D Euclidean distance from the receiver to the transmitter position."""
    return _distance(layout, layout.seat(seat_id), height)


def seats_in_group(layout: BusLayout, region: Region, height: HeightClass) -> list[int]:
    """Seat ids eligible at the given height; Region.ALL selects every group."""
    return [seat.id for seat in layout.seats
            if region in (Region.ALL, seat.group) and not _excluded(seat, height)]


def seat_links(layout: BusLayout, height: HeightClass, seat_ids: Sequence[int] | None = None
               ) -> tuple[list[int], list[Region], list[float]]:
    """(seat ids, groups, link distances) of the seats at the height class, three lists in
    link order: by default every eligible seat, in one walk of `layout.seats`. Given seats
    are resolved on the call one at a time, each with its distance, so the first unknown
    or excluded seat raises, and for one seat an unknown id before an excluded position."""
    if seat_ids is None:
        seats = (seat for seat in layout.seats if not _excluded(seat, height))
    else:
        seats = map(layout.seat, seat_ids)
    links = [(seat, _distance(layout, seat, height)) for seat in seats]
    return [seat.id for seat, _ in links], [seat.group for seat, _ in links], [d for _, d in links]


@functools.cache
def default_layout() -> BusLayout:
    """The shipped 30-seat city-bus layout, read from data/default_layout.json.

    That file is the only copy of the seat coordinates, groups and
    exclusions. It is parsed and validated once per process, and every call
    returns that one shared, immutable BusLayout.
    """
    path = resources.files(__package__) / "data" / "default_layout.json"
    return layout_from_dict(json.loads(path.read_text(encoding="utf-8")))


def _flag(obj: dict, name: str, default: bool) -> bool:
    """obj[name] if it is JSON true or false, default if absent; ValueError otherwise."""
    value = obj.get(name, default)
    if not isinstance(value, bool):
        raise ValueError(f"field {name!r} must be true or false, got {value!r}")
    return value


# The seat_height_m of a layout file's seat that gives none.
DEFAULT_SEAT_HEIGHT_M = 0.5

_SEAT_READERS = {
    "id": int_field,
    "seat_height_m": lambda obj, name, _: float_field(obj, name, DEFAULT_SEAT_HEIGHT_M),
    "group": functools.partial(tag_field, tags=tuple(r for r in Region if r != Region.ALL)),
    "lower_excluded": _flag,
}


def _seat_where(seat, i: int) -> str:
    """'seat <id>: ' for a seat object with an integer id, else 'seats[<i>]: '."""
    if isinstance(seat, dict):
        with contextlib.suppress(ValueError):
            return f"seat {int_field(seat, 'id')}: "
    return f"seats[{i}]: "


def _seats(obj: dict, name: str, _) -> list[SeatSpec]:
    seats = json_field(obj, name)
    if not isinstance(seats, list) or not seats:
        raise ValueError(f"field {name!r} must list at least one seat")
    return [float_record(SeatSpec, s, _seat_where(s, i), _SEAT_READERS) for i, s in enumerate(seats)]


_LAYOUT_READERS = {
    "rx": lambda obj, name, _: float_record(Point3, json_field(obj, name), "rx: "),
    "seats": _seats,
    "height_mode": lambda obj, name, default: str(obj.get(name, default)),
}


def layout_from_dict(obj: dict) -> BusLayout:
    """The BusLayout, its rx Point3 and each SeatSpec read by float_record, so that every
    fault, a LayoutError, names its field and where it is (see _seat_where)."""
    try:
        return float_record(BusLayout, obj, readers=_LAYOUT_READERS)
    except ValueError as exc:
        raise LayoutError(str(exc)) from None


def load_layout(path: str | Path) -> BusLayout:
    """Load and validate a layout JSON file; every failure is a LayoutError naming the file."""
    return load_json_object(path, "layout", layout_from_dict, LayoutError)
