"""Tests for the bus layout, seat groups and link distances."""

import json
import math
from dataclasses import replace
from importlib import resources

import pytest

from busloss.geometry import (
    BusLayout,
    ExcludedPositionError,
    LayoutError,
    Point3,
    SeatNotFoundError,
    SeatSpec,
    default_layout,
    layout_from_dict,
    link_distance,
    load_layout,
    seat_links,
    seats_in_group,
    tx_position,
)
from busloss.models import HeightClass, Region

SHIPPED_LAYOUT = resources.files("busloss") / "data" / "default_layout.json"


def shipped_layout() -> dict:
    """A fresh copy of the JSON object of the shipped layout file."""
    return json.loads(SHIPPED_LAYOUT.read_text(encoding="utf-8"))


class TestDefaultLayout:
    def test_dimensions_and_receiver(self):
        layout = default_layout()
        assert layout.length_m == 12.80
        assert layout.width_m == 2.55
        assert layout.rx.z == 2.0
        assert layout.rx.x < layout.length_m / 2  # receiver sits at the front

    def test_seat_counts(self):
        layout = default_layout()
        assert len(layout.seats) == 30
        assert sum(s.lower_excluded for s in layout.seats) == 8
        assert {s.id for s in layout.seats if s.lower_excluded} == set(range(5, 9)) | set(range(27, 31))

    def test_groups_partition_seats(self):
        layout = default_layout()
        by_group = {r: seats_in_group(layout, r, HeightClass.UPPER) for r in
                    (Region.A, Region.B, Region.C, Region.D)}
        ids = sorted(sum(by_group.values(), []))
        assert ids == [s.id for s in sorted(layout.seats, key=lambda s: s.id)]

    def test_group_sizes(self):
        layout = default_layout()
        sizes = {
            h: [len(seats_in_group(layout, r, h)) for r in (Region.A, Region.B, Region.C, Region.D)]
            for h in HeightClass
        }
        assert sizes == {HeightClass.UPPER: [8, 8, 8, 6], HeightClass.LOWER: [4, 8, 8, 2]}

    def test_each_call_returns_a_fresh_layout(self):
        """The shipped file is parsed once: every call returns the same immutable
        layout, whose seats are a tuple, equal to a fresh parse of that file."""
        first = default_layout()
        assert default_layout() is first
        assert isinstance(first.seats, tuple) and len(first.seats) == 30
        assert first.height_mode == "floor"
        assert first == layout_from_dict(shipped_layout())

    def test_eligible_counts(self):
        layout = default_layout()
        assert len(seats_in_group(layout, Region.ALL, HeightClass.UPPER)) == 30
        assert len(seats_in_group(layout, Region.ALL, HeightClass.LOWER)) == 22


class TestValidation:
    def test_seat_outside_footprint(self):
        with pytest.raises(LayoutError, match="outside"):
            BusLayout(
                length_m=12.80, width_m=2.55, rx=Point3(0.5, 1.0, 2.0),
                seats=[SeatSpec(1, 13.0, 1.0, 0.5, Region.A)],
            )

    def test_duplicate_ids_and_all_group_both_reported(self):
        with pytest.raises(LayoutError) as exc:
            BusLayout(
                length_m=12.80, width_m=2.55, rx=Point3(0.5, 1.0, 2.0),
                seats=[
                    SeatSpec(1, 2.0, 1.0, 0.5, Region.A),
                    SeatSpec(1, 3.0, 1.0, 0.5, Region.ALL),
                ],
            )
        assert "duplicate seat id 1" in str(exc.value)
        assert "group must be one of A-D" in str(exc.value)

    def test_empty_seat_list_valid(self):
        layout = BusLayout(length_m=12.80, width_m=2.55, rx=Point3(0.5, 1.0, 2.0))
        assert seats_in_group(layout, Region.ALL, HeightClass.UPPER) == []

    def test_rx_outside_rejected(self):
        with pytest.raises(LayoutError, match="rx"):
            BusLayout(length_m=12.80, width_m=2.55, rx=Point3(-1.0, 1.0, 2.0))


class TestTxPosition:
    def test_upper_height(self):
        assert tx_position(default_layout(), 14, HeightClass.UPPER).z == 1.2

    def test_lower_height(self):
        assert tx_position(default_layout(), 24, HeightClass.LOWER).z == 0.7

    def test_excluded_lower_seat(self):
        with pytest.raises(ExcludedPositionError):
            tx_position(default_layout(), 5, HeightClass.LOWER)

    def test_unknown_seat(self):
        with pytest.raises(SeatNotFoundError):
            tx_position(default_layout(), 99, HeightClass.UPPER)

    def test_seat_not_found_message_unquoted(self):
        # A KeyError's str() is the repr of its message.
        assert str(SeatNotFoundError("no seat with id 9")) == "no seat with id 9"

    def test_height_independent_of_seat(self):
        layout = default_layout()
        zs = {tx_position(layout, s.id, HeightClass.UPPER).z for s in layout.seats}
        assert zs == {1.2}

    def test_seat_relative_mode(self):
        layout = replace(default_layout(), height_mode="seat_relative")
        upper = tx_position(layout, 14, HeightClass.UPPER)
        lower = tx_position(layout, 14, HeightClass.LOWER)
        seat = layout.seat(14)
        assert lower.z == seat.seat_height_m
        assert upper.z == pytest.approx(seat.seat_height_m + 0.7)


class TestLinkDistance:
    def test_hand_computed(self):
        layout = BusLayout(
            length_m=12.80, width_m=2.55, rx=Point3(0.0, 0.0, 2.0),
            seats=[SeatSpec(1, 3.0, 0.0, 0.5, Region.A)],
        )
        assert link_distance(layout, 1, HeightClass.UPPER) == pytest.approx(
            math.sqrt(9 + 0.64)
        )

    def test_bounded_by_bus_diagonal(self):
        layout = default_layout()
        bound = math.sqrt(layout.length_m**2 + layout.width_m**2 + 2.0**2)
        for seat in layout.seats:
            assert link_distance(layout, seat.id, HeightClass.UPPER) <= bound

    def test_within_measured_range(self):
        layout = default_layout()
        for seat in layout.seats:
            d = link_distance(layout, seat.id, HeightClass.UPPER)
            assert 1.0 <= d <= 12.0


class TestSeatLinks:
    @pytest.mark.parametrize("mode", ["floor", "seat_relative"])
    @pytest.mark.parametrize("height", list(HeightClass))
    def test_matches_group_and_distance_of_each_seat(self, mode, height):
        # The rule restated on the shipped JSON: in floor mode the transmitter is at the
        # upper or lower height, in seat-relative mode at the seat height, plus 0.7 m at
        # the upper height. The lower position of a wheel-arch seat does not exist.
        shipped = resources.files("busloss") / "data" / "default_layout.json"
        obj = json.loads(shipped.read_text(encoding="utf-8"))
        rx, upper = obj["rx"], height == HeightClass.UPPER
        expected = []
        for seat in obj["seats"]:
            if not upper and seat["lower_excluded"]:
                continue
            if mode == "floor":
                z = obj["upper_height_m"] if upper else obj["lower_height_m"]
            else:
                z = seat["seat_height_m"] + 0.7 if upper else seat["seat_height_m"]
            d = math.sqrt((seat["x"] - rx["x"]) ** 2 + (seat["y"] - rx["y"]) ** 2
                          + (z - rx["z"]) ** 2)
            expected.append((seat["id"], Region(seat["group"]), d))
        layout = replace(default_layout(), height_mode=mode)
        ids, groups, distances = map(list, zip(*expected))
        assert seat_links(layout, height) == (ids, groups, distances)
        assert seat_links(layout, height, ids[::-1]) == (ids[::-1], groups[::-1], distances[::-1])

    def test_given_seats_kept_in_order(self):
        ids, groups, distances = seat_links(default_layout(), HeightClass.UPPER, [14, 2, 30])
        assert (ids, groups) == ([14, 2, 30], [Region.B, Region.A, Region.D])
        assert distances == [link_distance(default_layout(), s, HeightClass.UPPER) for s in ids]

    @pytest.mark.parametrize("seats, error", [
        ([14, 99], SeatNotFoundError), ([14, 5], ExcludedPositionError),
        ([5, 99], ExcludedPositionError), ([99, 5], SeatNotFoundError)])
    def test_every_seat_resolved_on_call(self, seats, error):
        with pytest.raises(error):
            seat_links(default_layout(), HeightClass.LOWER, seats)


class TestMutatedLayout:
    """A copy of default_layout() with edited seats, built by replace, is seen whole
    by every lookup."""

    def test_appended_seat_found(self):
        base = default_layout()
        layout = replace(base, seats=base.seats + (SeatSpec(31, 1.0, 1.0, 0.5, Region.A),))
        assert layout.seat(31).x == 1.0
        for height in HeightClass:
            assert [column[-1] for column in seat_links(layout, height)] == [
                31, Region.A, link_distance(layout, 31, height)]
        assert seat_links(layout, HeightClass.UPPER, [31])[0] == [31]

    def test_replaced_seat_seen(self):
        base = default_layout()
        layout = replace(base, seats=(SeatSpec(1, 3.0, 0.5, 0.5, Region.B),) + base.seats[1:])
        rx = layout.rx
        d = math.sqrt((3.0 - rx.x) ** 2 + (0.5 - rx.y) ** 2 + (layout.upper_height_m - rx.z) ** 2)
        assert layout.seat(1).group == Region.B
        assert [column[0] for column in seat_links(layout, HeightClass.UPPER)] == [1, Region.B, d]
        assert seat_links(layout, HeightClass.UPPER, [1]) == ([1], [Region.B], [d])

    def test_removed_seat_gone(self):
        base = default_layout()
        layout = replace(base, seats=[seat for seat in base.seats if seat.id != 14])
        with pytest.raises(SeatNotFoundError, match="no seat with id 14"):
            seat_links(layout, HeightClass.UPPER, [14])
        assert 14 not in seat_links(layout, HeightClass.UPPER)[0]


class TestLayoutIo:
    def test_json_round_trip(self, tmp_path):
        layout = default_layout()
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(shipped_layout()), encoding="utf-8")
        assert load_layout(path) == layout

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(LayoutError):
            load_layout(path)

    def test_missing_field_rejected(self):
        with pytest.raises(LayoutError):
            layout_from_dict({"length_m": 12.8})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(LayoutError, match="layout file not found"):
            load_layout(tmp_path / "none.json")

    @pytest.mark.parametrize("where, field, value", [
        ("seat", "x", "a"),
        ("seat", "y", None),
        ("seat", "id", 1.5),
        ("seat", "id", "q"),
        ("rx", "z", float("nan")),
        ("top", "length_m", [12.8]),
        ("top", "upper_height_m", "high"),
    ])
    def test_bad_number_names_file_and_field(self, tmp_path, where, field, value):
        obj = shipped_layout()
        target = {"seat": obj["seats"][0], "rx": obj["rx"], "top": obj}[where]
        target[field] = value
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(LayoutError, match=f"field '{field}'") as exc:
            load_layout(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("field, value", [
        ("length_m", 1e300), ("width_m", 2000.0), ("upper_height_m", 1e300),
        ("lower_height_m", -0.1),
    ])
    def test_extent_out_of_range_rejected(self, field, value):
        obj = shipped_layout()
        obj[field] = value
        with pytest.raises(LayoutError, match=field.split("_")[0]):
            layout_from_dict(obj)

    def test_huge_receiver_height_rejected(self):
        # rx z is not bounded by the footprint; squaring 1e300 would overflow
        obj = shipped_layout()
        obj["rx"]["z"] = 1e300
        with pytest.raises(LayoutError, match="rx z"):
            layout_from_dict(obj)
