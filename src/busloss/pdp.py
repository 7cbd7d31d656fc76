"""Power delay profile reduction: from sounder sweeps to (distance, path loss).

Each sweep is a PDP (delay bins with power in dB). Received power is the
linear-domain sum of the bins within a peak-relative noise window; path loss
follows from the radiated power and the antenna gains. Repeated sweeps per
seat are averaged in the linear power domain, and the transmitter distance is
taken from the median first-peak delay.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .fit import SampleSet
from .geometry import BusLayout
from .models import (
    SPEED_OF_LIGHT,
    HeightClass,
    PathLossModel,
    csv_text,
    float_field,
    sample_path_loss,
)

DEFAULT_NOISE_THRESHOLD_DB = 25.0  # retained window below the PDP peak

# Most sweeps per position synth_measurements writes; the measured system took ten.
MAX_SWEEPS = 1000


class PdpFormatError(ValueError):
    """Malformed PDP file or measurement directory."""


@dataclass
class PdpRecord:
    """One sweep: delay bins (ns) with powers (dB), plus source metadata."""

    delays_ns: np.ndarray
    powers_db: np.ndarray
    seat: int | None = None
    height: HeightClass | None = None
    sweep: int | None = None

    def __post_init__(self) -> None:
        self.delays_ns = np.asarray(self.delays_ns, dtype=float)
        self.powers_db = np.asarray(self.powers_db, dtype=float)
        if self.delays_ns.shape != self.powers_db.shape:
            raise ValueError("delay and power arrays must match in length")
        if self.delays_ns.size and np.any(np.diff(self.delays_ns) <= 0):
            raise ValueError("delays must be strictly increasing")
        if np.any(~np.isfinite(self.powers_db)):
            raise ValueError("all powers must be finite")

    def __len__(self) -> int:
        return len(self.delays_ns)


@dataclass
class MeasurementSet:
    """All sweeps recorded at one transmitter position (nominally ten)."""

    seat: int
    height: HeightClass
    sweeps: list[PdpRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        for rec in self.sweeps:
            if rec.seat is not None and rec.seat != self.seat:
                raise ValueError(f"sweep seat {rec.seat} != set seat {self.seat}")
            if rec.height is not None and rec.height != self.height:
                raise ValueError("sweep height differs from set height")


@dataclass(frozen=True)
class LinkCalibration:
    """System calibration: radiated level, antenna gains, noise window."""

    radiated_power_db: float
    g_tx_dbi: float = 2.0
    g_rx_dbi: float = 2.0
    noise_threshold_db: float = DEFAULT_NOISE_THRESHOLD_DB

    def __post_init__(self) -> None:
        for name in ("radiated_power_db", "g_tx_dbi", "g_rx_dbi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.noise_threshold_db > 0:
            raise ValueError("noise_threshold_db must be > 0")


def integrate_pdp(pdp: PdpRecord, threshold_db: float = DEFAULT_NOISE_THRESHOLD_DB) -> float:
    """Total received power in dB over the bins within threshold_db of the peak."""
    if len(pdp) == 0:
        raise ValueError("cannot integrate an empty PDP")
    peak = float(np.max(pdp.powers_db))
    kept = pdp.powers_db[pdp.powers_db >= peak - threshold_db]
    return 10.0 * math.log10(float(np.sum(10.0 ** (kept / 10.0))))


def path_loss_from_power(cal: LinkCalibration, p_rx_db: float) -> float:
    """Antenna-independent channel loss from the received power level."""
    return cal.radiated_power_db - p_rx_db + cal.g_tx_dbi + cal.g_rx_dbi


def peak_component(pdp: PdpRecord) -> tuple[float, float]:
    """(delay_ns, power_db) of the strongest bin; earliest wins a tie."""
    if len(pdp) == 0:
        raise ValueError("empty PDP has no peak")
    i = int(np.argmax(pdp.powers_db))  # argmax returns the first maximum
    return float(pdp.delays_ns[i]), float(pdp.powers_db[i])


def delay_to_distance(delay_ns: float) -> float:
    """Propagation distance in metres for a delay in nanoseconds."""
    delay_ns = float(delay_ns)
    if delay_ns < 0 or not math.isfinite(delay_ns):
        raise ValueError(f"delay must be finite and >= 0, got {delay_ns}")
    return delay_ns * 1e-9 * SPEED_OF_LIGHT


def aggregate_measurement(
    mset: MeasurementSet, cal: LinkCalibration
) -> tuple[float, float]:
    """(distance m, path loss dB) for one transmitter position.

    Received powers are averaged across sweeps in the linear domain; the
    distance comes from the median peak delay.
    """
    if not mset.sweeps:
        raise ValueError("measurement set has no sweeps")
    rx_db = np.array(
        [integrate_pdp(rec, cal.noise_threshold_db) for rec in mset.sweeps]
    )
    mean_rx_db = 10.0 * math.log10(float(np.mean(10.0 ** (rx_db / 10.0))))
    peak_delays = np.array([peak_component(rec)[0] for rec in mset.sweeps])
    distance = delay_to_distance(float(np.median(peak_delays)))
    return distance, path_loss_from_power(cal, mean_rx_db)


def measurements_to_samples(
    sets: Sequence[MeasurementSet], cal: LinkCalibration, layout: BusLayout | None = None
) -> SampleSet:
    """One (distance, path loss) sample per set, tagged with seat and height,
    and with the seat's region when a layout is given."""
    pairs = np.array([aggregate_measurement(mset, cal) for mset in sets]).reshape(-1, 2)
    return SampleSet(
        pairs[:, 0],
        pairs[:, 1],
        seat=[mset.seat for mset in sets],
        region=None if layout is None else [layout.seat(mset.seat).group for mset in sets],
        height=[mset.height for mset in sets],
    )


def synth_measurements(
    model: PathLossModel, links: Iterable[tuple[int, float]], height: HeightClass,
    cal: LinkCalibration, n_sweeps: int, seed: int,
) -> list[MeasurementSet]:
    """n_sweeps one-bin sweeps per (seat, distance) link: the bin sits at the
    direct-path delay, and its power reduces through cal to a fresh model draw."""
    if not 1 <= n_sweeps <= MAX_SWEEPS:
        raise ValueError(f"n_sweeps must be between 1 and {MAX_SWEEPS}, got {n_sweeps}")
    rng = np.random.default_rng(seed)
    sets = []
    for seat_id, d in links:
        delay_ns = d / SPEED_OF_LIGHT * 1e9
        sweeps = []
        for k in range(n_sweeps):
            loss = sample_path_loss(model, d, rng)
            power = cal.radiated_power_db + cal.g_tx_dbi + cal.g_rx_dbi - loss
            sweeps.append(PdpRecord([delay_ns], [power], seat=seat_id, height=height, sweep=k))
        sets.append(MeasurementSet(seat=seat_id, height=height, sweeps=sweeps))
    return sets


PDP_CSV_HEADER = ("delay_ns", "power_db")


def pdp_to_csv(pdp: PdpRecord) -> str:
    return csv_text(
        PDP_CSV_HEADER, zip(map(repr, pdp.delays_ns.tolist()), map(repr, pdp.powers_db.tolist()))
    )


def load_pdp_csv(
    path: str | Path,
    seat: int | None = None,
    height: HeightClass | None = None,
    sweep: int | None = None,
) -> PdpRecord:
    """Parse one sweep file, reporting the offending line on error."""
    path = Path(path)
    reader = csv.reader(io.StringIO(path.read_text(encoding="utf-8")))
    try:
        header = next(reader)
    except StopIteration:
        raise PdpFormatError(f"{path}: empty PDP file") from None
    if [h.strip() for h in header] != list(PDP_CSV_HEADER):
        raise PdpFormatError(f"{path}:1: header must be delay_ns,power_db")
    delays, powers = [], []
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():  # blank or whitespace-only row
            continue
        if len(row) != 2:
            raise PdpFormatError(f"{path}:{lineno}: expected 2 columns")
        try:
            delay = float(row[0])
            power = float(row[1])
        except ValueError:
            raise PdpFormatError(f"{path}:{lineno}: non-numeric value") from None
        if not (math.isfinite(delay) and math.isfinite(power)):
            raise PdpFormatError(f"{path}:{lineno}: values must be finite")
        if delays and delay <= delays[-1]:
            raise PdpFormatError(f"{path}:{lineno}: delays must strictly increase")
        delays.append(delay)
        powers.append(power)
    try:
        return PdpRecord(
            np.asarray(delays), np.asarray(powers),
            seat=seat, height=height, sweep=sweep,
        )
    except ValueError as exc:
        raise PdpFormatError(f"{path}: {exc}") from None


_SET_DIR_RE = re.compile(r"^(\d+)_(lower|upper)$")
_SWEEP_FILE_RE = re.compile(r"^sweep_(\d+)\.csv$")


def load_measurement_dir(root: str | Path) -> list[MeasurementSet]:
    """Load a `<seat>_<height>/sweep_<k>.csv + meta.json` directory tree."""
    root = Path(root)
    if not root.is_dir():
        raise PdpFormatError(f"{root}: not a directory")
    sets: list[MeasurementSet] = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        match = _SET_DIR_RE.match(entry.name)
        if match is None:
            raise PdpFormatError(f"{entry}: directory name must be <seat>_<height>")
        seat_from_name = int(match.group(1))
        height_from_name = HeightClass(match.group(2))

        meta_path = entry / "meta.json"
        if not meta_path.is_file():
            raise PdpFormatError(f"{meta_path}: missing metadata")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            seat = int(meta["seat"])
            height = HeightClass(meta["height"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PdpFormatError(f"{meta_path}: bad metadata ({exc})") from None
        if seat != seat_from_name or height != height_from_name:
            raise PdpFormatError(f"{meta_path}: metadata disagrees with directory name")

        sweeps = []
        for sweep_path in sorted(entry.glob("sweep_*.csv")):
            m = _SWEEP_FILE_RE.match(sweep_path.name)
            if m is None:
                raise PdpFormatError(f"{sweep_path}: file name must be sweep_<k>.csv")
            sweeps.append(
                load_pdp_csv(sweep_path, seat=seat, height=height, sweep=int(m.group(1)))
            )
        if not sweeps:
            raise PdpFormatError(f"{entry}: no sweep files")
        sets.append(MeasurementSet(seat=seat, height=height, sweeps=sweeps))
    return sets


def write_measurement_dir(root: str | Path, sets: list[MeasurementSet]) -> None:
    """Write measurement sets in the layout load_measurement_dir reads."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for mset in sets:
        entry = root / f"{mset.seat}_{mset.height.value}"
        entry.mkdir(exist_ok=True)
        (entry / "meta.json").write_text(
            json.dumps({"seat": mset.seat, "height": mset.height.value}) + "\n",
            encoding="utf-8",
        )
        for k, rec in enumerate(mset.sweeps):
            sweep = rec.sweep if rec.sweep is not None else k
            (entry / f"sweep_{sweep}.csv").write_text(
                pdp_to_csv(rec), encoding="utf-8"
            )


def calibration_from_dict(obj: dict) -> LinkCalibration:
    return LinkCalibration(
        radiated_power_db=float_field(obj, "radiated_power_db"),
        g_tx_dbi=float_field(obj, "g_tx_dbi", 2.0),
        g_rx_dbi=float_field(obj, "g_rx_dbi", 2.0),
        noise_threshold_db=float_field(obj, "noise_threshold_db", DEFAULT_NOISE_THRESHOLD_DB),
    )
