"""Power delay profile reduction: from sounder sweeps to (distance, path loss).

Each sweep is a PDP (delay bins with power in dB). Received power is the
linear-domain sum of the bins within a peak-relative noise window; path loss
follows from the radiated power and the antenna gains. Repeated sweeps per
seat are averaged in the linear power domain, and the transmitter distance is
taken from the median first-peak delay.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .fit import SampleSet
from .geometry import BusLayout, SeatNotFoundError
from .models import (
    SPEED_OF_LIGHT,
    HeightClass,
    PathLossModel,
    csv_text,
    int_field,
    load_json_object,
    read_csv,
    read_text,
    sample_path_loss,
)

DEFAULT_NOISE_THRESHOLD_DB = 25.0  # retained window below the PDP peak

# Most sweeps per position synth_measurements writes; the measured system took ten.
MAX_SWEEPS = 1000


class PdpFormatError(ValueError):
    """Malformed PDP file or measurement directory."""


@dataclass(frozen=True)
class PdpRecord:
    """One sweep: delay bins (ns) with powers (dB), an immutable record validated
    when built; its arrays are read-only views of those given, not copies. Its seat
    and height are those of the MeasurementSet that holds it."""

    delays_ns: np.ndarray
    powers_db: np.ndarray

    def __post_init__(self) -> None:
        for name in ("delays_ns", "powers_db"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).view())
            getattr(self, name).flags.writeable = False
        if self.delays_ns.shape != self.powers_db.shape:
            raise ValueError("delay and power arrays must match in length")
        if np.any(~np.isfinite(self.delays_ns)):
            raise ValueError("all delays must be finite")
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
        if not math.isfinite(self.radiated_power_db + self.g_tx_dbi + self.g_rx_dbi):
            raise ValueError("radiated_power_db + g_tx_dbi + g_rx_dbi must be finite")
        if not self.noise_threshold_db > 0:
            raise ValueError("noise_threshold_db must be > 0")


def integrate_pdp(pdp: PdpRecord, threshold_db: float = DEFAULT_NOISE_THRESHOLD_DB) -> float:
    """Total received power in dB over the bins within threshold_db of the peak;
    -inf or inf when the linear total is outside the range of a float."""
    if len(pdp) == 0:
        raise ValueError("cannot integrate an empty PDP")
    peak = float(np.max(pdp.powers_db))
    kept = pdp.powers_db[pdp.powers_db >= peak - threshold_db]
    with np.errstate(over="ignore"):
        total = float(np.sum(10.0 ** (kept / 10.0)))
    return 10.0 * math.log10(total) if total > 0.0 else -math.inf


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
    distance comes from the median peak delay. A set whose mean power is
    outside the range of a float, or whose median peak delay gives no
    distance > 0, raises ValueError naming its `<seat>_<height>` directory.
    """
    if not mset.sweeps:
        raise ValueError("measurement set has no sweeps")
    where = f"{mset.seat}_{mset.height.value}"
    rx_db = np.array(
        [integrate_pdp(rec, cal.noise_threshold_db) for rec in mset.sweeps]
    )
    with np.errstate(over="ignore"):  # an overflow fails the range checks below
        mean_rx = float(np.mean(10.0 ** (rx_db / 10.0)))
        delay_ns = float(np.median([peak_component(rec)[0] for rec in mset.sweeps]))
    if not 0.0 < mean_rx < math.inf:
        raise ValueError(f"{where}: mean received power is outside the range of a float")
    distance = delay_to_distance(delay_ns) if 0.0 < delay_ns < math.inf else 0.0
    if distance == 0.0:
        raise ValueError(f"{where}: median peak delay {delay_ns!r} ns gives no distance > 0")
    return distance, path_loss_from_power(cal, 10.0 * math.log10(mean_rx))


def _group(layout: BusLayout, mset: MeasurementSet):
    """The layout group of a set's seat; SeatNotFoundError names the set's directory."""
    try:
        return layout.seat(mset.seat).group
    except SeatNotFoundError as exc:
        raise SeatNotFoundError(f"{mset.seat}_{mset.height.value}: {exc}") from None


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
        region=None if layout is None else [_group(layout, mset) for mset in sets],
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
        losses = sample_path_loss(model, d, rng, size=n_sweeps)
        powers = cal.radiated_power_db + cal.g_tx_dbi + cal.g_rx_dbi - losses
        sets.append(MeasurementSet(seat_id, height, [PdpRecord([delay_ns], [p]) for p in powers]))
    return sets


PDP_CSV_HEADER = ("delay_ns", "power_db")


def pdp_to_csv(pdp: PdpRecord) -> str:
    return csv_text(
        PDP_CSV_HEADER, zip(map(repr, pdp.delays_ns.tolist()), map(repr, pdp.powers_db.tolist()))
    )


def load_pdp_csv(path: str | Path) -> PdpRecord:
    """Parse one sweep file, reporting the offending line on error."""
    text = read_text(path, "PDP", PdpFormatError)
    (delay, power), _ = read_csv(text, path, "PDP", PDP_CSV_HEADER, lambda delay, power: [
        (~(np.isfinite(delay) & np.isfinite(power)), "values must be finite"),
        (delay <= np.append(-np.inf, delay[:-1]), "delays must strictly increase"),
    ], error=PdpFormatError)
    if not len(delay):
        raise PdpFormatError(f"{path}: no delay bins")
    return PdpRecord(delay, power)


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
        meta_path = entry / "meta.json"
        seat, height = load_json_object(meta_path, "metadata", lambda meta: (
            int_field(meta, "seat"), HeightClass(meta["height"])), PdpFormatError)
        if (seat, height.value) != (int(match.group(1)), match.group(2)):
            raise PdpFormatError(f"{meta_path}: metadata disagrees with directory name")

        # Sweeps load in the order of their number k, so sweep_10 follows sweep_9.
        numbered = []
        for sweep_path in sorted(entry.glob("sweep_*.csv")):
            match = _SWEEP_FILE_RE.match(sweep_path.name)
            if match is None:
                raise PdpFormatError(f"{sweep_path}: file name must be sweep_<k>.csv")
            numbered.append((int(match.group(1)), sweep_path))
        sweeps = [load_pdp_csv(sweep_path) for _, sweep_path in sorted(numbered)]
        if not sweeps:
            raise PdpFormatError(f"{entry}: no sweep files")
        sets.append(MeasurementSet(seat=seat, height=height, sweeps=sweeps))
    if not sets:
        raise PdpFormatError(f"{root}: no <seat>_<height> set directories")
    return sets


def write_measurement_dir(root: str | Path, sets: list[MeasurementSet]) -> None:
    """Write measurement sets in the layout load_measurement_dir reads. A set
    directory that already holds sweep files, which would join the new ones,
    or a path that cannot be written raises ValueError naming it; nothing is
    written when a set directory holds sweep files."""
    root = Path(root)
    entries = [root / f"{mset.seat}_{mset.height.value}" for mset in sets]
    for entry in entries:
        if any(entry.glob("sweep_*.csv")):
            raise ValueError(f"cannot write {entry}: already holds sweep files")
    try:
        root.mkdir(parents=True, exist_ok=True)
        for mset, entry in zip(sets, entries):
            entry.mkdir(exist_ok=True)
            (entry / "meta.json").write_text(
                json.dumps({"seat": mset.seat, "height": mset.height.value}) + "\n",
                encoding="utf-8",
            )
            for k, rec in enumerate(mset.sweeps):
                (entry / f"sweep_{k}.csv").write_text(pdp_to_csv(rec), encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename or root}: {exc.strerror}") from None
