"""Log-distance path loss with Gaussian shadow fading for the 60 GHz in-bus channel.

The model is L(d) = alpha + 10*beta*log10(d) + X, where X is a zero-mean
Gaussian shadow-fading term with standard deviation sigma (all in dB).
Ten fitted parameter sets ship with the package, one per seat region
(A-D plus the pooled "All" set) and transmitter height class;
verify_registry checks the pooled sets against the paper's rounded
coefficients, and path_loss_band gives the 5-95% shadowing band. The shared
I/O helpers live here too: read_text, load_json_object, float_record and
check_fields (the one unknown-key check) for input files, csv_text for CSV
output, and read_csv, its inverse, which both CSV readers call once with
their row rules.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from itertools import compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Distances outside this window are extrapolations beyond the measured range
# (roughly one bus length); evaluation succeeds but results carry a flag.
FITTED_RANGE_M = (0.5, 15.0)

# 5th/95th percentile of a unit normal.
Z95 = 1.6449


class Region(Enum):
    """Seat group inside the bus; ALL pools the four groups."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    ALL = "All"


class HeightClass(Enum):
    """Transmitter height class: hand-held (lower) or head-worn (upper)."""

    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class PathLossModel:
    """One (alpha, beta, sigma) parameter set of the log-distance model.

    alpha_db is the propagation constant, beta the propagation exponent and
    sigma_db the shadow-fading standard deviation. region/height identify
    which measurement subset the parameters were fitted on; they may be None
    for models fitted from untagged data.
    """

    alpha_db: float
    beta: float
    sigma_db: float
    region: Region | None = None
    height: HeightClass | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha_db) and math.isfinite(self.beta)):
            raise ValueError("alpha_db and beta must be finite")
        if not (math.isfinite(self.sigma_db) and self.sigma_db >= 0.0):
            raise ValueError("sigma_db must be finite and >= 0")


@dataclass(frozen=True)
class CombinedForm:
    """The model with the decade slope folded in: alpha + slope*log10(d) + X(0, var)."""

    alpha_db: float
    slope_db_per_decade: float
    variance_db2: float

    def __post_init__(self) -> None:
        if self.variance_db2 < 0.0:
            raise ValueError("variance_db2 must be >= 0")


def _check_distance(d: float) -> float:
    d = float(d)
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError(f"distance must be finite and > 0, got {d}")
    return d


def mean_path_loss(model: PathLossModel, d: float) -> float:
    """Deterministic mean path loss in dB at distance d metres."""
    d = _check_distance(d)
    return model.alpha_db + 10.0 * model.beta * math.log10(d)


def path_loss_band(model: PathLossModel, d: float) -> tuple[float, float, float]:
    """(mean, p05, p95) path loss in dB at d metres: the mean, then the 5th and
    95th percentiles of the shadow-faded loss, mean -/+ Z95*sigma_db."""
    mean = mean_path_loss(model, d)
    spread = Z95 * model.sigma_db
    return mean, mean - spread, mean + spread


def is_extrapolated(d: float) -> bool:
    """True when d falls outside the range the parameters were fitted for."""
    lo, hi = FITTED_RANGE_M
    return not (lo <= float(d) <= hi)


def sample_path_loss(
    model: PathLossModel,
    d: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw shadow-faded path loss values; scalar when size is None.

    The caller owns the generator, so identical generator state yields
    identical draws.
    """
    return mean_path_loss(model, d) + model.sigma_db * rng.standard_normal(size)


def coverage_probability(model: PathLossModel, d: float, l_max: float) -> float:
    """P(path loss <= l_max) under the Gaussian shadowing term."""
    mean = mean_path_loss(model, d)
    if model.sigma_db == 0.0:
        return 1.0 if l_max >= mean else 0.0
    z = (l_max - mean) / model.sigma_db
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def to_combined_form(model: PathLossModel) -> CombinedForm:
    """Fold the factor of 10 into the slope and square sigma into a variance."""
    return CombinedForm(
        alpha_db=model.alpha_db,
        slope_db_per_decade=10.0 * model.beta,
        variance_db2=model.sigma_db**2,
    )


def from_combined_form(
    form: CombinedForm,
    region: Region | None = None,
    height: HeightClass | None = None,
) -> PathLossModel:
    """Inverse of to_combined_form."""
    return PathLossModel(
        alpha_db=form.alpha_db,
        beta=form.slope_db_per_decade / 10.0,
        sigma_db=math.sqrt(form.variance_db2),
        region=region,
        height=height,
    )


def fspl(d: float, f: float) -> float:
    """Free-space path loss in dB at distance d metres, frequency f Hz."""
    d = _check_distance(d)
    f = float(f)
    if not math.isfinite(f) or f <= 0.0:
        raise ValueError(f"frequency must be finite and > 0, got {f}")
    return 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)


def compare_models(
    a: PathLossModel, b: PathLossModel, distances: Iterable[float]
) -> list[float]:
    """Mean path loss difference a - b in dB at each distance."""
    return [mean_path_loss(a, d) - mean_path_loss(b, d) for d in distances]


# Fitted parameters per (region, height): alpha_db, beta, sigma_db.
_BUILTIN_PARAMS: dict[tuple[Region, HeightClass], tuple[float, float, float]] = {
    (Region.A, HeightClass.LOWER): (87.29, 1.44, 3.13),
    (Region.A, HeightClass.UPPER): (83.29, 1.83, 2.22),
    (Region.B, HeightClass.LOWER): (83.83, 1.91, 2.88),
    (Region.B, HeightClass.UPPER): (84.43, 1.92, 1.67),
    (Region.C, HeightClass.LOWER): (85.77, 1.70, 2.00),
    (Region.C, HeightClass.UPPER): (81.24, 2.39, 2.27),
    (Region.D, HeightClass.LOWER): (84.34, 1.82, 2.38),
    (Region.D, HeightClass.UPPER): (81.88, 2.13, 2.65),
    (Region.ALL, HeightClass.LOWER): (85.23, 1.74, 2.54),
    (Region.ALL, HeightClass.UPPER): (82.86, 2.03, 2.34),
}


# The ten shipped models, built once; PathLossModel is frozen, so they are shared.
_BUILTIN_MODELS = {key: PathLossModel(*params, *key) for key, params in _BUILTIN_PARAMS.items()}

# The paper's rounded coefficients the pooled models must reproduce: combined-form
# slope (10*beta) and shadowing variance (sigma^2), plus alpha to 1 decimal, each
# as (value, tolerance).
_ROUNDED_COMBINED = {
    HeightClass.LOWER: {"alpha": (85.2, 0.05), "slope": (17.4, 0.05), "var": (6.5, 0.06)},
    HeightClass.UPPER: {"alpha": (82.9, 0.05), "slope": (20.3, 0.05), "var": (5.5, 0.03)},
}


def builtin_models() -> list[PathLossModel]:
    """All ten shipped parameter sets, regions A-D and All at both heights."""
    return list(_BUILTIN_MODELS.values())


def builtin_model(region: Region, height: HeightClass) -> PathLossModel:
    """Look up one shipped parameter set."""
    return _BUILTIN_MODELS[(region, height)]


def builtin_registry() -> dict[tuple[Region, HeightClass], PathLossModel]:
    """Shipped parameter sets keyed by (region, height), in a fresh dict the caller may change."""
    return dict(_BUILTIN_MODELS)


def verify_registry(registry=None) -> tuple[bool, list[dict]]:
    """Check the pooled models (the shipped ones by default) against the paper's
    rounded combined-form coefficients: whether every check passes, and one row
    per height and quantity."""
    registry, rows = _BUILTIN_MODELS if registry is None else registry, []
    for height, checks in _ROUNDED_COMBINED.items():
        form = to_combined_form(registry[(Region.ALL, height)])
        actual = {"alpha": round(form.alpha_db, 1), "slope": form.slope_db_per_decade,
                  "var": form.variance_db2}
        for name, (expected, tol) in checks.items():
            delta = actual[name] - expected
            rows.append({"height": height.value, "quantity": name, "expected": expected,
                         "actual": actual[name], "delta": delta, "tolerance": tol,
                         "pass": abs(delta) <= tol})
    return all(row["pass"] for row in rows), rows


def model_to_dict(model: PathLossModel) -> dict:
    return {
        "alpha_db": model.alpha_db,
        "beta": model.beta,
        "sigma_db": model.sigma_db,
        "region": model.region.value if model.region is not None else None,
        "height": model.height.value if model.height is not None else None,
    }


def float_field(obj: dict, name: str, default=MISSING) -> float:
    """obj[name] as a float, or default if given and absent; ValueError if it is
    not an int or float (a bool, text or null) or is NaN."""
    value = obj[name] if default is MISSING else obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"field {name!r} must be a number, got {value!r}") from None
    if math.isnan(number):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    return number


@functools.cache
def _field_names(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


def check_fields(obj: dict, cls, where: str = "") -> None:
    """ValueError naming the first key of obj that is not a field of the dataclass cls."""
    known = _field_names(cls)
    for key in obj:
        if key not in known:
            raise ValueError(f"{where}unknown field {key!r}")


def float_record(cls, obj: dict, where: str = ""):
    """cls(...) with each dataclass field read from obj by float_field, in field
    order; an absent field takes its dataclass default, one without a default is
    required, and a key that is not a field is rejected by check_fields."""
    record = cls(**{f.name: float_field(obj, f.name, f.default) for f in fields(cls)})
    check_fields(obj, cls, where)
    return record


def int_field(obj: dict, name: str) -> int:
    """obj[name] as an int; ValueError names a field that is not an integral number."""
    value = float_field(obj, name)
    if not value.is_integer():
        raise ValueError(f"field {name!r} must be an integer, got {obj[name]!r}")
    return int(value)


def read_text(path: str | Path, kind: str, error=ValueError) -> str:
    """The text of a UTF-8 file, read with universal newlines. A missing path, one
    that is not a regular file, or a file that is not UTF-8 raises error naming it."""
    if not Path(path).exists():
        raise error(f"{kind} file not found: {path}")
    if not Path(path).is_file():
        raise error(f"{path}: not a regular file")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


def load_json_object(path: str | Path, kind: str, from_dict, error=ValueError):
    """from_dict(obj) for the JSON object in a file. Every failure (no such file,
    invalid JSON, not an object, a missing or bad field) raises error naming the file."""
    try:
        obj = json.loads(read_text(path, kind, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: {kind} must be a JSON object, not {type(obj).__name__}")
    try:
        return from_dict(obj)
    except KeyError as exc:
        raise error(f"{path}: bad {kind} (missing field {exc})") from None
    except ValueError as exc:
        raise error(f"{path}: bad {kind} ({exc})") from None


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """CSV with a header line and "\n" line ends; no cell may need quoting."""
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


# Rows read_csv converts at a time. A block's cell lists live only while
# it is converted, so they stay a small share of the text's memory; parsing a
# 2e5-row sample file in one block took 65% more peak memory.
CSV_BLOCK_ROWS = 8192

# The characters str.strip() removes (str.isspace), and the comma: a row of
# only these is blank.
_BLANK_CHARS = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
                "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000,")


# The tag of a cell its column's parser rejects.
_BAD_TAG = object()


def _leading_floats(cells: Sequence[str]) -> np.ndarray:
    """float() of the cells before the first one float() rejects."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        values = []
        for cell in cells:  # the error path: a linear scan finds the rejected cell
            try:
                values.append(float(cell))
            except ValueError:
                return np.array(values, dtype=float)


def read_csv(text: str, source, kind: str, columns: Sequence[str], checks,
             tags: Mapping[str, Callable] = {}, error=ValueError):
    """The inverse of csv_text: float arrays of the columns, and for each tag
    column in the header, an object array of its tags.

    Lines split at line feeds (a carriage return is whitespace), cells at
    commas, nothing quoted; rows all whitespace and commas are skipped. The
    header is columns, then names of tags at most once each. A tag cell is
    parsed by tags[name] once per distinct cell, and a blank one is None.
    checks(*arrays) gives (mask over the rows, message) pairs. The first bad
    row raises error naming its line, with its first fault in the order: the
    wrong width, a cell float() rejects, each check, a tag its parser rejects.
    Rows are framed and converted CSV_BLOCK_ROWS at a time by C-level string
    operations, with no Python step per row or cell."""
    if not text:
        raise error(f"{source}: empty {kind} file")
    lines = text.split("\n")
    header = [name.strip() for name in lines[0].split(",")]
    if header[:len(columns)] != list(columns):
        raise error(f"{source}:1: header must start with {','.join(columns)}")
    for i, name in enumerate(header[len(columns):], len(columns)):
        if name not in tags:
            raise error(f"{source}:1: unknown column {name!r}")
        if name in header[:i]:
            raise error(f"{source}:1: repeated column {name!r}")
    width, names = len(header), header[len(columns):]
    arrays, done = [np.empty(len(lines) - 1) for _ in columns], 0
    found = {name: np.empty(len(lines) - 1, object) for name in names}
    tables = {name: {} for name in names}
    stop = None  # the fault of the row after the rows read
    for start in range(1, len(lines), CSV_BLOCK_ROWS):
        block = lines[start:start + CSV_BLOCK_ROWS]
        block = list(compress(block, map(str.strip, block, repeat(_BLANK_CHARS))))
        commas = np.fromiter(map(str.count, block, repeat(",")), int, len(block))
        wrong = np.flatnonzero(commas != width - 1)
        rows = len(block) if wrong.size == 0 else int(wrong[0])
        if rows < len(block):
            stop = f"expected {width} columns"
        cells = ",".join(block[:rows]).split(",")
        values = [_leading_floats(cells[i:rows * width:width]) for i in range(len(columns))]
        parsed = min(map(len, values))
        if parsed < rows:
            rows, stop = parsed, "non-numeric value"
        for array, column in zip(arrays, values):
            array[done:done + rows] = column[:rows]
        for i, name in enumerate(names, len(columns)):
            table, tag_cells = tables[name], cells[i:rows * width:width]
            for cell in set(tag_cells).difference(table):
                tag = cell.strip()
                try:
                    table[cell] = tags[name](tag) if tag else None
                except ValueError:
                    table[cell] = _BAD_TAG
            found[name][done:done + rows] = np.fromiter(map(table.__getitem__, tag_cells), object)
        done += rows
        if stop:
            break
    arrays = [array[:done] for array in arrays]
    found = {name: column[:done] for name, column in found.items()}
    faults = [(int(np.argmax(mask)), message) for mask, message in checks(*arrays) if mask.any()]
    faults += [(found[name].tolist().index(_BAD_TAG), "bad tag value")
               for name in names if _BAD_TAG in tables[name].values()]
    if stop:
        faults.append((len(arrays[0]), stop))
    if faults:
        row, message = min(faults, key=lambda fault: fault[0])
        kept = compress(count(2), map(str.strip, islice(lines, 1, None), repeat(_BLANK_CHARS)))
        raise error(f"{source}:{next(islice(kept, row, None))}: {message}")
    return arrays, found


def model_from_dict(obj: dict) -> PathLossModel:
    region = obj.get("region")
    height = obj.get("height")
    return PathLossModel(
        alpha_db=float_field(obj, "alpha_db"),
        beta=float_field(obj, "beta"),
        sigma_db=float_field(obj, "sigma_db"),
        region=Region(region) if region is not None else None,
        height=HeightClass(height) if height is not None else None,
    )


def model_to_json(model: PathLossModel) -> str:
    """Serialize with full float precision (repr round-trips exactly)."""
    return json.dumps(model_to_dict(model))
