"""Log-distance path loss with Gaussian shadow fading for the 60 GHz in-bus channel.

The model is L(d) = alpha + 10*beta*log10(d) + X, where X is a zero-mean
Gaussian shadow-fading term with standard deviation sigma (all in dB).
Ten fitted parameter sets ship with the package, one per seat region
(A-D plus the pooled "All" set) and transmitter height class;
verify_registry checks the pooled sets against the paper's rounded
coefficients, and path_loss_band gives the 5-95% shadowing band. The shared
I/O helpers live here too: read_text, load_json_object, float_record (the one
JSON record reader) with its tag_field, and check_ranges (the one range check) for input
files, csv_text and float_cells for CSV output, and read_csv, its inverse, which
builds a record and names the line of the first row its rules reject (first_fault).
"""

from __future__ import annotations

import collections.abc
import functools
import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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

    # Enum equality is identity, so the identity hash agrees with it and spares each
    # dict lookup Enum's Python-level hash(self._name_).
    __hash__ = object.__hash__


class HeightClass(Enum):
    """Transmitter height class: hand-held (lower) or head-worn (upper)."""

    LOWER = "lower"
    UPPER = "upper"

    __hash__ = object.__hash__  # as Region's


# The range of a dB power or gain field of a link budget or a calibration.
POWER_DB_RANGE = (-300.0, 300.0)


def check_ranges(record, ranges: Mapping[str, tuple[float, float]]) -> None:
    """ValueError naming the first field of record, in the order of ranges, whose
    value lies outside its range [low, high]; NaN lies outside every range."""
    for name, (low, high) in ranges.items():
        value = getattr(record, name)
        if not low <= value <= high:
            raise ValueError(f"{name} must be in [{low:g}, {high:g}], got {value}")


# Every positive finite double d has |log10 d| < 324 (it lies in [4.9e-324, 1.8e308]),
# so in these ranges every mean loss alpha + 10*beta*log10(d) lies within
# +-(1,000 + 10*100*324) = +-325,000 dB, and adding sigma times a normal draw keeps it finite.
_MODEL_RANGES = {"alpha_db": (-1000.0, 1000.0), "beta": (-100.0, 100.0), "sigma_db": (0.0, 100.0)}


@dataclass(frozen=True)
class PathLossModel:
    """One (alpha, beta, sigma) parameter set of the log-distance model.

    alpha_db is the propagation constant, beta the propagation exponent and
    sigma_db the shadow-fading standard deviation, each within its _MODEL_RANGES
    range. region/height identify which measurement subset the parameters were
    fitted on; they may be None for models fitted from untagged data.
    """

    alpha_db: float
    beta: float
    sigma_db: float
    region: Region | None = None
    height: HeightClass | None = None

    def __post_init__(self) -> None:
        check_ranges(self, _MODEL_RANGES)


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


def mean_path_loss(model: PathLossModel, d: float | np.ndarray):
    """Deterministic mean path loss in dB at distance d metres. d is a float, or an
    array whose entries d <= 0 give -inf or NaN for the caller to reject."""
    if isinstance(d, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return model.alpha_db + 10.0 * model.beta * np.log10(d)
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
    d: float | np.ndarray,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw shadow-faded path loss values at d (see mean_path_loss); scalar when size is None.

    The caller owns the generator, so identical generator state yields
    identical draws.
    """
    return mean_path_loss(model, d) + model.sigma_db * rng.standard_normal(size)


def coverage_probability(model: PathLossModel, d: float, l_max: float) -> float:
    """P(path loss <= l_max) under the Gaussian shadowing term."""
    return _coverage(mean_path_loss(model, d), model.sigma_db, l_max)


def _coverage(mean: float, sigma: float, l_max: float) -> float:
    """P(mean + sigma*Z <= l_max) for a standard normal Z."""
    if sigma == 0.0:
        return 1.0 if l_max >= mean else 0.0
    z = (l_max - mean) / sigma
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


def json_field(obj: dict, name: str, default=MISSING):
    """obj[name], or default if given and absent; ValueError if absent with no default."""
    if default is MISSING and name not in obj:
        raise ValueError(f"missing field {name!r}")
    return obj.get(name, default)


def float_field(obj: dict, name: str, default=MISSING) -> float:
    """json_field(obj, name, default) as a float; ValueError if it is not an int or
    float (a bool, text or null) or is NaN."""
    value = json_field(obj, name, default)
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and not math.isnan(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ValueError(f"field {name!r} must be a number, got {value!r}")


@functools.cache
def _field_defaults(cls) -> dict[str, object]:
    return {f.name: f.default for f in fields(cls)}


def float_record(cls, obj: dict, where: str = "", readers: Mapping[str, Callable] = {}):
    """cls(...) with each dataclass field read from obj, a dict, in field order, by
    readers[name](obj, name, default) or else float_field; default is the field's
    dataclass default (MISSING if it has none), taken when the field is absent. Then the
    first key of obj that is not a field raises a ValueError naming it. Every ValueError
    (a non-dict obj, a field, cls) is raised again, of its class, with where before it."""
    defaults = _field_defaults(cls)
    try:
        if not isinstance(obj, dict):
            raise ValueError(f"must be a JSON object, not {type(obj).__name__}")
        record = cls(**{name: readers.get(name, float_field)(obj, name, default)
                        for name, default in defaults.items()})
        for key in obj:
            if key not in defaults:
                raise ValueError(f"unknown field {key!r}")
    except ValueError as exc:
        raise type(exc)(f"{where}{exc}") from None
    return record


def tag_field(obj: dict, name: str, default=MISSING, tags: Iterable[Enum] = ()) -> Enum | None:
    """The one of tags whose value is json_field(obj, name, default); JSON null gives a
    default of None. Any other value raises a ValueError naming the field."""
    value = json_field(obj, name, default)
    if value is None and default is None:
        return None
    for tag in tags:
        if tag.value == value:
            return tag
    raise ValueError(f"field {name!r} must be one of {', '.join(t.value for t in tags)}, "
                     f"got {value!r}")


def int_field(obj: dict, name: str, default=MISSING) -> int:
    """obj[name], or default if given and absent, as an int; ValueError if not integral."""
    value = float_field(obj, name, default)
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
    except ValueError as exc:
        raise error(f"{path}: bad {kind} ({exc})") from None


# Rows csv_text joins and read_csv converts at a time. A block's row strings and
# cell lists live only while it is joined or converted, so they stay a small
# share of the text's memory: on a 2e5-row tagged sample file, a list of every
# row string or line took about twice the text's memory.
CSV_BLOCK_ROWS = 8192


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """CSV with a header line and "\n" line ends; no cell may need quoting. Rows are
    joined CSV_BLOCK_ROWS at a time, and then the blocks, so no string of every
    row is held at once."""
    # Joining each row as it is drawn lets zip reuse its row tuple; a block of
    # tuples would allocate one per row and set off the garbage collector.
    rows, blocks = map(",".join, rows), [",".join(header)]
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        blocks.append("\n".join(block))
    blocks.append("")  # the last line end: text + "\n" would copy the whole text
    return "\n".join(blocks)


def float_cells(values: np.ndarray) -> Iterable[str]:
    """The CSV cell of each float: its repr, the shortest text that reads back to it."""
    return map(repr, values.tolist())


@dataclass(frozen=True, eq=False)
class TagColumn(collections.abc.Sequence):
    """A categorical column of tags: row i has the tag values[codes[i]], or None
    (a missing tag) where codes[i] is -1. codes must be a 1-D integer array (any
    dtype if empty), each code in [-1, len(values)), else ValueError. The column owns
    its codes: a read-only intp copy, which no caller holds. values holds each distinct
    tag once, in order of first appearance; [i] and iteration give the tags themselves."""

    codes: np.ndarray
    values: tuple

    def __post_init__(self) -> None:
        codes, values = np.asarray(self.codes), tuple(self.values)
        if codes.ndim != 1 or codes.size and codes.dtype.kind not in "iu":
            raise ValueError("tag codes must be a 1-D integer array")
        codes = codes.astype(np.intp)
        if codes.size and not -1 <= codes.min() <= codes.max() < len(values):
            raise ValueError(f"tag codes must lie in [-1, {len(values)})")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls, tags: Sequence) -> "TagColumn":
        """The column of a sequence of tags, one dict pass over them; None is missing."""
        values = [tag for tag in dict.fromkeys(tags) if tag is not None]
        index = {tag: code for code, tag in enumerate(values)}
        index[None] = -1
        return cls(np.fromiter(map(index.__getitem__, tags), np.intp, len(tags)), values)

    def code(self, tag) -> int:
        """The code of tag, or -2, which matches no row, when no row has it."""
        return self.values.index(tag) if tag in self.values else -2

    def take(self, table: Sequence) -> np.ndarray:
        """An object array of table[code] for each row's code: table has an entry
        per value, then one for a missing tag."""
        return np.fromiter(table, object, len(table))[self.codes]

    def uniform(self):
        """The tag of every row when all rows share one, else None."""
        return self.values[0] if len(self.values) == 1 and self.codes.min() >= 0 else None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int):
        code = self.codes[i]
        return None if code < 0 else self.values[code]

    def __iter__(self):
        return iter(self.take([*self.values, None]))


def float_columns(record, names: Sequence[str], message: str) -> None:
    """Set each named field of a frozen record to a read-only float64 copy of its
    value, which no caller holds; ValueError with message unless the copies are
    1-D and of one length, else with the first fault of record.rules(*copies)."""
    columns = [np.array(getattr(record, name), dtype=float) for name in names]
    if any(column.ndim != 1 or len(column) != len(columns[0]) for column in columns):
        raise ValueError(message)
    for name, column in zip(names, columns):
        column.flags.writeable = False
        object.__setattr__(record, name, column)
    fault = first_fault(record.rules(*columns))
    if fault:
        raise ValueError(fault[1])


def first_fault(rules) -> tuple[int, str] | None:
    """(row, message) of the first row that one of the (bad-row mask, message)
    rules rejects, the rule listed first on a row two reject; None if none does."""
    faults = [(int(np.argmax(mask)), message) for mask, message in rules if mask.any()]
    return min(faults, key=lambda fault: fault[0], default=None)


# Characters of text read_csv splits into lines at a time, about 11,000 rows of
# a tagged sample file, so that only one chunk's lines are held as strings.
_CSV_CHUNK_CHARS = 1 << 19

# The characters str.strip() removes (str.isspace), and the comma: a row of
# only these is blank.
_BLANK_CHARS = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
                "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000,")


# The code of a cell its tag column's parser rejects.
_BAD_TAG = -2


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


# The bytes a body may hold for _loadtxt_columns: no whitespace, quote, "#" or
# carriage return, so loadtxt frames its lines and cells as read_csv does, and
# no "_", so every cell it parses float() parses to the same double.
_NUMERIC_BYTES = b"0123456789.+-eE,\n"


def _loadtxt_columns(body: str, width: int) -> list[np.ndarray] | None:
    """The width columns of a body of numeric rows from one np.loadtxt call, or None
    when read_csv's block path must read it: a body with no row or with a byte
    outside _NUMERIC_BYTES, or one loadtxt rejects or finds of another width."""
    if (not body.strip("\n") or not body.isascii()
            or body.encode("ascii").translate(None, _NUMERIC_BYTES)):
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return list(table.T) if table.shape[1] == width else None


def _line_blocks(text: str, start: int) -> Iterator[list[str]]:
    """The lines of text[start:], split at line feeds, in lists of at most
    CSV_BLOCK_ROWS, framed from about _CSV_CHUNK_CHARS characters at a time."""
    while True:
        end = text.find("\n", start + _CSV_CHUNK_CHARS)
        lines = text[start:len(text) if end < 0 else end].split("\n")
        for i in range(0, len(lines), CSV_BLOCK_ROWS):
            yield lines[i:i + CSV_BLOCK_ROWS]
        if end < 0:
            return
        start = end + 1


def read_csv(text: str, source, kind: str, columns: Sequence[str], record,
             tags: Mapping[str, Callable] = {}, error=ValueError):
    """The inverse of csv_text: record(*float arrays of the columns, **a TagColumn
    for each tag column in the header).

    Lines split at line feeds (a carriage return is whitespace), cells at
    commas, nothing quoted; rows all whitespace and commas are skipped. The
    header is columns, then names of tags at most once each. A tag cell is
    parsed by tags[name] once per distinct cell into the code of its tag, and a
    blank one is missing (code -1).
    The record checks its rows when built; record.rules(*arrays) gives its (bad-row
    mask, message) pairs. The first bad row raises error naming its line (only the
    source for a fault of no row), with its first fault in the order: the wrong width,
    a cell float() rejects, each rule, a tag its parser rejects. A body with no tag
    column and only the bytes of _NUMERIC_BYTES is read by one np.loadtxt call, every
    other body by the block path: rows framed and converted CSV_BLOCK_ROWS at a time by
    C-level string operations, with no Python step per row or cell, from lines split
    about _CSV_CHUNK_CHARS characters at a time, into arrays sized by the count of line
    feeds. One judge builds the record from either, or names the first fault's line,
    counted through _line_blocks: no body is parsed twice, and no text is split whole."""
    if not text:
        raise error(f"{source}: empty {kind} file")
    head = text[:text.find("\n")] if "\n" in text else text  # no copy of the body
    header = [name.strip() for name in head.split(",")]
    if header[:len(columns)] != list(columns):
        raise error(f"{source}:1: header must start with {','.join(columns)}")
    for i, name in enumerate(header[len(columns):], len(columns)):
        if name not in tags:
            raise error(f"{source}:1: unknown column {name!r}")
        if name in header[:i]:
            raise error(f"{source}:1: repeated column {name!r}")
    width, names = len(header), header[len(columns):]
    tables = {name: {} for name in names}  # cell -> code
    distinct = {name: {} for name in names}  # tag -> code
    found, stop = {}, None  # each tag column's codes; the fault of the row after the rows read
    # The body is sliced only here: one held through the block path doubles the text.
    arrays = None if names else _loadtxt_columns(text[len(head) + 1:], width)
    if arrays is None:  # every other body takes the block path
        n_lines = text.count("\n")  # the lines of the body, which hold its rows
        arrays, done = [np.empty(n_lines) for _ in columns], 0
        found = {name: np.empty(n_lines, np.intp) for name in names}
        for block in _line_blocks(text, len(head) + 1):
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
                table, codes, tag_cells = tables[name], distinct[name], cells[i:rows * width:width]
                new = set(tag_cells).difference(table)  # spares most blocks the slower ordered pass
                for cell in filter(new.__contains__, dict.fromkeys(tag_cells) if new else ()):
                    tag = cell.strip()
                    try:
                        table[cell] = codes.setdefault(tags[name](tag), len(codes)) if tag else -1
                    except ValueError:
                        table[cell] = _BAD_TAG
                found[name][done:done + rows] = np.fromiter(map(table.__getitem__, tag_cells),
                                                            np.intp, rows)
            done += rows
            if stop:
                break
        arrays, found = [array[:done] for array in arrays], {n: c[:done] for n, c in found.items()}
    # The judge: the stop is first, to win a tie with a fault of no row; none other is at its row.
    faults = [(done, stop)] if stop else []
    bad_tags = [(int(np.argmax(found[name] == _BAD_TAG)), "bad tag value")
                for name in names if _BAD_TAG in tables[name].values()]
    try:  # each code buffer is let go as its TagColumn copies it
        built = record(*arrays, **{n: TagColumn(found.pop(n), distinct[n]) for n in names})
    except ValueError:  # a rule's fault, or a _BAD_TAG code, which TagColumn rejects
        faults += filter(None, [first_fault(record.rules(*arrays))])
    if faults := faults + bad_tags:
        row, message = min(faults, key=lambda fault: fault[0])
        lines = chain.from_iterable(_line_blocks(text, len(head) + 1))
        kept = compress(count(2), map(str.strip, lines, repeat(_BLANK_CHARS)))
        line = next(islice(kept, row, None), None)
        raise error(f"{source}: {message}" if line is None else f"{source}:{line}: {message}")
    return built


_MODEL_TAGS = {"region": functools.partial(tag_field, tags=tuple(Region)),
               "height": functools.partial(tag_field, tags=tuple(HeightClass))}


def model_from_dict(obj: dict) -> PathLossModel:
    """The PathLossModel of obj's fields, read by float_record (region and height may
    be null or absent); other keys, such as fit's statistics, are ignored."""
    known = _field_defaults(PathLossModel)
    return float_record(PathLossModel, {k: v for k, v in obj.items() if k in known},
                        readers=_MODEL_TAGS)


def model_to_json(model: PathLossModel) -> str:
    """Serialize with full float precision (repr round-trips exactly)."""
    return json.dumps(model_to_dict(model))
