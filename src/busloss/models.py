"""Log-distance path loss with Gaussian shadow fading for the 60 GHz in-bus channel.

The model is L(d) = alpha + 10*beta*log10(d) + X, where X is a zero-mean
Gaussian shadow-fading term with standard deviation sigma (all in dB).
Ten fitted parameter sets ship with the package, one per seat region
(A-D plus the pooled "All" set) and transmitter height class. The input and
output rules every module shares (read_text, load_json_object, csv_rows, csv_text) live here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Distances outside this window are extrapolations beyond the measured range
# (roughly one bus length); evaluation succeeds but results carry a flag.
FITTED_RANGE_M = (0.5, 15.0)


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
    mean = mean_path_loss(model, d)
    if size is None:
        return mean + model.sigma_db * float(rng.standard_normal())
    return mean + model.sigma_db * rng.standard_normal(size)


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


def builtin_models() -> list[PathLossModel]:
    """All ten shipped parameter sets, regions A-D and All at both heights."""
    return [
        PathLossModel(alpha, beta, sigma, region=r, height=h)
        for (r, h), (alpha, beta, sigma) in _BUILTIN_PARAMS.items()
    ]


def builtin_model(region: Region, height: HeightClass) -> PathLossModel:
    """Look up one shipped parameter set."""
    alpha, beta, sigma = _BUILTIN_PARAMS[(region, height)]
    return PathLossModel(alpha, beta, sigma, region=region, height=height)


def builtin_registry() -> dict[tuple[Region, HeightClass], PathLossModel]:
    """Shipped parameter sets keyed by (region, height)."""
    return {key: builtin_model(*key) for key in _BUILTIN_PARAMS}


def model_to_dict(model: PathLossModel) -> dict:
    return {
        "alpha_db": model.alpha_db,
        "beta": model.beta,
        "sigma_db": model.sigma_db,
        "region": model.region.value if model.region is not None else None,
        "height": model.height.value if model.height is not None else None,
    }


def float_field(obj: dict, name: str, default: float | None = None) -> float:
    """obj[name] as a float, or default if absent; ValueError names a non-numeric or NaN field."""
    value = obj[name] if default is None else obj.get(name, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {name!r} must be a number, got {value!r}") from None
    if math.isnan(number):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    return number


def int_field(obj: dict, name: str) -> int:
    """obj[name] as an int; ValueError names a field that is not an integral number."""
    value = float_field(obj, name)
    if not value.is_integer():
        raise ValueError(f"field {name!r} must be an integer, got {obj[name]!r}")
    return int(value)


def read_text(path: str | Path, kind: str, error=ValueError) -> str:
    """The text of a UTF-8 file, read with universal newlines. A missing file or
    one that is not UTF-8 raises error naming the file."""
    if not Path(path).is_file():
        raise error(f"{kind} file not found: {path}")
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


def csv_rows(text: str, source, kind: str, columns: Sequence[str],
             optional: Collection[str] = (), error=ValueError):
    """The inverse of csv_text: the header's names and a lazy iterator of (line
    number, cells) over rows not all whitespace. Lines split at line feeds (a
    carriage return is whitespace), cells at commas, nothing quoted. The header
    is columns, then optional ones at most once each; error names the bad line."""
    if not text:
        raise error(f"{source}: empty {kind} file")
    lines = iter(text.split("\n"))
    header = [name.strip() for name in next(lines).split(",")]
    if header[:len(columns)] != list(columns):
        raise error(f"{source}:1: header must start with {','.join(columns)}")
    for i, name in enumerate(header[len(columns):], len(columns)):
        if name not in optional:
            raise error(f"{source}:1: unknown column {name!r}")
        if name in header[:i]:
            raise error(f"{source}:1: repeated column {name!r}")

    def rows():
        for lineno, line in enumerate(lines, 2):
            cells = line.split(",")
            if not "".join(cells).strip():  # blank or whitespace-only row
                continue
            if len(cells) != len(header):
                raise error(f"{source}:{lineno}: expected {len(header)} columns")
            yield lineno, cells

    return header, rows()


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


def model_from_json(text: str) -> PathLossModel:
    return model_from_dict(json.loads(text))
