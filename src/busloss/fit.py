"""Least-squares estimation of (alpha, beta, sigma) from path loss samples.

Fitting is ordinary least squares of path loss on 10*log10(distance); the
intercept is alpha, the slope is beta, and sigma is the residual standard
deviation with n-2 degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import BusLayout, seat_links
from .models import (
    HeightClass,
    PathLossModel,
    Region,
    csv_text,
    model_to_dict,
    read_csv,
)


class InsufficientDataError(ValueError):
    """Fewer samples than the fit requires."""


class DegenerateDataError(ValueError):
    """Samples cannot identify the model (e.g. a single distinct distance, or
    path losses whose least-squares sums overflow a float)."""


# The optional tags of a sample, in sample CSV column order, each with the
# parser of its CSV cells. A cell is written as the tag's .value, if it has
# one, else as str(tag); an empty cell is a missing (None) tag.
SAMPLE_TAGS = {"seat": int, "region": Region, "height": HeightClass}


@dataclass(frozen=True)
class SampleSet:
    """(distance, path loss) pairs with optional seat/region/height tags: an immutable
    record, validated when built. Every column is read-only: the float arrays are views
    of those given, not copies, and each tag column is a 1-D object array copied from
    the tags given (or None).
    dataclasses.replace builds an edited copy and validates it again."""

    distance_m: np.ndarray
    path_loss_db: np.ndarray
    seat: np.ndarray | None = None
    region: np.ndarray | None = None
    height: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("distance_m", "path_loss_db"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).view())
            getattr(self, name).flags.writeable = False
        if self.distance_m.shape != self.path_loss_db.shape:
            raise ValueError("distance and path loss arrays must match in length")
        if np.any(~np.isfinite(self.distance_m)) or np.any(self.distance_m <= 0):
            raise ValueError("all distances must be finite and > 0")
        if np.any(~np.isfinite(self.path_loss_db)):
            raise ValueError("all path losses must be finite")
        for name in SAMPLE_TAGS:
            tags = getattr(self, name)
            if tags is None:
                continue
            if len(tags) != len(self.distance_m):
                raise ValueError(f"{name} tags must match sample count")
            if isinstance(tags, np.ndarray) and tags.dtype == object and tags.ndim == 1:
                column = tags.copy()  # what fromiter builds, without a Python step per tag
            else:
                column = np.fromiter(tags, object, len(tags))
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.distance_m)


@dataclass
class FitResult:
    """Fitted model plus residual diagnostics."""

    model: PathLossModel
    residuals_db: np.ndarray
    r_squared: float
    n: int


def _uniform_tag(tags):
    values = set() if tags is None else set(tags)
    return values.pop() if len(values) == 1 else None


def fit_log_distance(
    samples: SampleSet,
    region: Region | None = None,
    height: HeightClass | None = None,
) -> FitResult:
    """OLS fit of the log-distance model; raises when the data cannot support it.

    region/height tag the resulting model; left at None they are inferred
    from the samples when the tags are uniform.
    """
    n = len(samples)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {n}")
    d = samples.distance_m
    if d.min() == d.max():
        raise DegenerateDataError("need at least two distinct distances")

    x = 10.0 * np.log10(d)
    y = samples.path_loss_db
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        beta, alpha = np.polyfit(x, y, 1)
        residuals = y - (alpha + beta * x)
        ssr = float(residuals @ residuals)
        sst = float(np.sum((y - y.mean()) ** 2))
    if not math.isfinite(ssr):
        raise DegenerateDataError("path losses too large to fit in double precision")
    sigma = math.sqrt(ssr / (n - 2))
    r_squared = 1.0 if sst == 0.0 else min(1.0, max(0.0, 1.0 - ssr / sst))

    model = PathLossModel(
        alpha_db=float(alpha),
        beta=float(beta),
        sigma_db=sigma,
        region=region if region is not None else _uniform_tag(samples.region),
        height=height if height is not None else _uniform_tag(samples.height),
    )
    return FitResult(model=model, residuals_db=residuals, r_squared=r_squared, n=n)


@dataclass
class PartitionFit:
    """Per-(region, height) fits; cells with too little data are skipped."""

    fits: dict[tuple[Region, HeightClass], FitResult] = field(default_factory=dict)
    skipped: list[tuple[Region, HeightClass, int]] = field(default_factory=list)


def fit_by_partition(samples: SampleSet) -> PartitionFit:
    """Fit every tagged (region, height) cell plus a pooled All cell per height."""
    if samples.region is None or samples.height is None:
        raise ValueError("samples must carry region and height tags")

    result = PartitionFit()
    for h in HeightClass:
        in_height = samples.height == h
        for r in Region:
            mask = in_height if r == Region.ALL else in_height & (samples.region == r)
            n = int(np.count_nonzero(mask))
            if n == 0:
                continue
            cell = SampleSet(samples.distance_m[mask], samples.path_loss_db[mask])
            try:
                result.fits[(r, h)] = fit_log_distance(cell, region=r, height=h)
            except (InsufficientDataError, DegenerateDataError):
                result.skipped.append((r, h, n))
    return result


def _draw(model: PathLossModel, distances: Sequence[float], seed: int):
    """(distances, shadow-faded path losses) at the distances, reproducible per seed."""
    rng = np.random.default_rng(seed)
    d = np.asarray(distances, dtype=float)
    if np.any(~np.isfinite(d)) or np.any(d <= 0):
        raise ValueError("all distances must be finite and > 0")
    means = model.alpha_db + 10.0 * model.beta * np.log10(d)
    return d, means + model.sigma_db * rng.standard_normal(len(d))


def synth_samples(
    model: PathLossModel, distances: Sequence[float], seed: int
) -> SampleSet:
    """Shadow-faded samples at the given distances, reproducible per seed."""
    d, losses = _draw(model, distances, seed)
    n = len(d)
    return SampleSet(
        d,
        losses,
        region=[model.region] * n if model.region is not None else None,
        height=[model.height] * n if model.height is not None else None,
    )


def synth_seat_samples(model: PathLossModel, layout: BusLayout, height: HeightClass,
                       seed: int) -> SampleSet:
    """synth_samples's draw at the seat_links(layout, height) distances, each sample
    tagged with its link's seat and group and with height."""
    links = seat_links(layout, height)
    d, losses = _draw(model, [d for _, _, d in links], seed)
    return SampleSet(d, losses, seat=[s for s, _, _ in links],
                     region=[group for _, group, _ in links], height=[height] * len(links))


def samples_to_csv(samples: SampleSet) -> str:
    """Serialize to the sample CSV schema; tag columns appear only when present."""
    header = ["distance_m", "path_loss_db"]
    columns = [map(repr, samples.distance_m.tolist()), map(repr, samples.path_loss_db.tolist())]
    for name in SAMPLE_TAGS:
        tags = getattr(samples, name)
        if tags is not None:
            text = {t: "" if t is None else str(getattr(t, "value", t)) for t in set(tags)}
            header.append(name)
            columns.append([text[t] for t in tags])
    return csv_text(header, zip(*columns))


def samples_from_csv(text: str, source: str = "<string>") -> SampleSet:
    """Parse the sample CSV schema, naming the offending line on error."""
    (d, pl), tags = read_csv(text, source, "sample", ("distance_m", "path_loss_db"), lambda d, pl: [
        (~np.isfinite(d) | (d <= 0), "distance must be > 0"),
        (~np.isfinite(pl), "path loss must be finite"),
    ], SAMPLE_TAGS)
    return SampleSet(d, pl, **tags)


def fit_result_to_dict(result: FitResult) -> dict:
    out = model_to_dict(result.model)
    out["r_squared"] = result.r_squared
    out["n"] = result.n
    return out


def partition_to_dict(partition: PartitionFit) -> dict:
    """The by-group table: fit_result_to_dict of each fitted cell under its
    "Region/height" name, then, if any cell was skipped, the list "skipped".
    A partition with no fitted cell raises InsufficientDataError."""
    if not partition.fits:
        raise InsufficientDataError("no cell has enough samples to fit")
    out = {f"{r.value}/{h.value}": fit_result_to_dict(res) for (r, h), res in partition.fits.items()}
    if partition.skipped:
        out["skipped"] = [{"region": r.value, "height": h.value, "n": n}
                          for r, h, n in partition.skipped]
    return out
