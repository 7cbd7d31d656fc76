"""Least-squares estimation of (alpha, beta, sigma) from path loss samples.

Fitting is ordinary least squares of path loss on x = 10*log10(distance), in
closed form about the mean of x; the intercept is alpha, the slope is beta,
and sigma is the residual standard deviation with n-2 degrees of freedom.
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
    TagColumn,
    csv_text,
    float_cells,
    float_columns,
    model_to_dict,
    read_csv,
    sample_path_loss,
)


class InsufficientDataError(ValueError):
    """Fewer samples than the fit requires."""


class DegenerateDataError(ValueError):
    """Samples cannot identify the model (e.g. a single distinct distance, path
    losses whose least-squares sums overflow a float, or a fit outside the model's
    parameter ranges)."""


# The optional tags of a sample, in sample CSV column order, each with the
# parser of its CSV cells. A cell is written as the tag's .value, if it has
# one, else as str(tag); an empty cell is a missing (None) tag.
SAMPLE_TAGS = {"seat": int, "region": Region, "height": HeightClass}


@dataclass(frozen=True)
class SampleSet:
    """(distance, path loss) pairs with optional seat/region/height tags: an immutable
    record, validated by its rules when built. Every column is read-only: the float arrays
    are copies of those given, and each tag column is a categorical TagColumn (or None)
    that owns its read-only intp codes, -1 where a tag is missing, into the tuple of its
    distinct tags. A tag column may be given as a TagColumn, kept as it is, or as any
    sequence of tags, such as a list or an object array; column[i] is the tag of sample i.
    dataclasses.replace builds an edited copy and validates it again."""

    distance_m: np.ndarray
    path_loss_db: np.ndarray
    seat: TagColumn | None = None
    region: TagColumn | None = None
    height: TagColumn | None = None

    def __post_init__(self) -> None:
        float_columns(self, ("distance_m", "path_loss_db"),
                      "distance and path loss arrays must match in length and be 1-D")
        for name in SAMPLE_TAGS:
            tags = getattr(self, name)
            if tags is None:
                continue
            if len(tags) != len(self.distance_m):
                raise ValueError(f"{name} tags must match sample count")
            if not isinstance(tags, TagColumn):
                object.__setattr__(self, name, TagColumn.of(tags))

    @staticmethod
    def rules(distance: np.ndarray, path_loss: np.ndarray) -> list[tuple[np.ndarray, str]]:
        """(bad-row mask, message) of each rule of a sample."""
        return [(~np.isfinite(distance) | (distance <= 0), "distance must be > 0"),
                (~np.isfinite(path_loss), "path loss must be finite")]

    def __len__(self) -> int:
        return len(self.distance_m)


@dataclass
class FitResult:
    """Fitted model plus residual diagnostics: alpha_se_db and beta_se are the
    standard errors of alpha and beta, sigma*sqrt(1/n + mean(x)^2/Sxx) and
    sigma/sqrt(Sxx), where Sxx is the sum of squares of x about its mean."""

    model: PathLossModel
    residuals_db: np.ndarray
    r_squared: float
    n: int
    alpha_se_db: float
    beta_se: float


def fit_log_distance(
    samples: SampleSet,
    region: Region | None = None,
    height: HeightClass | None = None,
) -> FitResult:
    """OLS fit of the log-distance model; raises when the data cannot support it.

    region/height tag the resulting model; left at None they are taken from the
    samples' tag column when every sample has the same tag.
    """
    n = len(samples)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {n}")
    d = samples.distance_m
    if d.min() == d.max():
        raise DegenerateDataError("need at least two distinct distances")

    x = 10.0 * np.log10(d)
    y = samples.path_loss_db
    x_mean = float(x.mean())
    xc = x - x_mean
    sxx = float(xc @ xc)
    if not sxx > 0.0:  # distances too close for log10 to tell apart
        raise DegenerateDataError("need at least two distinct distances")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        y_mean = float(y.mean())
        yc = y - y_mean
        beta = float(xc @ yc) / sxx
        alpha = y_mean - beta * x_mean
        residuals = y - (alpha + beta * x)
        ssr = float(residuals @ residuals)
        sst = float(yc @ yc)
    if not math.isfinite(ssr):
        raise DegenerateDataError("path losses too large to fit in double precision")
    sigma = math.sqrt(ssr / (n - 2))
    r_squared = 1.0 if sst == 0.0 else min(1.0, max(0.0, 1.0 - ssr / sst))
    if region is None and samples.region is not None:
        region = samples.region.uniform()
    if height is None and samples.height is not None:
        height = samples.height.uniform()

    try:
        model = PathLossModel(alpha, beta, sigma, region, height)
    except ValueError as exc:  # a parameter outside its range
        raise DegenerateDataError(f"fitted model out of range: {exc}") from None
    return FitResult(model=model, residuals_db=residuals, r_squared=r_squared, n=n,
                     alpha_se_db=sigma * math.sqrt(1.0 / n + x_mean**2 / sxx),
                     beta_se=sigma / math.sqrt(sxx))


@dataclass
class PartitionFit:
    """Per-(region, height) fits; cells with too little data are skipped."""

    fits: dict[tuple[Region, HeightClass], FitResult] = field(default_factory=dict)
    skipped: list[tuple[Region, HeightClass, int]] = field(default_factory=list)


def fit_by_partition(samples: SampleSet) -> PartitionFit:
    """Fit every tagged (region, height) cell plus a pooled All cell per height.

    A region cell holds the samples tagged with both its region and its height;
    a height's All cell holds every sample of that height, whatever its region
    tag, so a sample tagged All or with no region joins only that cell. A sample
    with no height joins no cell. Each cell gets its samples in file order."""
    if samples.region is None or samples.height is None:
        raise ValueError("samples must carry region and height tags")

    groups, result = [r for r in Region if r != Region.ALL], PartitionFit()
    for h in HeightClass:
        rows = np.flatnonzero(samples.height.codes == samples.height.code(h))
        codes = samples.region.codes[rows]  # np.compress: a boolean index took twice as long
        cells = [(r, np.compress(codes == samples.region.code(r), rows)) for r in groups]
        for r, cell_rows in [*cells, (Region.ALL, rows)]:
            if len(cell_rows) == 0:
                continue
            cell = SampleSet(samples.distance_m[cell_rows], samples.path_loss_db[cell_rows])
            try:
                result.fits[(r, h)] = fit_log_distance(cell, region=r, height=h)
            except (InsufficientDataError, DegenerateDataError):
                result.skipped.append((r, h, len(cell_rows)))
    return result


def synth_samples(
    model: PathLossModel, distances: Sequence[float], seed: int
) -> SampleSet:
    """Shadow-faded samples at the given distances, reproducible per seed."""
    d = np.asarray(distances, dtype=float)
    n = len(d)
    return SampleSet(
        d,
        sample_path_loss(model, d, np.random.default_rng(seed), n),
        region=[model.region] * n if model.region is not None else None,
        height=[model.height] * n if model.height is not None else None,
    )


def synth_seat_samples(model: PathLossModel, layout: BusLayout, height: HeightClass,
                       seed: int) -> SampleSet:
    """synth_samples's draw at the seat_links(layout, height) distances, each sample
    tagged with its link's seat and group and with height."""
    ids, groups, distances = seat_links(layout, height)
    d = np.asarray(distances, dtype=float)
    losses = sample_path_loss(model, d, np.random.default_rng(seed), len(d))
    return SampleSet(d, losses, seat=ids, region=groups, height=[height] * len(ids))


def samples_to_csv(samples: SampleSet) -> str:
    """Serialize to the sample CSV schema; tag columns appear only when present."""
    header = ["distance_m", "path_loss_db"]
    columns = [float_cells(samples.distance_m), float_cells(samples.path_loss_db)]
    for name in SAMPLE_TAGS:
        column = getattr(samples, name)
        if column is not None:
            text = [str(getattr(t, "value", t)) for t in column.values]
            header.append(name)
            columns.append(column.take([*text, ""]))
    return csv_text(header, zip(*columns))


def samples_from_csv(text: str, source: str = "<string>") -> SampleSet:
    """Parse the sample CSV schema, naming the offending line on error."""
    return read_csv(text, source, "sample", ("distance_m", "path_loss_db"), SampleSet, SAMPLE_TAGS)


def fit_result_to_dict(result: FitResult) -> dict:
    out = model_to_dict(result.model)
    out["r_squared"] = result.r_squared
    out["n"] = result.n
    out["alpha_se_db"] = result.alpha_se_db
    out["beta_se"] = result.beta_se
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
