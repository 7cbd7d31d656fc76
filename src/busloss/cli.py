"""Command-line front end for fitting, evaluating and simulating the bus channel.

Subcommands: fit, eval, verify, process, synth, sweep, footprint, compare.
Each cmd_* function only resolves its arguments, makes one library call for
its result, and formats or writes that result; the domain code lives in the
library, where library users reach it too.
Exit codes are a stable contract: 0 success, 1 verification failure,
2 input/parse error, 3 insufficient data, 4 ineligible request.
Commands report failure by raising: ValueError (2), fit.InsufficientDataError
or fit.DegenerateDataError (3), geometry.ExcludedPositionError or
geometry.SeatNotFoundError (4); main turns the error into its exit code and
a one-line message on stderr.
All randomness flows from an explicit --seed; nothing is wall-clock seeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import fit as fitmod
from . import geometry, linkbudget, pdp
from .models import (
    FITTED_RANGE_M,
    HeightClass,
    PathLossModel,
    Region,
    builtin_model,
    builtin_registry,
    compare_models,
    csv_text,
    float_record,
    is_extrapolated,
    load_json_object,
    model_from_dict,
    path_loss_band,
    read_text,
    verify_registry,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3
EXIT_INELIGIBLE = 4

# Largest a:b:step distance grid; a larger one exits 2 before anything is allocated.
MAX_GRID_POINTS = 1_000_000

def _resolve_model(spec: str) -> PathLossModel:
    """A model selector: 'Region/height' for built-ins, else a JSON file path."""
    if Path(spec).exists():
        return load_json_object(spec, "model", model_from_dict)
    region_part, _, height_part = spec.partition("/")
    try:
        region = Region(region_part.capitalize() if region_part.lower() != "all" else "All")
        height = HeightClass(height_part.lower())
    except ValueError:
        raise ValueError(
            f"model {spec!r} is neither a built-in selector (Region/height) nor an existing file"
        ) from None
    return builtin_model(region, height)


def _load_record(cls, kind: str, path: str | None):
    """A cls read from a JSON file of its fields, or cls() when path is None."""
    return cls() if path is None else load_json_object(path, kind, partial(float_record, cls))


def _resolve_layout(path: str | None) -> geometry.BusLayout:
    return geometry.default_layout() if path is None else geometry.load_layout(path)


def _resolve_height(name: str) -> HeightClass:
    try:
        return HeightClass(name.lower())
    except ValueError:
        raise ValueError(f"height must be 'lower' or 'upper', got {name!r}") from None


def _seed(text: str) -> int:
    """The type of --seed: a non-negative int. argparse prints the message after
    the flag; a non-integer keeps the wording of type=int."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _parse_range(spec: str) -> np.ndarray:
    """'a:b:step' -> inclusive distance grid of at most MAX_GRID_POINTS points."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"distance range must be a:b:step, got {spec!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric distance range {spec!r}") from None
    # Written so that NaN fails every comparison and is rejected.
    if not (0 < a <= b < math.inf and 0 < step < math.inf):
        raise ValueError(f"invalid distance range {spec!r}")
    # min() keeps a (b - a) / step that overflowed to inf countable.
    n = round(min((b - a) / step, MAX_GRID_POINTS)) + 1
    if n > MAX_GRID_POINTS:
        raise ValueError(f"distance range {spec!r} has more than {MAX_GRID_POINTS} points")
    grid = a + step * np.arange(n)
    return grid[grid <= b + 1e-9]


def _write_output(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror}") from None


def _write_table(args, items, to_dict, to_csv) -> int:
    """Write items as a JSON list with --format json, else as CSV."""
    if args.format == "json":
        text = json.dumps([to_dict(item) for item in items], indent=2) + "\n"
    else:
        text = to_csv(items)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_fit(args) -> int:
    path = Path(args.samples)
    samples = fitmod.samples_from_csv(read_text(args.samples, "sample"), source=str(path))
    if not args.by_group:
        out = fitmod.fit_result_to_dict(fitmod.fit_log_distance(samples))
    elif samples.region is None or samples.height is None:
        raise ValueError(f"{path}: --by-group needs region and height columns")
    else:
        out = fitmod.partition_to_dict(fitmod.fit_by_partition(samples))
    _write_output(json.dumps(out, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _resolve_model(args.model)
    grid = _parse_range(args.distances)
    rows = []
    for d in grid:
        mean, p05, p95 = path_loss_band(model, d)
        rows.append((f"{d:.4f}", f"{mean:.4f}", f"{p05:.4f}", f"{p95:.4f}"))
    flagged = sum(is_extrapolated(d) for d in grid)
    if flagged:
        lo, hi = FITTED_RANGE_M
        print(
            f"warning: {flagged} distance(s) outside the fitted range "
            f"({lo}-{hi} m); those rows are extrapolations",
            file=sys.stderr,
        )
    _write_output(csv_text(("distance_m", "mean_pl_db", "p05_db", "p95_db"), rows), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    ok, rows = verify_registry()
    lines = [f"{'height':<7}{'quantity':<10}{'expected':>9}{'actual':>10}{'delta':>9}  result"]
    for row in rows:
        lines.append(
            f"{row['height']:<7}{row['quantity']:<10}{row['expected']:>9.2f}"
            f"{row['actual']:>10.4f}{row['delta']:>9.4f}  "
            + ("PASS" if row["pass"] else "FAIL")
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_process(args) -> int:
    cal = _load_record(pdp.LinkCalibration, "calibration", args.calibration)
    sets = pdp.load_measurement_dir(args.measurement_dir)
    layout = _resolve_layout(args.layout) if args.layout else None
    try:
        samples = pdp.measurements_to_samples(sets, cal, layout)
    except geometry.SeatNotFoundError as exc:
        raise geometry.SeatNotFoundError(f"{args.layout}: {exc}") from None
    _write_output(fitmod.samples_to_csv(samples), args.output)
    return EXIT_OK


def cmd_synth(args) -> int:
    model = _resolve_model(args.model)
    layout = _resolve_layout(args.layout)
    height = _resolve_height(args.height)

    if args.pdp_dir is not None:
        if args.calibration is None:
            raise ValueError("--pdp-dir requires --calibration")
        cal = _load_record(pdp.LinkCalibration, "calibration", args.calibration)
        links = [(s, d) for s, _, d in geometry.seat_links(layout, height)]
        sets = pdp.synth_measurements(model, links, height, cal, args.sweeps, args.seed)
        pdp.write_measurement_dir(args.pdp_dir, sets)
        return EXIT_OK

    samples = fitmod.synth_seat_samples(model, layout, height, args.seed)
    _write_output(fitmod.samples_to_csv(samples), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    layout = _resolve_layout(args.layout)
    height = _resolve_height(args.height)
    config = _load_record(linkbudget.LinkBudgetConfig, "budget config", args.config)
    reports = linkbudget.seat_sweep(
        layout, builtin_registry(), config, height, use_all_model=args.use_all_model
    )
    return _write_table(args, reports, linkbudget.report_to_dict, linkbudget.reports_to_csv)


def cmd_footprint(args) -> int:
    layout = _resolve_layout(args.layout)
    height = _resolve_height(args.height)
    config = _load_record(linkbudget.LinkBudgetConfig, "budget config", args.config)
    try:
        active = [int(s) for s in args.active.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--active must be a comma-separated id list, got {args.active!r}") from None
    if not active:
        raise ValueError("--active must name at least one seat")
    summaries = linkbudget.interference_footprint(
        layout, builtin_registry(), config, active, height,
        seed=args.seed, n_draws=args.draws, use_all_model=args.use_all_model,
    )
    return _write_table(args, summaries, linkbudget.footprint_to_dict, linkbudget.footprint_to_csv)


def cmd_compare(args) -> int:
    a = _resolve_model(args.model_a)
    b = load_json_object(args.model_b, "model", model_from_dict)
    grid = _parse_range(args.distances)
    rows = [(f"{d:.4f}", f"{delta:.4f}") for d, delta in zip(grid, compare_models(a, b, grid))]
    _write_output(csv_text(("distance_m", "delta_db"), rows), args.output)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and reused by every later main call:
    parse_args keeps no state between calls, and prog and stderr are looked up
    when used."""
    parser = argparse.ArgumentParser(
        prog="busloss",
        description="60 GHz intra-bus path loss: fitting, evaluation, link budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, layout=True):
        p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
        if layout:
            p.add_argument("--layout", default=None, help="layout JSON (default: shipped layout)")
        p.set_defaults(func=func)

    p = sub.add_parser("fit", help="fit (alpha, beta, sigma) from a sample CSV")
    p.add_argument("samples", help="sample CSV file")
    p.add_argument("--by-group", action="store_true", help="fit per (region, height) cell")
    add_common(p, cmd_fit, layout=False)

    p = sub.add_parser("eval", help="export a path loss curve as CSV")
    p.add_argument("--model", required=True, help="'Region/height' or model JSON file")
    p.add_argument("--distances", required=True, help="range a:b:step in metres")
    add_common(p, cmd_eval, layout=False)

    p = sub.add_parser("verify", help="check registry against rounded coefficients")
    add_common(p, cmd_verify, layout=False)

    p = sub.add_parser("process", help="reduce a measurement directory to samples CSV")
    p.add_argument("measurement_dir", help="directory of <seat>_<height> sweep sets")
    p.add_argument("calibration", help="calibration JSON")
    add_common(p, cmd_process)

    p = sub.add_parser("synth", help="generate synthetic samples or a PDP directory")
    p.add_argument("--model", required=True, help="'Region/height' or model JSON file")
    p.add_argument("--height", required=True, help="lower or upper")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--pdp-dir", default=None, help="write a PDP measurement directory here")
    p.add_argument("--calibration", default=None, help="calibration JSON (for --pdp-dir)")
    p.add_argument("--sweeps", type=int, default=10, help="sweeps per seat (default 10)")
    add_common(p, cmd_synth)

    p = sub.add_parser("sweep", help="per-seat link budget report")
    p.add_argument("--height", required=True, help="lower or upper")
    p.add_argument("--config", default=None, help="budget config JSON")
    p.add_argument("--use-all-model", action="store_true", help="use the pooled model for every seat")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, cmd_sweep)

    p = sub.add_parser("footprint", help="Monte-Carlo SINR with multiple transmitters")
    p.add_argument("--height", required=True, help="lower or upper")
    p.add_argument("--active", required=True, help="comma-separated active seat ids")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--draws", type=int, default=10000)
    p.add_argument("--config", default=None, help="budget config JSON")
    p.add_argument("--use-all-model", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, cmd_footprint)

    p = sub.add_parser("compare", help="mean path loss difference against an external model")
    p.add_argument("--model-a", required=True, help="'Region/height' or model JSON file")
    p.add_argument("--model-b", required=True, help="external model JSON file")
    p.add_argument("--distances", required=True, help="range a:b:step in metres")
    add_common(p, cmd_compare, layout=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The exit code of each error class, tried in order.
    try:
        return args.func(args)
    except (fitmod.InsufficientDataError, fitmod.DegenerateDataError) as exc:
        code, message = EXIT_INSUFFICIENT, exc
    except (geometry.ExcludedPositionError, geometry.SeatNotFoundError) as exc:
        code, message = EXIT_INELIGIBLE, exc
    except ValueError as exc:
        code, message = EXIT_INPUT, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
