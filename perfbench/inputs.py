"""Seeded inputs for the benchmark workloads. Nothing here is timed.

The same seed always gives the same files and arrays. Ground truth (the
distance and path loss each position was generated with) is returned to the
caller so the checks can compare the program's output against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from busloss import fit, geometry, models
from busloss.models import HeightClass, Region

# Sounder grid: 2,048 delay bins of 0.5 ns (15 cm), ten sweeps per position.
BIN_NS = 0.5
N_BINS = 2048
SWEEPS = 10
BIN_M = BIN_NS * 1e-9 * models.SPEED_OF_LIGHT

CALIBRATION = {
    "radiated_power_db": 0.0,
    "g_tx_dbi": 2.0,
    "g_rx_dbi": 2.0,
    "noise_threshold_db": 25.0,
}

# PDP shape relative to the line-of-sight peak (0 dB): an exponential tail
# starting 3 dB down and decaying 0.8 dB/ns with 2 dB fading, over a noise
# floor at -40 dB that stays 5 dB clear of the 25 dB integration window.
TAIL_START_DB = -3.0
TAIL_DB_PER_NS = 0.8
TAIL_FADING_DB = 2.0
NOISE_FLOOR_DB = -40.0
NOISE_SPREAD_DB = 1.5
NOISE_CEILING_DB = -30.0


@dataclass(frozen=True)
class Link:
    """One eligible transmitter position and its geometric distance."""

    seat: int
    height: HeightClass
    group: Region
    distance_m: float


@dataclass(frozen=True)
class Position:
    """Ground truth of one generated PDP measurement set."""

    link: Link
    peak_bin: int
    path_loss_db: float

    @property
    def binned_distance_m(self) -> float:
        return self.peak_bin * BIN_M


def eligible_links(layout: geometry.BusLayout) -> list[Link]:
    """Every (seat, height) position the layout allows: 30 upper + 22 lower."""
    return [
        Link(seat, height, layout.seat(seat).group,
             geometry.link_distance(layout, seat, height))
        for height in (HeightClass.UPPER, HeightClass.LOWER)
        for seat in geometry.seats_in_group(layout, Region.ALL, height)
    ]


def _sweep_shape(rng: np.random.Generator, peak_bin: int) -> np.ndarray:
    """Relative PDP in dB with its unique maximum (0 dB) at peak_bin."""
    window = CALIBRATION["noise_threshold_db"]
    rel = np.minimum(
        NOISE_FLOOR_DB + NOISE_SPREAD_DB * rng.standard_normal(N_BINS), NOISE_CEILING_DB
    )
    lag_ns = BIN_NS * np.arange(1, N_BINS - peak_bin)
    tail = TAIL_START_DB - TAIL_DB_PER_NS * lag_ns + TAIL_FADING_DB * rng.standard_normal(lag_ns.size)
    rel[peak_bin + 1:] = np.maximum(rel[peak_bin + 1:], np.minimum(tail, -1.0))
    rel[peak_bin] = 0.0
    # Keep every bin clear of the window edge, so that shifting the whole
    # profile by the link's received level cannot move a bin across it.
    rel[np.abs(rel + window) < 1e-3] -= 2e-3
    return rel


def write_pdp_tree(
    root: Path, layout: geometry.BusLayout, registry, seed: int
) -> list[Position]:
    """Write `<seat>_<height>/{meta.json,sweep_<k>.csv}` for every eligible link.

    Each position gets one shadowing draw from its group's built-in model at
    the distance the sounder resolves (the peak bin). Every sweep is scaled so
    that the power inside the noise window equals the position's received
    level, so the reduced path loss is the generated one up to rounding.
    """
    rng = np.random.default_rng(seed)
    window = CALIBRATION["noise_threshold_db"]
    eirp = CALIBRATION["radiated_power_db"] + CALIBRATION["g_tx_dbi"] + CALIBRATION["g_rx_dbi"]
    delay_text = [repr(v) for v in (BIN_NS * np.arange(N_BINS)).tolist()]
    truth = []
    for link in eligible_links(layout):
        peak_bin = round(link.distance_m / BIN_M)
        model = registry[(link.group, link.height)]
        loss = models.mean_path_loss(model, peak_bin * BIN_M) + model.sigma_db * float(
            rng.standard_normal()
        )
        set_dir = root / f"{link.seat}_{link.height.value}"
        set_dir.mkdir(parents=True)
        (set_dir / "meta.json").write_text(
            json.dumps({"seat": link.seat, "height": link.height.value}) + "\n"
        )
        for k in range(SWEEPS):
            rel = _sweep_shape(rng, peak_bin)
            kept = rel[rel >= -window]
            offset = eirp - loss - 10.0 * math.log10(float(np.sum(10.0 ** (kept / 10.0))))
            rows = [f"{d},{p!r}" for d, p in zip(delay_text, (rel + offset).tolist())]
            (set_dir / f"sweep_{k}.csv").write_text("delay_ns,power_db\n" + "\n".join(rows) + "\n")
        truth.append(Position(link, peak_bin, loss))
    return truth


# Hand-held and head-worn devices move around the seat: +-10 cm of jitter.
SAMPLE_JITTER_M = 0.1


def tagged_samples(layout: geometry.BusLayout, registry, n: int, seed: int) -> fit.SampleSet:
    """n shadow-faded samples at uniformly chosen eligible positions, fully tagged."""
    rng = np.random.default_rng(seed)
    links = eligible_links(layout)
    pick = rng.integers(len(links), size=n)
    params = np.array([
        (l.distance_m, m.alpha_db, m.beta, m.sigma_db)
        for l in links for m in [registry[(l.group, l.height)]]
    ])[pick]
    d = params[:, 0] + rng.uniform(-SAMPLE_JITTER_M, SAMPLE_JITTER_M, n)
    loss = params[:, 1] + 10.0 * params[:, 2] * np.log10(d) + params[:, 3] * rng.standard_normal(n)
    chosen = [links[i] for i in pick.tolist()]
    return fit.SampleSet(
        d, loss,
        seat=[l.seat for l in chosen],
        region=[l.group for l in chosen],
        height=[l.height for l in chosen],
    )


# Built-in model selectors the CLI accepts, e.g. "A/upper" or "All/lower".
SELECTORS = tuple(f"{r.value}/{h.value}" for r in Region for h in HeightClass)
EVAL_RANGE = "1:12:0.5"
CLI_KINDS = ("verify", "eval", "sweep_upper", "sweep_lower", "compare", "footprint", "synth")


def external_model(registry, seed: int) -> models.PathLossModel:
    """A perturbed copy of one built-in model, standing in for a published one."""
    rng = np.random.default_rng(seed)
    base = registry[(Region.ALL, HeightClass(rng.choice(["lower", "upper"])))]
    return models.PathLossModel(
        alpha_db=base.alpha_db + float(rng.uniform(-3.0, 3.0)),
        beta=base.beta + float(rng.uniform(-0.3, 0.3)),
        sigma_db=base.sigma_db,
    )


def cli_calls(n_calls: int, model_b: Path, seed: int) -> list[tuple[str, str | None, list[str]]]:
    """(kind, model selector or None, argv) for n_calls calls cycling CLI_KINDS."""
    rng = np.random.default_rng(seed)
    calls = []
    for i in range(n_calls):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        selector = SELECTORS[int(rng.integers(len(SELECTORS)))]
        call_seed = str(int(rng.integers(2**31)))
        argv = {
            "verify": ["verify"],
            "eval": ["eval", "--model", selector, "--distances", EVAL_RANGE],
            "sweep_upper": ["sweep", "--height", "upper", "--format", "json"],
            "sweep_lower": ["sweep", "--height", "lower", "--format", "csv"],
            "compare": ["compare", "--model-a", selector, "--model-b", str(model_b),
                        "--distances", EVAL_RANGE],
            "footprint": ["footprint", "--height", "upper", "--active", "14,2,22",
                          "--seed", call_seed, "--draws", "1000", "--format", "json"],
            "synth": ["synth", "--model", selector, "--height", selector.split("/")[1],
                      "--seed", call_seed],
        }[kind]
        calls.append((kind, selector if kind in ("eval", "compare", "synth") else None, argv))
    return calls
