"""Acceptance gate: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test results.
"""

import json
import math
import time

import numpy as np
import pytest

from busloss.cli import main, verify_registry
from busloss.fit import fit_log_distance, synth_samples
from busloss.geometry import Point3, SeatSpec, BusLayout, link_distance
from busloss.linkbudget import (
    LinkBudgetConfig,
    interference_footprint,
    link_snr,
    noise_floor_dbm,
)
from busloss.models import (
    HeightClass,
    PathLossModel,
    Region,
    builtin_model,
    builtin_models,
    coverage_probability,
    mean_path_loss,
    sample_path_loss,
)
from busloss.pdp import delay_to_distance

TABLE_ROWS = {
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


def report(num: int, passed: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, f"criterion {num} failed: {text}"


def test_criterion_1_registry_exactness():
    start = time.monotonic()
    models = {(m.region, m.height): (m.alpha_db, m.beta, m.sigma_db)
              for m in builtin_models()}
    ok = models == TABLE_ROWS and len(builtin_models()) == 10
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0,
           f"registry reproduces all 10 rows bit-exactly ({elapsed:.3f}s)")


def test_criterion_2_combined_form_consistency(capsys):
    start = time.monotonic()
    ok, rows = verify_registry()
    code = main(["verify", "--output", "-"])
    captured = capsys.readouterr()
    elapsed = time.monotonic() - start
    lower = builtin_model(Region.ALL, HeightClass.LOWER)
    upper = builtin_model(Region.ALL, HeightClass.UPPER)
    checks = [
        abs(10 * lower.beta - 17.40) <= 0.05,
        abs(lower.sigma_db**2 - 6.45) <= 0.06,
        abs(10 * upper.beta - 20.30) <= 0.05,
        abs(upper.sigma_db**2 - 5.48) <= 0.03,
        round(lower.alpha_db, 1) == 85.2,
        round(upper.alpha_db, 1) == 82.9,
        code == 0,
        ok,
    ]
    report(2, all(checks) and elapsed < 1.0,
           f"pooled models match the published combined forms ({elapsed:.3f}s)")


def test_criterion_3_delay_to_distance():
    start = time.monotonic()
    d = delay_to_distance(13.5)
    elapsed = time.monotonic() - start
    ok = abs(d - 4.047) <= 0.005 and round(d, 2) == 4.05
    report(3, ok and elapsed < 1.0, f"13.5 ns -> {d:.4f} m ({elapsed:.3f}s)")


def test_criterion_4_fit_round_trip_statistical():
    # The tolerances must each span at least MIN_SES standard errors of every fit:
    # the fit's own alpha_se_db and beta_se, and sigma/sqrt(2(n-2)) for sigma.
    MIN_SES = 2.5
    start = time.monotonic()
    all_ok = True
    details = []
    widths = []
    for model in builtin_models():
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            distances = rng.uniform(1.0, 12.0, 10**4)
            result = fit_log_distance(synth_samples(model, distances, seed=seed))
            fitted = result.model
            widths.append((0.3 / result.alpha_se_db, 0.07 / result.beta_se,
                           0.06 * math.sqrt(2 * (result.n - 2)) / fitted.sigma_db))
            if (abs(fitted.alpha_db - model.alpha_db) <= 0.3
                    and abs(fitted.beta - model.beta) <= 0.07
                    and abs(fitted.sigma_db - model.sigma_db) <= 0.06):
                hits += 1
        details.append(f"{model.region.value}/{model.height.value}:{hits}")
        all_ok = all_ok and hits >= 95
    narrowest = np.min(widths, axis=0)
    elapsed = time.monotonic() - start
    report(4, all_ok and bool(np.all(narrowest >= MIN_SES)) and elapsed < 30.0,
           f"round-trip hits per model [{', '.join(details)}]; tolerances span at least "
           f"{narrowest[0]:.2f}/{narrowest[1]:.2f}/{narrowest[2]:.2f} SEs of "
           f"alpha/beta/sigma ({elapsed:.1f}s)")


def test_criterion_5_noiseless_fit_exactness():
    start = time.monotonic()
    ok = True
    for model in builtin_models():
        exact = PathLossModel(model.alpha_db, model.beta, 0.0,
                              region=model.region, height=model.height)
        fitted = fit_log_distance(
            synth_samples(exact, [1.0, 2.0, 4.0, 8.0, 12.0], seed=0)
        ).model
        ok = ok and abs(fitted.alpha_db - model.alpha_db) <= 1e-9 * abs(model.alpha_db)
        ok = ok and abs(fitted.beta - model.beta) <= 1e-9 * abs(model.beta)
    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 1.0,
           f"sigma=0 refit exact to 1e-9 relative for all 10 models ({elapsed:.3f}s)")


def test_criterion_6_coverage_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    models = builtin_models()
    worst = 0.0
    ok = True
    for _ in range(20):
        model = models[rng.integers(len(models))]
        d = float(rng.uniform(1.0, 12.0))
        l_max = mean_path_loss(model, d) + float(rng.uniform(-2.5, 2.5)) * model.sigma_db
        draws = sample_path_loss(model, d, rng, size=10**6)
        empirical = float(np.mean(draws <= l_max))
        analytic = coverage_probability(model, d, l_max)
        gap = abs(empirical - analytic)
        worst = max(worst, gap)
        ok = ok and gap <= 0.005
    elapsed = time.monotonic() - start
    report(6, ok and elapsed < 60.0,
           f"20 triples, worst |empirical - analytic| = {worst:.5f} ({elapsed:.1f}s)")


def test_criterion_7_end_to_end_pipeline(tmp_path, capsys):
    start = time.monotonic()
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "alpha_db": 82.86, "beta": 2.03, "sigma_db": 0.0,
        "region": "All", "height": "upper",
    }))
    cal_path = tmp_path / "cal.json"
    cal_path.write_text(json.dumps({
        "radiated_power_db": 0.0, "g_tx_dbi": 2.0, "g_rx_dbi": 2.0,
    }))
    pdp_dir = tmp_path / "pdp"
    samples_path = tmp_path / "samples.csv"
    fit_path = tmp_path / "fit.json"
    codes = [
        main(["synth", "--model", str(model_path), "--height", "upper",
              "--seed", "1", "--pdp-dir", str(pdp_dir), "--calibration", str(cal_path)]),
        main(["process", str(pdp_dir), str(cal_path), "--output", str(samples_path)]),
        main(["fit", str(samples_path), "--output", str(fit_path)]),
    ]
    capsys.readouterr()
    result = json.loads(fit_path.read_text())
    elapsed = time.monotonic() - start
    ok = (codes == [0, 0, 0]
          and round(result["alpha_db"], 2) == 82.86
          and round(result["beta"], 2) == 2.03)
    report(7, ok and elapsed < 10.0,
           f"synth -> process -> fit recovers (82.86, 2.03) ({elapsed:.1f}s)")


def test_criterion_8_footprint_sanity():
    start = time.monotonic()
    layout = BusLayout(
        length_m=12.80, width_m=2.55, rx=Point3(0.5, 1.275, 2.0),
        seats=[
            SeatSpec(1, 4.0, 1.0, 0.5, Region.A),
            SeatSpec(2, 4.0, 1.55, 0.5, Region.A),
        ],
    )
    model = PathLossModel(82.86, 2.03, 0.0, region=Region.A, height=HeightClass.UPPER)
    models = {(Region.A, HeightClass.UPPER): model}
    config = LinkBudgetConfig()
    summaries = interference_footprint(
        layout, models, config, [1, 2], HeightClass.UPPER, seed=0, n_draws=100
    )
    d = link_distance(layout, 1, HeightClass.UPPER)
    pl = mean_path_loss(model, d)
    snr = link_snr(config, pl)
    s_mw = 10 ** ((config.tx_power_dbm + config.g_tx_dbi + config.g_rx_dbi - pl) / 10)
    n_mw = 10 ** (noise_floor_dbm(config) / 10)
    expected = 10 * math.log10(s_mw / (n_mw + s_mw))
    elapsed = time.monotonic() - start
    ok = (abs(summaries[0].mean_db - summaries[1].mean_db) <= 1e-9
          and all(abs(s.mean_db - expected) <= 1e-9 for s in summaries)
          and all(s.mean_db < snr for s in summaries))
    report(8, ok and elapsed < 5.0,
           f"two equal interferers: SINR {summaries[0].mean_db:.4f} dB, "
           f"closed form {expected:.4f} dB, single-link SNR {snr:.4f} dB ({elapsed:.1f}s)")


def test_criterion_9_no_reference_model_parameters(tmp_path, capsys):
    # no comparison baseline ships with the package: the registry holds only
    # the ten in-bus parameter sets, and compare requires a user-supplied file
    code_builtin_b = main([
        "compare", "--model-a", "All/upper", "--model-b", "All/lower",
        "--distances", "1:10:1",
    ])
    capsys.readouterr()
    other = tmp_path / "external.json"
    other.write_text(json.dumps(
        {"alpha_db": 79.0, "beta": 2.0, "sigma_db": 2.0, "region": None, "height": None}
    ))
    code_external = main([
        "compare", "--model-a", "All/upper", "--model-b", str(other),
        "--distances", "1:10:1",
    ])
    capsys.readouterr()
    from busloss.models import builtin_models

    only_in_bus_sets = len(builtin_models()) == 10
    ok = code_builtin_b == 2 and code_external == 0 and only_in_bus_sets
    report(9, ok, "comparison baseline requires an external user-supplied model")
