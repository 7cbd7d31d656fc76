"""The four benchmark workloads: seeded set-up, one closed-loop iteration, checks.

Each workload drives busloss from one process with one client: a step starts
when the previous one returns. `run()` times the steps back to back and
checks their outputs afterwards, outside the timed region. CLI steps call
`busloss.cli.main` in-process with the generated files and argv only.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import busloss.cli
import busloss.fit
import busloss.linkbudget
from busloss import geometry, models
from busloss.models import HeightClass, Region

import inputs
import oracle

SHIPPED_LAYOUT = Path("src/busloss/data/default_layout.json")
FIT_TOLERANCE = 1e-9  # closed-form OLS vs the program's fit, dB and dB/dB
Z_FIT = 5.0  # standard errors allowed between a fit and its generating model


@dataclass
class Iteration:
    """(name, seconds) of each step in order, and one message per failed step.

    Steps that share a name do the same work: the same call on inputs of the
    same size.
    """

    ops: list[tuple[str, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.ops)


def run_cli(argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = busloss.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed step, not a crashed run
            code = -1
            traceback.print_exc()
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def run_call(fn, *args) -> tuple[float, object, str]:
    """(seconds, result, error text) of one in-process library call."""
    start = perf_counter()
    try:
        result, error = fn(*args), ""
    except Exception:
        result, error = None, traceback.format_exc()
    return perf_counter() - start, result, error


def _cli_failure(step: str, code: int, err: str) -> str | None:
    return None if code == 0 else f"{step}: exit code {code}: {err.strip()[-300:]}"


def _checked(step: str, check) -> str | None:
    """Run one output check; a parse error is a failed check, not a crash."""
    try:
        return check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{step}: unreadable output ({type(exc).__name__}: {exc})"


def _parse_cell(name: str) -> tuple[Region, HeightClass]:
    region, height = name.split("/")
    return Region(region), HeightClass(height)


def _fit_mismatch(cell: str, got: dict, ref: oracle.Ols) -> str | None:
    if got["n"] != ref.n:
        return f"fit {cell}: n {got['n']} != {ref.n}"
    for key, want in (("alpha_db", ref.alpha), ("beta", ref.beta), ("sigma_db", ref.sigma)):
        if not abs(got[key] - want) <= FIT_TOLERANCE:
            return f"fit {cell}: {key} {got[key]!r} != closed-form OLS {want!r}"
    return None


def _expected_cells(distance, region, height) -> tuple[dict, set]:
    """Cell name -> mask for every fittable cell, and the cells to be skipped,
    following fit_by_partition's contract: regions A-D plus All per height."""
    cells, skipped = {}, set()
    for h in HeightClass:
        in_height = height == h.value
        for r in (Region.A, Region.B, Region.C, Region.D, Region.ALL):
            mask = in_height if r == Region.ALL else in_height & (region == r.value)
            if not mask.any():
                continue
            if oracle.fittable(distance[mask]):
                cells[f"{r.value}/{h.value}"] = mask
            else:
                skipped.add((r.value, h.value))
    return cells, skipped


class PdpIngest:
    """`process` a seeded PDP tree of every eligible position, then `fit --by-group`."""

    name = "pdp_ingest"
    unit = "PDP bins"

    def __init__(self, work: Path, seed: int, full: bool = True):
        layout = geometry.default_layout()
        self.tree, self.cal = work / "tree", work / "cal.json"
        self.samples_csv, self.fit_json = work / "samples.csv", work / "fit.json"
        positions = len(inputs.eligible_links(layout))
        self.items = positions * inputs.SWEEPS * inputs.N_BINS
        self.sizes = {"positions": positions, "sweeps": inputs.SWEEPS,
                      "bins_per_sweep": inputs.N_BINS, "bins": self.items}
        if full:
            self.registry = models.builtin_registry()
            self.truth = inputs.write_pdp_tree(self.tree, layout, self.registry, seed)
            self.cal.write_text(json.dumps(inputs.CALIBRATION) + "\n")

    def run(self, check: bool = True) -> Iteration:
        t1, c1, _, e1 = run_cli(["process", str(self.tree), str(self.cal), "--layout",
                                 str(SHIPPED_LAYOUT), "-o", str(self.samples_csv)])
        t2, c2, _, e2 = run_cli(["fit", str(self.samples_csv), "--by-group",
                                 "-o", str(self.fit_json)])
        it = Iteration([("process", t1), ("fit", t2)])
        if check:
            failures = (_cli_failure("process", c1, e1) or _checked("process", self._check_samples),
                        _cli_failure("fit", c2, e2) or _checked("fit", self._check_fit))
            it.failures += [f for f in failures if f]
        return it

    def _samples(self) -> list[dict]:
        return list(csv.DictReader(io.StringIO(self.samples_csv.read_text())))

    def _check_samples(self) -> str | None:
        rows = {(int(r["seat"]), r["height"]): r for r in self._samples()}
        if len(rows) != len(self.truth):
            return f"process: {len(rows)} positions, expected {len(self.truth)}"
        for pos in self.truth:
            row = rows[(pos.link.seat, pos.link.height.value)]
            where = f"process: seat {pos.link.seat} {pos.link.height.value}"
            if not abs(float(row["distance_m"]) - pos.link.distance_m) <= inputs.BIN_M:
                return f"{where}: distance {row['distance_m']} not within one bin of {pos.link.distance_m}"
            if not abs(float(row["path_loss_db"]) - pos.path_loss_db) <= 1e-6:
                return f"{where}: path loss {row['path_loss_db']} != generated {pos.path_loss_db}"
            if row["region"] != pos.link.group.value:
                return f"{where}: region {row['region']} != {pos.link.group.value}"
        return None

    def _check_fit(self) -> str | None:
        rows = self._samples()
        d = np.array([float(r["distance_m"]) for r in rows])
        pl = np.array([float(r["path_loss_db"]) for r in rows])
        cells, skipped = _expected_cells(d, np.array([r["region"] for r in rows]),
                                         np.array([r["height"] for r in rows]))
        out = json.loads(self.fit_json.read_text())
        got_skipped = {(s["region"], s["height"]) for s in out.pop("skipped", [])}
        if set(out) != set(cells) or got_skipped != skipped:
            return f"fit: cells {sorted(out)} skipped {sorted(got_skipped)}, expected {sorted(cells)} skipped {sorted(skipped)}"
        for name, mask in cells.items():
            ref = oracle.ols(d[mask], pl[mask])
            mismatch = _fit_mismatch(name, out[name], ref)
            if mismatch:
                return mismatch
            region, height = _parse_cell(name)
            if region == Region.ALL:  # pools four generating models
                continue
            truth = self.registry[(region, height)]
            se_alpha, se_beta = ref.se(truth.sigma_db)
            if not (abs(out[name]["alpha_db"] - truth.alpha_db) <= Z_FIT * se_alpha
                    and abs(out[name]["beta"] - truth.beta) <= Z_FIT * se_beta):
                return (f"fit {name}: ({out[name]['alpha_db']}, {out[name]['beta']}) is more than "
                        f"{Z_FIT} SE from the generating ({truth.alpha_db}, {truth.beta})")
        return None


class SampleRoundtrip:
    """Write tagged samples with `fit.samples_to_csv`, then `fit --by-group` them."""

    name = "sample_roundtrip"
    unit = "samples"
    N_SAMPLES = 200_000

    def __init__(self, work: Path, seed: int, full: bool = True):
        self.csv, self.fit_json = work / "samples.csv", work / "fit.json"
        self.samples = inputs.tagged_samples(
            geometry.default_layout(), models.builtin_registry(), self.N_SAMPLES, seed)
        self.items = self.N_SAMPLES
        self.sizes = {"samples": self.N_SAMPLES}
        if full:
            s = self.samples
            cells, _ = _expected_cells(
                s.distance_m, np.array([r.value for r in s.region]),
                np.array([h.value for h in s.height]))
            self.expected = {name: oracle.ols(s.distance_m[m], s.path_loss_db[m])
                             for name, m in cells.items()}

    def _write(self) -> str:
        text = busloss.fit.samples_to_csv(self.samples)
        self.csv.write_text(text)
        return text

    def run(self, check: bool = True) -> Iteration:
        t1, text, error = run_call(self._write)
        t2, code, _, err = run_cli(["fit", str(self.csv), "--by-group", "-o", str(self.fit_json)])
        it = Iteration([("samples_to_csv", t1), ("fit", t2)])
        if check:
            failures = (f"samples_to_csv: {error}" if error
                        else _checked("samples_to_csv", lambda: self._check_csv(text)),
                        _cli_failure("fit", code, err) or _checked("fit", self._check_fit))
            it.failures += [f for f in failures if f]
        return it

    def _check_csv(self, text: str) -> str | None:
        lines = text.split("\n")
        s = self.samples
        if lines[0] != "distance_m,path_loss_db,seat,region,height" or len(lines) != len(s) + 2:
            return f"samples_to_csv: header {lines[0]!r} and {len(lines) - 2} rows"
        for i, line in ((0, lines[1]), (len(s) - 1, lines[-2])):
            want = [s.distance_m[i], s.path_loss_db[i], str(s.seat[i]), s.region[i].value,
                    s.height[i].value]
            cells = line.split(",")
            if [float(cells[0]), float(cells[1]), *cells[2:]] != want:
                return f"samples_to_csv: row {i} {line!r} does not round-trip {want}"
        return None

    def _check_fit(self) -> str | None:
        out = json.loads(self.fit_json.read_text())
        if set(out) != set(self.expected):
            return f"fit: cells {sorted(out)}, expected {sorted(self.expected)}"
        for name, ref in self.expected.items():
            mismatch = _fit_mismatch(name, out[name], ref)
            if mismatch:
                return mismatch
        return None


class MonteCarlo:
    """`footprint` of all 30 upper seats, then `empirical_coverage` at both heights."""

    name = "monte_carlo"
    unit = "draw-links"
    DRAWS = 500_000
    # Coverage runs 15 dB above the CLI default transmit power, so the
    # per-seat probabilities spread across (0, 1) instead of sitting near 0.
    COVERAGE_TX_DBM = 25.0

    def __init__(self, work: Path, seed: int, full: bool = True):
        self.layout, self.registry = geometry.default_layout(), models.builtin_registry()
        rng = np.random.default_rng(seed)
        footprint_seed, *coverage_seeds = (int(v) for v in rng.integers(2**31, size=3))
        self.out = work / "footprint.json"
        self.active = geometry.seats_in_group(self.layout, Region.ALL, HeightClass.UPPER)
        self.argv = ["footprint", "--height", "upper", "--active", ",".join(map(str, self.active)),
                     "--seed", str(footprint_seed), "--draws", str(self.DRAWS),
                     "--format", "json", "-o", str(self.out)]
        self.coverage_config = busloss.linkbudget.LinkBudgetConfig(tx_power_dbm=self.COVERAGE_TX_DBM)
        self.coverage_runs = list(zip((HeightClass.UPPER, HeightClass.LOWER), coverage_seeds))
        links = inputs.eligible_links(self.layout)
        self.items = self.DRAWS * (len(self.active) + len(links))
        self.sizes = {"draws": self.DRAWS, "footprint_links": len(self.active),
                      "coverage_links": len(links), "draw_links": self.items}
        if full:
            upper = {l.seat: l for l in links if l.height == HeightClass.UPPER}
            footprint_models = [self.registry[(upper[s].group, HeightClass.UPPER)] for s in self.active]
            self.reference = oracle.footprint(
                [models.mean_path_loss(m, upper[s].distance_m) for m, s in zip(footprint_models, self.active)],
                [m.sigma_db for m in footprint_models],
                busloss.linkbudget.LinkBudgetConfig(), footprint_seed, self.DRAWS)
            cfg = self.coverage_config
            pl_max = (cfg.tx_power_dbm + cfg.g_tx_dbi + cfg.g_rx_dbi - cfg.snr_threshold_db
                      - (oracle.THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(cfg.bandwidth_hz)
                         + cfg.noise_figure_db))
            self.coverage = {
                h: {l.seat: models.coverage_probability(self.registry[(l.group, h)], l.distance_m, pl_max)
                    for l in links if l.height == h}
                for h in (HeightClass.UPPER, HeightClass.LOWER)
            }

    def run(self, check: bool = True) -> Iteration:
        t, code, _, err = run_cli(self.argv)
        it = Iteration([("footprint", t)])
        results = []
        for height, seed in self.coverage_runs:
            t, fractions, error = run_call(
                busloss.linkbudget.empirical_coverage, self.layout, self.registry,
                self.coverage_config, height, seed, self.DRAWS)
            it.ops.append((f"coverage_{height.value}", t))
            results.append((height, fractions, error))
        if check:
            failures = [_cli_failure("footprint", code, err) or _checked("footprint", self._check_footprint)]
            failures += [f"coverage {h.value}: {error}" if error else self._check_coverage(h, fractions)
                         for h, fractions, error in results]
            it.failures += [f for f in failures if f]
        return it

    def _check_footprint(self) -> str | None:
        rows = json.loads(self.out.read_text())
        if [r["seat"] for r in rows] != self.active:
            return f"footprint: seats {[r['seat'] for r in rows]} != {self.active}"
        for row, ref in zip(rows, self.reference):
            got = (row["sinr_mean_db"], row["sinr_median_db"], row["sinr_p05_db"])
            if not all(abs(g - r) <= FIT_TOLERANCE for g, r in zip(got, ref)):
                return f"footprint: seat {row['seat']} summary {got} != reference {ref}"
        return None

    def _check_coverage(self, height: HeightClass, fractions: dict) -> str | None:
        expected = self.coverage[height]
        if set(fractions) != set(expected):
            return f"coverage {height.value}: seats {sorted(fractions)} != {sorted(expected)}"
        for seat, p in expected.items():
            if not abs(fractions[seat] - p) <= oracle.coverage_tolerance(p, self.DRAWS):
                return (f"coverage {height.value}: seat {seat} fraction {fractions[seat]} is more "
                        f"than 5 binomial SE from {p}")
        return None


class CliCalls:
    """1,400 small in-process `cli.main` calls cycling seven subcommands."""

    name = "cli_calls"
    unit = "calls"
    N_CALLS = 1400

    def __init__(self, work: Path, seed: int, full: bool = True):
        rng = np.random.default_rng(seed)
        model_seed, calls_seed = (int(v) for v in rng.integers(2**31, size=2))
        self.registry = models.builtin_registry()
        self.model_b = inputs.external_model(self.registry, model_seed)
        model_b_path = work / "model_b.json"
        if full:
            model_b_path.write_text(models.model_to_json(self.model_b) + "\n")
        self.calls = inputs.cli_calls(self.N_CALLS, model_b_path, calls_seed)
        self.items = self.N_CALLS
        self.sizes = {"calls": self.N_CALLS, "kinds": len(inputs.CLI_KINDS)}
        layout = geometry.default_layout()
        self.seats = {h: geometry.seats_in_group(layout, Region.ALL, h) for h in HeightClass}

    def run(self, check: bool = True) -> Iteration:
        it = Iteration()
        for kind, selector, argv in self.calls:
            t, code, out, err = run_cli(argv)
            it.ops.append((kind, t))
            if check:
                failure = _cli_failure(kind, code, err) or _checked(
                    kind, lambda: self._check(kind, selector, out))
                if failure:
                    it.failures.append(failure)
        return it

    def _table(self, out: str, header: str, n_rows: int) -> list[list[str]]:
        rows = list(csv.reader(io.StringIO(out)))
        if ",".join(rows[0]) != header or len(rows) != n_rows + 1:
            raise ValueError(f"header {rows[0]} and {len(rows) - 1} rows, expected {header} "
                             f"and {n_rows}")
        return rows[1:]

    def _check(self, kind: str, selector: str | None, out: str) -> str | None:
        start, stop, step = (float(v) for v in inputs.EVAL_RANGE.split(":"))
        grid = np.arange(start, stop + step / 2, step)
        if kind == "verify":
            rows = out.splitlines()[1:]
            if len(rows) != 6 or not all(r.endswith("PASS") for r in rows):
                return f"verify: {out!r}"
        elif kind in ("eval", "compare"):
            model = self.registry[_parse_cell(selector)]
            mean = model.alpha_db + 10.0 * model.beta * np.log10(grid)
            if kind == "eval":
                table = np.array(self._table(out, "distance_m,mean_pl_db,p05_db,p95_db", len(grid)), float)
                want = np.column_stack([grid, mean, mean - 1.644854 * model.sigma_db,
                                        mean + 1.644854 * model.sigma_db])
            else:
                b = self.model_b
                table = np.array(self._table(out, "distance_m,delta_db", len(grid)), float)
                want = np.column_stack([grid, mean - (b.alpha_db + 10.0 * b.beta * np.log10(grid))])
            if not np.all(np.abs(table - want) <= 5e-4):
                return f"{kind} {selector}: values differ from the model by more than 5e-4 dB"
        elif kind == "sweep_upper":
            seats = [r["seat"] for r in json.loads(out)]
            if seats != self.seats[HeightClass.UPPER]:
                return f"sweep upper: seats {seats}"
        elif kind == "sweep_lower":
            rows = self._table(out, "seat,height,distance_m,mean_pl_db,snr_db,rate_bps,coverage",
                               len(self.seats[HeightClass.LOWER]))
            if [int(r[0]) for r in rows] != self.seats[HeightClass.LOWER]:
                return "sweep lower: wrong seats"
        elif kind == "footprint":
            rows = json.loads(out)
            if [r["seat"] for r in rows] != [14, 2, 22] or not all(
                    math.isfinite(r[k]) for r in rows for k in ("sinr_mean_db", "sinr_median_db", "sinr_p05_db")):
                return f"footprint: {rows}"
        elif kind == "synth":
            height = HeightClass(selector.split("/")[1])
            rows = self._table(out, "distance_m,path_loss_db,seat,region,height", len(self.seats[height]))
            if [int(r[2]) for r in rows] != self.seats[height] or any(float(r[0]) <= 0 for r in rows):
                return f"synth {selector}: wrong seats or distances"
        return None


WORKLOADS = {w.name: w for w in (PdpIngest, SampleRoundtrip, MonteCarlo, CliCalls)}
