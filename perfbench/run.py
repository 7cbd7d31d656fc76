"""Benchmark runner for busloss: four seeded workloads, timed end to end and per layer.

Run from the root of a busloss checkout:

    python3 perfbench/run.py --workload pdp_ingest --seed 1 --seconds 15 --trace 0

--trace 0 reports the `end_to_end` metrics of BENCHMARK.json, --trace 1 its
`per_layer` metrics from a run that alternates untraced and traced
iterations. Stdout ends with a metadata line and then one JSON object with
the keys correct, attempted, failed and metrics. Scratch files live under
.perfbench_work/ in the checkout and are removed before exit.
"""

from __future__ import annotations

import os

# One client, one thread: pin the BLAS/OpenMP pools before numpy loads. The
# setting is inherited by the set-up and peak-RSS child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

# `setup_s`: a cold interpreter until busloss is imported and the shipped
# layout and model registry are built, which every CLI invocation pays.
SETUP_CODE = "import busloss; busloss.default_layout(); busloss.builtin_registry()"
# Host-speed reference: a cold interpreter that imports numpy and no busloss
# code. The speed of a shared host drifts by up to 2x over minutes; times are
# scaled to the speed at which this launch takes REFERENCE_S (README.md).
REFERENCE_CODE = "import numpy"
REFERENCE_S = 0.1
LAUNCH_PAIRS = 11
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rss-child", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "busloss").rglob("*")
                       if p.is_file() and p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def quantile(values, q: float) -> float:
    return float(np.percentile(values, 100.0 * q))


def median(values) -> float:
    return float(statistics.median(values))


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        self.messages += failures[: max(0, 5 - len(self.messages))]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def launch(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start, proc


def launch_code(code: str, tally: Tally) -> float:
    """Wall seconds of one cold `python -c code`; the bytecode cache is
    already warm, as the parent imported busloss, which is how users run it."""
    seconds, proc = launch([sys.executable, "-c", code])
    tally.add(1, [f"launch {code!r}: exit code {proc.returncode}: {proc.stderr[-300:]}"]
              if proc.returncode else [])
    return seconds


def measure_peak_rss(args, work: Path, tally: Tally) -> float:
    """Peak RSS in MB of a fresh child that runs one iteration of the workload."""
    _, proc = launch([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", "0", "--rss-child", str(work)])
    try:
        kb = json.loads(proc.stdout.splitlines()[-1])["maxrss_kb"]
    except (IndexError, ValueError, KeyError):
        tally.add(1, [f"peak-RSS child: exit code {proc.returncode}: {proc.stderr[-300:]}"])
        return 0.0
    tally.add(1, [])
    return kb / 1024.0


def best_steps(iterations) -> np.ndarray:
    """Seconds of each step of one iteration, each at the fastest that any
    step of its name reached in the run.

    Steps of one name repeat the same work, and other tenants of a shared
    host only ever add time, so the minimum over repeats is the steady
    estimate of a step's cost (the `timeit` practice). Medians moved 17-37%
    between runs on a 2-core shared host; see README.md.
    """
    best = {}
    for it in iterations:
        for name, seconds in it.ops:
            best[name] = min(seconds, best.get(name, math.inf))
    return np.array([best[name] for name, _ in iterations[0].ops])


def host_factor(launches) -> float:
    """REFERENCE_S over the fastest reference launch of the run: the factor
    that scales this run's times to the reference host speed."""
    return REFERENCE_S / min(ref for _, ref in launches)


def e2e_metrics(wl, iterations, launches, peak_rss_mb) -> dict:
    """End-to-end metrics, with times scaled to the reference host speed.
    Each set-up launch is scaled by the reference launch right after it."""
    steps = best_steps(iterations) * host_factor(launches)
    e2e = float(steps.sum())
    return {
        "setup_s": REFERENCE_S * median([setup / ref for setup, ref in launches]),
        "e2e_s": e2e,
        "items_per_s": wl.items / e2e,
        "call_ms_p50": 1000.0 * quantile(steps, 0.5),
        "call_ms_p90": 1000.0 * quantile(steps, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_value(summary: dict, name: str) -> float:
    """`<module>.<function>.<field>` of one traced iteration's summary."""
    layer, _, field = name.rpartition(".")
    row = summary["layers"][layer]
    if field == "bins_per_s":
        return row.get("bins", 0) / row["s"] if row["s"] else 0.0
    if field == "fitted_ratio":
        fitted = row.get("cells_fitted", 0)
        total = fitted + row.get("cells_skipped", 0)
        return fitted / total if total else 0.0
    return row.get(field, 0)


# Per-layer metrics that describe the whole traced run rather than one layer.
RUN_LEVEL = ("trace_overhead_frac", "toplevel_frac", "error_rate")


def layer_metrics(names, untraced, traced, tally: Tally) -> dict:
    """Per-layer values of the fastest traced iteration; errors are the most
    any traced iteration saw."""
    fastest_it, fastest = min(traced, key=lambda pair: pair[0].seconds)
    out = {name: (max(layer_value(s, name) for _, s in traced) if name.endswith(".errors")
                  else layer_value(fastest, name))
           for name in names if name not in RUN_LEVEL}
    # Each traced iteration runs right after an untraced one, so comparing
    # the two within a pair cancels the host's slow drift in speed.
    out["trace_overhead_frac"] = median(
        [it.seconds / before.seconds for before, (it, _) in zip(untraced, traced)]) - 1.0
    out["toplevel_frac"] = fastest["toplevel_s"] / fastest_it.seconds
    out["error_rate"] = tally.failed / tally.attempted
    return out


def check_spec(spec: dict) -> None:
    """Fail before any work if BENCHMARK.json names a metric this file lacks."""
    e2e = {"setup_s", "e2e_s", "items_per_s", "call_ms_p50", "call_ms_p90", "peak_rss_mb"}
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in e2e]
    for m in spec["per_layer"]:
        layer = m["name"].rpartition(".")[0]
        if m["name"] not in RUN_LEVEL and layer not in spans.LAYERS:
            missing.append(m["name"])
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names unknown metrics {missing}")


def run_loop(wl, seconds: float, tally: Tally, tracer=None, between=None):
    """Iterate for `seconds`; with a tracer, alternate untraced and traced
    iterations and return both lists. `between` runs after each untraced
    iteration, outside the timed steps."""
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while not untraced or (tracer and not traced) or perf_counter() < deadline:
        if tracer is None or len(untraced) <= len(traced):
            it = wl.run()
            untraced.append(it)
            if between is not None:
                between()
        else:
            with tracer.installed():
                it = wl.run()
            traced.append((it, spans.summarise(tracer.take())))
        tally.add(len(it.ops), it.failures)
    return untraced, traced


def rss_child(args, workload) -> int:
    workload(Path(args.rss_child), args.seed, full=False).run(check=False)
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


def measure(args, workload, spec: dict, work: Path) -> tuple[dict, dict]:
    tally = Tally()
    start = perf_counter()
    wl = workload(work, args.seed)
    input_s = perf_counter() - start
    launches = []  # (set-up seconds, reference seconds), launched back to back
    if args.trace:
        untraced, traced = run_loop(wl, args.seconds, tally, spans.Tracer())
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, untraced, traced, tally)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        peak_rss_mb = measure_peak_rss(args, work, tally)
        # Launch pairs follow the iterations, one pair after each, so that
        # they sample the host across the whole run; the rest run at the end.
        def launch_pair():
            if len(launches) < LAUNCH_PAIRS:
                launches.append((launch_code(SETUP_CODE, tally), launch_code(REFERENCE_CODE, tally)))

        untraced, traced = run_loop(wl, args.seconds, tally, between=launch_pair)
        while len(launches) < LAUNCH_PAIRS:
            launch_pair()
        values = e2e_metrics(wl, untraced, launches, peak_rss_mb)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "sizes": wl.sizes, "items_per_iteration": wl.items, "item_unit": wl.unit,
        "iteration_s": [it.seconds for it in untraced],
        "raw_e2e_s": float(best_steps(untraced).sum()),
        "host_factor": host_factor(launches) if launches else None,
        "launch_pairs_s": launches,
        "traced_iteration_s": [it.seconds for it, _ in traced],
        "input_generation_s": input_s, "failures": tally.messages,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, meta


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "busloss" / "__init__.py").is_file() or not SPEC.is_file():
        print("error: run from the root of a busloss checkout "
              "(needs src/busloss and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports busloss, so only once src/ is on the path

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.rss_child:
        return rss_child(args, WORKLOADS[args.workload])
    spec = json.loads(SPEC.read_text())
    check_spec(spec)

    # On SIGTERM, unwind normally: subprocess.run kills and waits for its
    # child, and the scratch directory is removed below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, meta = measure(args, WORKLOADS[args.workload], spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
