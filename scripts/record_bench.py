"""Record the benchmark's meta and result lines for two checkouts in one file.

    python3 scripts/record_bench.py --parent <checkout> --change <checkout> \
        --seeds 101 102 103 --seconds 20 --traced-seeds 3 -o BENCH_<n>.json

Each seed is one pair of `perfbench/run.py --trace 0` runs per workload of
BENCHMARK.json, parent and change back to back, the first of the two
alternating from seed to seed, so that the drift of a shared host falls on
both alike. The first N seeds (`--traced-seeds N`, default 1) also make one
`--trace 1` pair per workload, alternating the same way. Each record keeps the
last two stdout lines of a run: the meta line and the result line. The file's
`summary` holds, per workload and per-layer metric of the traced pairs, each
side's median, the per-pair ratios change/parent and their median: traced
layer times are raw seconds, and a ratio within one pair cancels the host
drift that a single absolute number carries. The list of ratios shows whether
a layer target is resolved: a ±15% target is not when the ratios straddle it. Per workload and end-to-end
metric, stderr gets each side's quartiles, the number of pairs the change won,
and whether that shows a gain: the change won at least nine tenths of the
pairs, ties counting for neither, and its median is better than the parent's
by more than the parent's interquartile range. Then come the summary's time
layers.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    meta, result = map(json.loads, out.splitlines()[-2:])
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "meta": meta["meta"], "result": result}


def summarise(records: list[dict], layers: list[str]) -> dict:
    """{workload: {layer: {"parent", "change", "change_over_parent", "ratios",
    "pairs"}}} over the traced records, paired by workload and seed: each side's
    median value, the median over pairs of change/parent, and those ratios in
    seed order. A layer that reads 0 in every traced record of a workload is left
    out; a pair whose parent reads 0 gives no ratio, and a layer with no ratio has
    change_over_parent None."""
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for r in records:
        if r["trace"] == 1:
            pairs.setdefault(r["workload"], {}).setdefault(r["seed"], {})[r["checkout"]] = \
                r["result"]["metrics"]
    summary = {}
    for workload, by_seed in pairs.items():
        summary[workload] = {}
        for name in layers:
            values = [(by_seed[seed]["parent"][name]["value"],
                       by_seed[seed]["change"][name]["value"]) for seed in sorted(by_seed)]
            if not any(parent or change for parent, change in values):
                continue
            ratios = [change / parent for parent, change in values if parent]
            summary[workload][name] = {
                "parent": statistics.median(parent for parent, _ in values),
                "change": statistics.median(change for _, change in values),
                "change_over_parent": statistics.median(ratios) if ratios else None,
                "ratios": ratios,
                "pairs": len(values),
            }
    return summary


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values, interpolated linearly
    between order statistics as numpy's default percentile is."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The end-to-end judgement of one metric over pairs of runs (parent[i],
    change[i]): each side's quartiles, the pairs the change won (ties count for
    neither), the gap between the medians (positive when the change is better)
    and the parent's IQR, and whether the change shows a gain: it won at least
    nine tenths of the pairs and the gap is wider than the parent's IQR."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    gap = sign * (sides["parent"][1] - sides["change"][1])
    iqr = sides["parent"][2] - sides["parent"][0]
    return {**sides, "wins": wins, "pairs": len(parent), "gap": gap, "parent_iqr": iqr,
            "gain": 10 * wins >= 9 * len(parent) and gap > iqr}


def e2e_lines(records: list[dict], workloads: list[str], end_to_end: list[dict]) -> list[str]:
    """One line per workload and end-to-end metric of the untraced pairs: the
    verdict of the metric's change against its parent."""
    lines, records = [], sorted(records, key=lambda r: r["seed"])  # pairs by seed
    for w in workloads:
        for metric in end_to_end:
            name = metric["name"]
            parent, change = ([r["result"]["metrics"][name]["value"] for r in records
                               if (r["workload"], r["trace"], r["checkout"]) == (w, 0, label)]
                              for label in ("parent", "change"))
            v = verdict(parent, change, metric["better"])
            p, c = ("{:.4g} [{:.4g}, {:.4g}]".format(q[1], q[0], q[2])
                    for q in (v["parent"], v["change"]))
            lines.append(f"{w} {name}: median [quartiles] parent {p}, change {c} "
                         f"{metric['unit']}; change better in {v['wins']} of {v['pairs']} "
                         f"pairs; {'gain' if v['gain'] else 'no gain'} (median gap "
                         f"{v['gap']:.4g}, parent IQR {v['parent_iqr']:.4g})")
    return lines


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--traced-seeds", type=int, default=1, metavar="N",
                   help="traced pairs per workload, on the first N seeds (default 1)")
    p.add_argument("-o", "--output", type=Path, required=True)
    args = p.parse_args()
    if not 1 <= args.traced_seeds <= len(args.seeds):
        p.error(f"--traced-seeds must be in [1, {len(args.seeds)}] (the number of seeds)")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = [("parent", args.parent), ("change", args.change)]
    records = [{"checkout": label, **run(path, w, seed, args.seconds, trace)}
               for i, seed in enumerate(args.seeds)
               for trace in ((0, 1) if i < args.traced_seeds else (0,))
               for w in workloads for label, path in (sides if i % 2 == 0 else sides[::-1])]
    summary = summarise(records, [m["name"] for m in spec["per_layer"]])
    args.output.write_text(json.dumps({"records": records, "summary": summary}, indent=1) + "\n")

    for line in e2e_lines(records, workloads, spec["end_to_end"]):
        print(line, file=sys.stderr)
    for w, layers in summary.items():
        for name, v in layers.items():
            if name.endswith(".s") and v["change_over_parent"] is not None:
                print(f"{w} {name}: traced median parent {v['parent']:.4g}, change "
                      f"{v['change']:.4g} s; change/parent median {v['change_over_parent']:.3f} "
                      f"over {v['pairs']} pairs", file=sys.stderr)


if __name__ == "__main__":
    main()
