"""Record the benchmark's meta and result lines for two or three checkouts in one file.

    python3 scripts/record_bench.py --parent <checkout> --change <checkout> \
        [--baseline <checkout>] --seeds 101 102 103 --seconds 20 --traced-seeds 3 \
        -o BENCH_<n>.json

Each seed is one pair of `perfbench/run.py --trace 0` runs per workload of
BENCHMARK.json, parent and change back to back, the first of the two
alternating from seed to seed, so that the drift of a shared host falls on
both alike. A `--baseline` checkout, a fixed older anchor, runs on the same
seeds; the order of the three rotates from seed to seed (`slot_order`), so
that over each three seeds every checkout runs once first, once second and
once last. A run of changes, each slower than its parent by less than the
noise, shows against the anchor; the change is judged against it as against
the parent. The first N seeds (`--traced-seeds N`, default 1) also make one
`--trace 1` pair (or triple) per workload, in the same order. Each record keeps the
last two stdout lines of a run: the meta line and the result line. The file's
`summary` holds, per workload and per-layer metric of the traced pairs, each
side's median, the per-pair ratios change/parent (and change/baseline) and
their median: traced layer times are raw seconds, and a ratio within one pair
cancels the host drift that a single absolute number carries. The list of
ratios shows whether a layer target is resolved: a ±15% target is not when the
ratios straddle it. Per workload and end-to-end metric, stderr gets each
side's quartiles, the number of pairs the change won, and whether that shows a
gain: the change won at least nine tenths of the pairs, ties counting for
neither, and its median is better than the parent's by more than the parent's
interquartile range. The same follows against the baseline, with the ratio of
the medians. Then come the summary's time layers.
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


def slot_order(sides: list, i: int) -> list:
    """The checkouts in the order they run on the i-th seed: sides rotated left by
    i, so that over any len(sides) consecutive seeds each takes each slot once."""
    i %= len(sides)
    return sides[i:] + sides[:i]


def references(records: list[dict]) -> list[str]:
    """The checkouts the change is judged against: the parent, then the baseline
    when the records hold one."""
    return ["parent"] + (["baseline"] if any(r["checkout"] == "baseline" for r in records) else [])


def summarise(records: list[dict], layers: list[str]) -> dict:
    """{workload: {layer: {"parent", "change", "change_over_parent", "ratios",
    "pairs"}}} over the traced records, paired by workload and seed: each side's
    median value, the median over pairs of change/parent, and those ratios in
    seed order. Records with a baseline add "baseline", "change_over_baseline"
    and "baseline_ratios" in the same way. A layer that reads 0 in every traced
    record of a workload is left out; a pair whose reference reads 0 gives no
    ratio, and a layer with no ratio has change_over_<reference> None."""
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for r in records:
        if r["trace"] == 1:
            pairs.setdefault(r["workload"], {}).setdefault(r["seed"], {})[r["checkout"]] = \
                r["result"]["metrics"]
    refs, summary = references(records), {}
    for workload, by_seed in pairs.items():
        summary[workload] = {}
        for name in layers:
            values = {side: [by_seed[seed][side][name]["value"] for seed in sorted(by_seed)]
                      for side in refs + ["change"]}
            if not any(any(side) for side in values.values()):
                continue
            layer = {side: statistics.median(side_values) for side, side_values in values.items()}
            for ref in refs:
                ratios = [c / r for r, c in zip(values[ref], values["change"]) if r]
                layer[f"change_over_{ref}"] = statistics.median(ratios) if ratios else None
                layer["ratios" if ref == "parent" else f"{ref}_ratios"] = ratios
            summary[workload][name] = {**layer, "pairs": len(by_seed)}
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
    verdict of the metric's change against its parent and, when the records hold
    a baseline, against the baseline too, with the ratio of the medians."""
    lines, records = [], sorted(records, key=lambda r: r["seed"])  # pairs by seed
    refs = references(records)
    for w in workloads:
        for metric in end_to_end:
            name = metric["name"]
            runs = {label: [r["result"]["metrics"][name]["value"] for r in records
                            if (r["workload"], r["trace"], r["checkout"]) == (w, 0, label)]
                    for label in refs + ["change"]}
            parts = []
            for ref in refs:
                v = verdict(runs[ref], runs["change"], metric["better"])
                p, c = ("{:.4g} [{:.4g}, {:.4g}]".format(q[1], q[0], q[2])
                        for q in (v["parent"], v["change"]))
                parts.append(f"{ref} {p}, change {c} {metric['unit']}; change better in "
                             f"{v['wins']} of {v['pairs']} pairs; "
                             f"{'gain' if v['gain'] else 'no gain'} (median gap "
                             f"{v['gap']:.4g}, {ref} IQR {v['parent_iqr']:.4g}"
                             + (f", change/{ref} {v['change'][1] / v['parent'][1]:.3f})"
                                if ref != "parent" else ")"))
            lines.append(f"{w} {name}: median [quartiles] " + "; against ".join(parts))
    return lines


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--baseline", type=Path, metavar="DIR",
                   help="a third checkout, a fixed anchor, run on the same seeds "
                        "and judged against like the parent")
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
    if args.baseline is not None:
        sides.append(("baseline", args.baseline))
    records = [{"checkout": label, **run(path, w, seed, args.seconds, trace)}
               for i, seed in enumerate(args.seeds)
               for trace in ((0, 1) if i < args.traced_seeds else (0,))
               for w in workloads for label, path in slot_order(sides, i)]
    summary = summarise(records, [m["name"] for m in spec["per_layer"]])
    args.output.write_text(json.dumps({"records": records, "summary": summary}, indent=1) + "\n")

    for line in e2e_lines(records, workloads, spec["end_to_end"]):
        print(line, file=sys.stderr)
    refs = references(records)
    for w, layers in summary.items():
        for name, v in layers.items():
            if name.endswith(".s") and v["change_over_parent"] is not None:
                against = "".join(f"; change/{ref} median {v[f'change_over_{ref}']:.3f}"
                                  for ref in refs if v[f"change_over_{ref}"] is not None)
                print(f"{w} {name}: traced median parent {v['parent']:.4g}, change "
                      f"{v['change']:.4g} s{against} over {v['pairs']} pairs", file=sys.stderr)


if __name__ == "__main__":
    main()
