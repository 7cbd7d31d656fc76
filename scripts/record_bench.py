"""Record the benchmark's meta and result lines for two checkouts in one file.

    python3 scripts/record_bench.py --parent <checkout> --change <checkout> \
        --seeds 101 102 103 --seconds 20 -o BENCH_<n>.json

Each seed is one pair of `perfbench/run.py --trace 0` runs per workload of
BENCHMARK.json, parent and change back to back, the first of the two
alternating from seed to seed, so that the drift of a shared host falls on
both alike. The first seed also makes one `--trace 1` pair per workload.
Each record keeps the last two stdout lines of a run: the meta line and the
result line. Per workload and end-to-end metric, stderr gets each side's
median and the number of pairs the change won.
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


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("-o", "--output", type=Path, required=True)
    args = p.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = [("parent", args.parent), ("change", args.change)]
    records = [{"checkout": label, **run(path, w, seed, args.seconds, trace)}
               for i, seed in enumerate(args.seeds) for trace in ((0, 1) if i == 0 else (0,))
               for w in workloads for label, path in (sides if i % 2 == 0 else sides[::-1])]
    args.output.write_text(json.dumps({"records": records}, indent=1) + "\n")

    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            runs = {label: [r["result"]["metrics"][name]["value"] for r in records
                            if (r["workload"], r["trace"], r["checkout"]) == (w, 0, label)]
                    for label, _ in sides}
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
            print(f"{w} {name}: median parent {statistics.median(runs['parent']):.4g}, "
                  f"change {statistics.median(runs['change']):.4g} {metric['unit']}; "
                  f"change better in {wins} of {len(runs['change'])} pairs", file=sys.stderr)


if __name__ == "__main__":
    main()
