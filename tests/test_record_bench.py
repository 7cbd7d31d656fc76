"""The summary arithmetic of scripts/record_bench.py, on hand-made records; no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def record(checkout, seed, trace, **values):
    return {"checkout": checkout, "workload": "w", "seed": seed, "trace": trace,
            "result": {"metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}}


def test_summary_of_traced_pairs():
    records = [
        record("parent", 1, 0, a=100.0, b=100.0, c=100.0),  # untraced: ignored
        record("change", 1, 0, a=100.0, b=100.0, c=100.0),
        record("parent", 1, 1, a=2.0, b=0.0, c=0.0),
        record("change", 1, 1, a=1.0, b=0.5, c=0.0),
        record("change", 2, 1, a=3.0, b=0.0, c=0.0),  # change ran first on seed 2
        record("parent", 2, 1, a=4.0, b=0.0, c=0.0),
        record("parent", 3, 1, a=8.0, b=1.0, c=0.0),
        record("change", 3, 1, a=1.0, b=2.0, c=0.0),
    ]
    summary = record_bench.summarise(records, ["a", "b", "c"])
    # a: parent 2, 4, 8 and change 1, 3, 1; ratios 0.5, 0.75, 0.125 (mean 0.458).
    assert summary["w"]["a"] == {"parent": 4.0, "change": 1.0, "change_over_parent": 0.5,
                                 "ratios": [0.5, 0.75, 0.125], "pairs": 3}
    # b: only seed 3's parent is nonzero, so one ratio, 2.0.
    assert summary["w"]["b"] == {"parent": 0.0, "change": 0.5, "change_over_parent": 2.0,
                                 "ratios": [2.0], "pairs": 3}
    assert "c" not in summary["w"]


def test_no_ratio_when_every_parent_reads_zero():
    records = [record("parent", 1, 1, a=0.0), record("change", 1, 1, a=1.0)]
    layer = record_bench.summarise(records, ["a"])["w"]["a"]
    assert (layer["change_over_parent"], layer["ratios"]) == (None, [])


def test_ratios_show_an_unresolved_target():
    # The median ratio alone, 0.9, does not show that the pairs straddle a 0.85x
    # target; the ratios 0.6, 0.9 and 1.2 do.
    records = [record(side, seed, 1, a=value) for seed, parent, change in
               [(3, 10.0, 12.0), (1, 10.0, 6.0), (2, 10.0, 9.0)]
               for side, value in (("parent", parent), ("change", change))]
    layer = record_bench.summarise(records, ["a"])["w"]["a"]
    assert layer["ratios"] == [0.6, 0.9, 1.2]  # in seed order
    assert layer["change_over_parent"] == 0.9
    assert min(layer["ratios"]) < 0.85 < max(layer["ratios"])


def test_untraced_records_give_an_empty_summary():
    assert record_bench.summarise([record("parent", 1, 0, a=1.0),
                                   record("change", 1, 0, a=1.0)], ["a"]) == {}


def test_traced_seeds_beyond_the_seeds_rejected(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["record_bench.py", "--parent", str(tmp_path), "--change",
                                     str(tmp_path), "--seeds", "1", "2", "--seconds", "1",
                                     "--traced-seeds", "3", "-o", str(tmp_path / "out.json")])
    with pytest.raises(SystemExit) as exc:
        record_bench.main()
    assert exc.value.code == 2
    assert "--traced-seeds must be in [1, 2]" in capsys.readouterr().err


# The parent's runs 10..19 have quartiles 12.25 and 16.75, so an IQR of 4.5.
PARENT = [float(v) for v in range(10, 20)]


def test_quartiles_interpolate_between_runs():
    assert record_bench.quartiles(PARENT) == (12.25, 14.5, 16.75)
    assert record_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_parent_iqr():
    # Each change run 5 below its parent's: 10 of 10 wins and a gap of 5 > 4.5.
    v = record_bench.verdict(PARENT, [p - 5.0 for p in PARENT], "lower")
    assert (v["wins"], v["pairs"], v["gap"], v["parent_iqr"], v["gain"]) == (10, 10, 5.0, 4.5, True)
    assert v["change"] == (7.25, 9.5, 11.75)
    # A gap of 4 is inside the parent's IQR, though every pair is won.
    assert not record_bench.verdict(PARENT, [p - 4.0 for p in PARENT], "lower")["gain"]
    # 9 of 10 wins still shows a gain; 8 of 10, with a tie, does not.
    nine = [p - 6.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert record_bench.verdict(PARENT, nine, "lower")["gain"]
    eight = nine[:8] + [PARENT[8]] + nine[9:]
    v = record_bench.verdict(PARENT, eight, "lower")
    assert (v["wins"], v["gain"]) == (8, False)


def test_higher_is_better_metric():
    v = record_bench.verdict(PARENT, [p + 5.0 for p in PARENT], "higher")
    assert (v["wins"], v["gap"], v["gain"]) == (10, 5.0, True)
    assert not record_bench.verdict(PARENT, [p + 5.0 for p in PARENT], "lower")["gain"]


def test_e2e_lines_pair_runs_by_seed():
    metrics = [{"name": "m", "unit": "MB", "better": "lower"}]
    records = [record(side, seed, 0, m=value) for seed, parent in zip(range(10, 0, -1), PARENT)
               for side, value in (("change", parent - 5.0), ("parent", parent))]
    records.append(record("parent", 1, 1, m=0.0))  # traced: ignored
    [line] = record_bench.e2e_lines(records, ["w"], metrics)
    assert line == ("w m: median [quartiles] parent 14.5 [12.25, 16.75], change 9.5 "
                    "[7.25, 11.75] MB; change better in 10 of 10 pairs; gain (median gap 5, "
                    "parent IQR 4.5)")


def test_committed_records_give_a_line_per_workload_and_metric():
    # BENCH_21 changed no code on the sample_roundtrip path: its peak RSS shows no gain.
    root = SCRIPT.parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    records = json.loads((root / "BENCH_21.json").read_text())["records"]
    workloads = [w["name"] for w in spec["workloads"]]
    lines = record_bench.e2e_lines(records, workloads, spec["end_to_end"])
    assert len(lines) == len(workloads) * len(spec["end_to_end"])
    [rss] = [line for line in lines if line.startswith("sample_roundtrip peak_rss_mb:")]
    assert rss.endswith(")") and "; no gain (" in rss


def test_summary_with_a_baseline():
    records = [record(side, seed, 1, a=value) for seed, values in
               [(1, {"parent": 2.0, "change": 1.0, "baseline": 4.0}),
                (2, {"baseline": 0.0, "change": 3.0, "parent": 4.0})]
               for side, value in values.items()]
    layer = record_bench.summarise(records, ["a"])["w"]["a"]
    # Seed 2's baseline reads 0, so it gives no change/baseline ratio.
    assert layer == {"parent": 3.0, "change": 2.0, "change_over_parent": 0.625,
                     "ratios": [0.5, 0.75], "baseline": 2.0, "change_over_baseline": 0.25,
                     "baseline_ratios": [0.25], "pairs": 2}


def test_e2e_lines_against_a_baseline():
    # The baseline's runs are the parent's plus 10: the change wins every pair
    # against it too, with medians 9.5 against 24.5.
    metrics = [{"name": "m", "unit": "MB", "better": "lower"}]
    records = [record(side, seed, 0, m=value) for seed, parent in zip(range(1, 11), PARENT)
               for side, value in (("parent", parent), ("change", parent - 5.0),
                                   ("baseline", parent + 10.0))]
    [line] = record_bench.e2e_lines(records, ["w"], metrics)
    assert line == ("w m: median [quartiles] parent 14.5 [12.25, 16.75], change 9.5 "
                    "[7.25, 11.75] MB; change better in 10 of 10 pairs; gain (median gap 5, "
                    "parent IQR 4.5); against baseline 24.5 [22.25, 26.75], change 9.5 "
                    "[7.25, 11.75] MB; change better in 10 of 10 pairs; gain (median gap 15, "
                    "baseline IQR 4.5, change/baseline 0.388)")


def test_baseline_runs_on_the_same_seeds_with_the_change_between(tmp_path, monkeypatch,
                                                                 capsys):
    """main with a stub in place of perfbench/run.py: no benchmark is run."""
    for name in "pcb":
        (tmp_path / name).mkdir()
    (tmp_path / "c" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}], "per_layer": [{"name": "a.s"}],
        "end_to_end": [{"name": "m", "unit": "s", "better": "lower"}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        value = {"p": 2.0, "c": 1.0, "b": 4.0}[checkout.name]
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "meta": {}, "result": {"metrics": {"m": {"value": value, "unit": "s"},
                                                   "a.s": {"value": value, "unit": "s"}}}}

    monkeypatch.setattr(record_bench, "run", fake_run)
    monkeypatch.setattr("sys.argv", ["record_bench.py"] + [
        f"--{side}={tmp_path / side[0]}" for side in ("parent", "change", "baseline")] + [
        "--seeds", "1", "2", "--seconds", "1", "-o", str(tmp_path / "out.json")])
    record_bench.main()
    assert calls == [("p", 1, 0), ("c", 1, 0), ("b", 1, 0), ("p", 1, 1), ("c", 1, 1),
                     ("b", 1, 1), ("b", 2, 0), ("c", 2, 0), ("p", 2, 0)]
    out = json.loads((tmp_path / "out.json").read_text())
    assert [r["checkout"] for r in out["records"][:3]] == ["parent", "change", "baseline"]
    assert out["summary"]["w"]["a.s"]["change_over_baseline"] == 0.25
    err = capsys.readouterr().err.splitlines()
    assert err[0].endswith("; against baseline 4 [4, 4], change 1 [1, 1] s; change better in 2 "
                           "of 2 pairs; gain (median gap 3, baseline IQR 0, change/baseline 0.250)")
    assert err[1] == ("w a.s: traced median parent 2, change 1 s; change/parent median 0.500; "
                      "change/baseline median 0.250 over 1 pairs")
