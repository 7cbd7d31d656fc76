"""The summary arithmetic of scripts/record_bench.py, on hand-made records; no
benchmark is run."""

import importlib.util
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
