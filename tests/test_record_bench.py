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
                                 "pairs": 3}
    # b: only seed 3's parent is nonzero, so one ratio, 2.0.
    assert summary["w"]["b"] == {"parent": 0.0, "change": 0.5, "change_over_parent": 2.0,
                                 "pairs": 3}
    assert "c" not in summary["w"]


def test_no_ratio_when_every_parent_reads_zero():
    records = [record("parent", 1, 1, a=0.0), record("change", 1, 1, a=1.0)]
    assert record_bench.summarise(records, ["a"])["w"]["a"]["change_over_parent"] is None


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
