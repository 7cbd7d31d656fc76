"""Seeded CLI runs reproduce their recorded output: same seed, same numbers.

Each case runs `cli.main` in process, in a fresh directory, and builds a
transcript of every step: the exit code, stdout, stderr and every file the
step wrote. The transcript must match `tests/golden/<case>.txt`. Numbers
match to a relative 1e-12, because `np.log10` and `math.log10` can differ in
the last bit between hosts; every other token must match exactly.

`python tests/test_golden.py` rewrites the fixtures with the busloss on the
import path. Do that only for a change that means to alter output, and say so.
"""

import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from busloss.cli import main
from busloss.geometry import default_layout, layout_to_dict

GOLDEN = Path(__file__).with_name("golden")

INPUTS = {
    "cal.json": {"radiated_power_db": 20.0, "g_tx_dbi": 3.0},
    "budget.json": {"tx_power_dbm": 12.0, "snr_threshold_db": 3.0},
    "other.json": {"alpha_db": 78.86, "beta": 2.03, "sigma_db": 2.0},
    "layout.json": layout_to_dict(default_layout()),
}

CASES = {
    "synth": [["synth", "--model", "All/upper", "--height", "upper", "--seed", "1"]],
    "pdp_pipeline": [
        ["synth", "--model", "All/lower", "--height", "lower", "--seed", "3",
         "--pdp-dir", "pdp", "--sweeps", "3", "--calibration", "cal.json"],
        ["process", "pdp", "cal.json", "--layout", "layout.json", "-o", "samples.csv"],
        ["fit", "--by-group", "samples.csv"],
    ],
    "footprint": [["footprint", "--format", "json", "--height", "upper",
                   "--active", "1,2,3,9,14", "--seed", "4", "--draws", "2000"]],
    "sweep": [["sweep", "--format", "json", "--height", "lower", "--config", "budget.json"]],
    "eval": [["eval", "--model", "B/lower", "--distances", "0.25:20:0.25"]],
    "compare": [["compare", "--model-a", "C/upper", "--model-b", "other.json",
                 "--distances", "0.5:15:0.5"]],
    "verify": [["verify"]],
    "fit": [
        ["synth", "--model", "All/lower", "--height", "lower", "--seed", "5", "-o", "s.csv"],
        ["fit", "s.csv"],
    ],
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def transcript(steps) -> str:
    """Run each argv in the current directory, which holds INPUTS."""
    for name, obj in INPUTS.items():
        Path(name).write_text(json.dumps(obj), encoding="utf-8")
    parts = []
    for argv in steps:
        before = set(Path().rglob("*"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        parts.append(f"$ busloss {' '.join(argv)}\nexit {code}\n"
                     f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
        for path in sorted(set(Path().rglob("*")) - before):
            if path.is_file():
                parts.append(f"--- {path.as_posix()}\n{path.read_text(encoding='utf-8')}")
    return "".join(parts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = transcript(CASES[case])
    want = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert NUMBER.split(got) == NUMBER.split(want)
    got_numbers = [float(x) for x in NUMBER.findall(got)]
    want_numbers = [float(x) for x in NUMBER.findall(want)]
    assert got_numbers == pytest.approx(want_numbers, rel=1e-12, abs=0.0)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, steps in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            here = os.getcwd()
            os.chdir(workdir)
            try:
                text = transcript(steps)
            finally:
                os.chdir(here)
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"{case}: {len(text)} characters", file=sys.stderr)
