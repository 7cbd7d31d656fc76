"""The two CSV readers, `fit.samples_from_csv` and `pdp.load_pdp_csv`, pinned
row by row: what each returns, and which `file:line` message each raises.

- `SAMPLE_CASES` and `PDP_CASES` are hand-written texts with their results.
- `tests/golden/csv_readers.json` records, for a seeded corpus of generated
  texts, the exact arrays, tags or message each reader gave.
- The property takes a recorded text, inserts blank rows and shrinks the
  reader's row block, and expects the recorded result, with each line number
  moved past the inserted rows.

`python tests/test_csv_readers.py` rewrites the corpus with the busloss on the
import path. Do that only for a change that means to alter what the readers
accept, and say so.
"""

import functools
import json
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busloss import models
from busloss.fit import SAMPLE_TAGS, samples_from_csv
from busloss.models import HeightClass, Region
from busloss.pdp import PdpFormatError, load_pdp_csv

CORPUS = Path(__file__).with_name("golden") / "csv_readers.json"

S = "distance_m,path_loss_db"
P = "delay_ns,power_db"


def rows(*cells, n):
    return "".join(f"{','.join(cells)}\n" for _ in range(n))


def bins(start, n):
    return "".join(f"{k},-80\n" for k in range(start, start + n))


# (text, result): a message, or the columns and tags returned.
SAMPLE_CASES = [
    ("", "x.csv: empty sample file"),
    (S + "\n\n1,85\n\n2,x\n", "x.csv:5: non-numeric value"),
    (S + "\n \t\n1,85\n\r\n2,x\n", "x.csv:5: non-numeric value"),
    (S + "\n,\n1,85\n , ,\n2,x\n", "x.csv:5: non-numeric value"),
    (S + ",seat\n1,85,3\n\n , ,\n2,90,\n", {"distance_m": [1.0, 2.0], "seat": [3, None]}),
    (S + "\n1,85\n\xa0,\u3000\n2,90\n", {"distance_m": [1.0, 2.0]}),
    (S + "\r\n1,85\r\n2,90\r\n", {"distance_m": [1.0, 2.0], "path_loss_db": [85.0, 90.0]}),
    (S + "\r\n1,85\r\n2,x\r\n", "x.csv:3: non-numeric value"),
    (S + "\r1,85\r2,90\r", "x.csv:1: header must start with distance_m,path_loss_db"),
    (S + "\n1,85\r2,90\n", "x.csv:2: expected 2 columns"),
    (S + "\n1,85,3\n2\n", "x.csv:2: expected 2 columns"),
    (S + "\n1,85\n2\n3,95,1\n", "x.csv:3: expected 2 columns"),
    (S + "\n1,85,\nx,90\n", "x.csv:2: expected 2 columns"),
    (S + "\n1,85\nx,90\n3,95\n4,95,1\n", "x.csv:3: non-numeric value"),
    (S + "\n1,nan\n2,x\n", "x.csv:2: path loss must be finite"),
    (S + "\nnan,85\nx,90\n", "x.csv:2: distance must be > 0"),
    (S + "\n1,85\n-1,x\n", "x.csv:3: non-numeric value"),
    (S + "\n1,85\n0,inf\n", "x.csv:3: distance must be > 0"),
    (S + ",region\n1,85,A\n-1,85,Z\n", "x.csv:3: distance must be > 0"),
    (S + ",region\n1,85,Z\n0,85,A\n", "x.csv:2: bad tag value"),
    (S + ",height\n1,inf,middle\n", "x.csv:2: path loss must be finite"),
    (S + ",seat,region\n1,85,1,A\n2,90,2,E\n3,95,x,A\n", "x.csv:3: bad tag value"),
    (S + "\n", {"distance_m": [], "seat": None}),
    (S, {"distance_m": [], "seat": None}),
    (S + ",seat,region,height\n", {"distance_m": [], "seat": [], "region": [], "height": []}),
    (S + ",seat\n1_0,8_5,1_2\n", {"distance_m": [10.0], "path_loss_db": [85.0], "seat": [12]}),
    (S + ",region,height\n1,85, A ,\t\n", {"region": [Region.A], "height": [None]}),
    (S + ",seat\n-0,85,1\n", "x.csv:2: distance must be > 0"),
    (S + "\n1e999,85\n", "x.csv:2: distance must be > 0"),
    (S + "\n" + rows("1", "85", n=8191) + "x,85\n", "x.csv:8193: non-numeric value"),
    (S + "\n" + rows("1", "85", n=8192) + "\n" * 3 + "1,85,1\n", "x.csv:8197: expected 2 columns"),
    (S + ",height\n" + rows("1", "85", "upper", n=9000) + "2,85,Upper\n",
     "x.csv:9002: bad tag value"),
    (S + ",height\n" + rows("1", "85", "upper", n=9000),
     {"height": [HeightClass.UPPER] * 9000}),
]

PDP_CASES = [
    ("", "{path}: empty PDP file"),
    (P + "\n\n1,-80\n \n2,x\n", "{path}:5: non-numeric value"),
    (P + "\n,\n1,-80\n, , ,\n2,x\n", "{path}:5: non-numeric value"),
    (P + "\r\n1,-80\r\n2,-81\r\n", {"delays_ns": [1.0, 2.0], "powers_db": [-80.0, -81.0]}),
    (P + "\r1,-80\r2,x\r", "{path}:3: non-numeric value"),
    (P + "\n1,-80,0\n2\n", "{path}:2: expected 2 columns"),
    (P + "\n1,-80\nx,-81\n3,-82\n4,-83,0\n", "{path}:3: non-numeric value"),
    (P + "\n1,nan\n2,x\n", "{path}:2: values must be finite"),
    (P + "\n1,-80\n2,-81\n2,-82\n", "{path}:4: delays must strictly increase"),
    (P + "\n1,-80\n0.5,-81\n", "{path}:3: delays must strictly increase"),
    (P + "\n-0.0,-80\n0.0,-81\n", "{path}:3: delays must strictly increase"),
    (P + "\n2,-80\n1,inf\n", "{path}:3: values must be finite"),
    (P + "\n1,-80\ninf,-81\n2,-82\n", "{path}:3: values must be finite"),
    (P + "\n1,-80\n\n1,x\n", "{path}:4: non-numeric value"),
    (P + "\n", "{path}: no delay bins"),
    (P + "\n\n \n,\n", "{path}: no delay bins"),
    (P + "\n1_0,-8_0\n", {"delays_ns": [10.0], "powers_db": [-80.0]}),
    (P + "\n" + bins(0, 8192) + "8191,-80\n", "{path}:8194: delays must strictly increase"),
    (P + "\n" + bins(0, 8192) + "\n1,-80\n", "{path}:8195: delays must strictly increase"),
    (P + "\n" + bins(0, 8192) + "8192,-80,1\n", "{path}:8194: expected 2 columns"),
    (P + "\n" + bins(0, 10000), {"delays_ns": [float(k) for k in range(10000)]}),
]


def read(reader, text, tmp):
    """What one reader makes of text: its result, or ("error", message) with
    the file's path written as {path}. The PDP reader reads text from a file."""
    if reader == "sample":
        try:
            s = samples_from_csv(text, source="x.csv")
        except ValueError as exc:
            return ("error", str(exc))
        return {"distance_m": s.distance_m, "path_loss_db": s.path_loss_db,
                **{name: getattr(s, name) for name in SAMPLE_TAGS}}
    path = Path(tmp) / "sweep_0.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        rec = load_pdp_csv(path)
    except PdpFormatError as exc:
        return ("error", str(exc).replace(str(path), "{path}"))
    return {"delays_ns": rec.delays_ns, "powers_db": rec.powers_db}


def encoded(result):
    """A JSON form of a result in which equal means bit-identical."""
    if isinstance(result, tuple):
        return {"error": result[1]}
    out = {}
    for name, value in result.items():
        if value is None:
            out[name] = None
        elif value.dtype == object:  # a tag column
            out[name] = [getattr(t, "value", t) for t in value]
        else:
            assert value.dtype == np.float64
            out[name] = [float(x).hex() for x in value.tolist()]
    return out


@pytest.mark.parametrize("reader, text, want", [
    *(pytest.param("sample", *case, id=f"sample-{i}") for i, case in enumerate(SAMPLE_CASES)),
    *(pytest.param("pdp", *case, id=f"pdp-{i}") for i, case in enumerate(PDP_CASES)),
])
def test_reader_table(tmp_path, reader, text, want):
    got = read(reader, text, tmp_path)
    if isinstance(want, str):
        assert got == ("error", want)
        return
    assert not isinstance(got, tuple), got
    for name, value in want.items():
        if isinstance(got[name], np.ndarray):
            assert got[name].tolist() == value
        else:
            assert got[name] == value


@functools.lru_cache(maxsize=1)
def corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("reader", ["sample", "pdp"])
def test_recorded_corpus(tmp_path, reader):
    cases = [case for case in corpus() if case["reader"] == reader]
    assert len(cases) >= 300
    for case in cases:
        assert encoded(read(reader, case["text"], tmp_path)) == case["result"], case["text"]


# Rows a reader skips. The PDP reader reads its file with universal newlines,
# so a carriage return would end a line there.
BLANK_ROWS = {"sample": ["", " ", ",", " , ,\t", "\r", "\xa0", "\u3000,"],
              "pdp": ["", " ", ",", ", ,", "\t,\x0c", "\u2003"]}
LINE = re.compile(r"^(\{path\}|x\.csv):(\d+):")


@st.composite
def padded_cases(draw):
    """A recorded case with blank rows inserted after its header line, and the
    result expected from it: the recorded one, its line number moved past
    the inserted rows."""
    case = draw(st.sampled_from(corpus()))
    text = case["text"]
    if case["reader"] == "pdp":  # the line ends the reader sees
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text:
        return case["reader"], "", case["result"]
    lines = text.split("\n")
    inserted = draw(st.lists(st.tuples(st.integers(1, len(lines)),
                                       st.sampled_from(BLANK_ROWS[case["reader"]])),
                             max_size=4))
    for at, blank in sorted(inserted, reverse=True):
        lines.insert(at, blank)
    result = dict(case["result"])
    match = LINE.match(result.get("error", ""))
    if match:
        line = int(match.group(2))
        moved = line + sum(at < line for at, _ in inserted)
        result["error"] = f"{match.group(1)}:{moved}:" + result["error"][match.end():]
    return case["reader"], "\n".join(lines), result


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(padded_cases(), st.integers(1, 5))
def test_padded_cases_match_record_at_any_block_size(padded, block_rows):
    reader, text, want = padded
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "CSV_BLOCK_ROWS", block_rows)
        assert encoded(read(reader, text, tmp)) == want


# The corpus generator: texts that are mostly well formed, with a few bad
# cells, widths, headers and line ends.
NUMBERS = ["1.5", "12", " 3.25 ", "1e1", "1_0", "0.5", "7", "85.25", ".5", "5.", "+4", "\u0664"]
ODD_NUMBERS = ["-0", "0", "-2", "nan", "inf", "-inf", "x", "", " ", "1e999", "0x1", "1 2",
               "1__0", "NaN", "-1e-320"]
TAGS = {"seat": ["1", "14", " 3 ", "", "1_0"], "region": ["A", "B", "C", "D", "All", " A", ""],
        "height": ["lower", "upper", "", "upper\r"]}
ODD_TAGS = {"seat": ["x", "1.5", "-2", "\u0663"], "region": ["E", "a", "all"],
            "height": ["middle", "Upper"]}


def generated_text(rng, reader):
    if rng.random() < 0.01:
        return ""
    if reader == "sample":
        names = ["distance_m", "path_loss_db",
                 *rng.sample(list(SAMPLE_TAGS), rng.randint(0, len(SAMPLE_TAGS)))]
    else:
        names = ["delay_ns", "power_db"]
    if rng.random() < 0.05:
        names = rng.choice([names[::-1], [*names, names[-1]], [*names, "floor"], names[:1]])
    header = ",".join(f" {n}" if rng.random() < 0.05 else n for n in names)
    lines, delay = [header], rng.uniform(-5, 5)
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.08:
            lines.append(rng.choice(BLANK_ROWS["pdp"]))
            continue
        cells = []
        for i, name in enumerate(names):
            odd = rng.random() < 0.03
            if name in TAGS:
                cells.append(rng.choice((ODD_TAGS if odd else TAGS)[name]))
            elif reader == "pdp" and i == 0 and not odd:
                delay += rng.choices([1.0, 0.5, 2.5, 0.0, -1.0], [60, 20, 15, 3, 2])[0]
                cells.append(repr(delay))
            else:
                cells.append(rng.choice(ODD_NUMBERS if odd else NUMBERS))
        if rng.random() < 0.03:
            cells = cells[:-1] if rng.random() < 0.5 else [*cells, "1"]
        lines.append(",".join(cells))
    end = rng.choice(["\n"] * 8 + ["\r\n", "\r"])
    return end.join(lines) + (end if rng.random() < 0.9 else "")


if __name__ == "__main__":
    rng = random.Random(20261018)
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for reader in ("sample", "pdp"):
            for _ in range(400):
                text = generated_text(rng, reader)
                cases.append({"reader": reader, "text": text,
                              "result": encoded(read(reader, text, tmp))})
    CORPUS.write_text(json.dumps(cases, indent=0, ensure_ascii=True) + "\n", encoding="utf-8")
    errors = sum("error" in case["result"] for case in cases)
    print(f"{len(cases)} cases, {errors} errors", file=sys.stderr)
