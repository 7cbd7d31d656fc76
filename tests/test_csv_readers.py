"""The two CSV readers, `fit.samples_from_csv` and `pdp.load_pdp_csv`, pinned
row by row: what each returns, and which `file:line` message each raises.

- `SAMPLE_CASES` and `PDP_CASES` are hand-written texts with their results.
- `tests/golden/csv_readers.json` records, for a seeded corpus of generated
  texts, the exact arrays, tags or message each reader gave.
- The property takes a recorded text, inserts blank rows and shrinks the
  reader's row block and, mostly to a few characters, the chunk it splits
  into lines, and expects the recorded result, with each line number moved
  past the inserted rows.
- A second property reads numeric texts with `read_csv`'s one-call loadtxt
  path on and forced off, and expects bit-identical arrays or the same message.
- Each row rule of `PdpRecord` and `SampleSet` is stated once, in the record:
  the reader's message for a bad row is the record's own after `path:line: `.

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
from busloss.fit import SAMPLE_TAGS, SampleSet, samples_from_csv
from busloss.models import HeightClass, Region, TagColumn
from busloss.pdp import PdpFormatError, PdpRecord, load_pdp_csv

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
        elif isinstance(value, TagColumn):
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
        assert (None if got[name] is None else list(got[name])) == value


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
@given(padded_cases(), st.integers(1, 5),
       st.one_of(st.integers(1, 8), st.just(models._CSV_CHUNK_CHARS)))
def test_padded_cases_match_record_at_any_block_size(padded, block_rows, chunk_chars):
    # A chunk of a few characters frames a line or two at a time.
    reader, text, want = padded
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "CSV_BLOCK_ROWS", block_rows)
        mp.setattr(models, "_CSV_CHUNK_CHARS", chunk_chars)
        assert encoded(read(reader, text, tmp)) == want


def exact(result):
    """A result in which equal means bit-identical arrays, or the error itself."""
    if isinstance(result, tuple):
        return result
    return {name: None if value is None else (value.dtype.str, value.shape, value.tobytes())
            for name, value in result.items()}


# Cells for the differential test: numbers in the formats writers use, and
# runs of 1-400 characters of the charset read_csv may hand to np.loadtxt.
FORMATS = ["{!r}", "{:.17g}", "{:e}", "{:E}", "{:+.3f}", "{:.0f}", "{:.1e}"]
CHARSET_CELLS = st.text("0123456789.+-eE", min_size=1, max_size=400)


@st.composite
def numeric_texts(draw):
    """(reader, text): a header, then rows over the charset of read_csv's fast
    path, mostly clean (delays and distances increasing and positive), with
    cells, rows and widths edited, and blank and comma-only rows inserted."""
    reader = draw(st.sampled_from(["sample", "pdp"]))
    n = draw(st.integers(1, 12))
    first = sorted(draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n, unique=True)))
    second = draw(st.lists(st.floats(-300, 300), min_size=n, max_size=n))
    fmt = draw(st.sampled_from(FORMATS)).format
    rows = [[fmt(x), fmt(y)] for x, y in zip(first, second)]
    for at, cell in draw(st.lists(st.tuples(st.integers(0, 2 * n - 1), CHARSET_CELLS),
                                  max_size=3)):
        rows[at // 2][at % 2] = cell
    for at in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[at] = rows[at][:1] if draw(st.booleans()) else [*rows[at], "1"]
    lines = [",".join(row) for row in rows]
    for at, blank in sorted(draw(st.lists(st.tuples(st.integers(0, n),
                                                    st.sampled_from(["", ",", ",,"])),
                                          max_size=3)), reverse=True):
        lines.insert(at, blank)
    end = draw(st.sampled_from(["\n", ""]))
    return reader, "\n".join([S if reader == "sample" else P, *lines]) + end


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(numeric_texts())
def test_loadtxt_path_matches_block_path(case):
    reader, text = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        fast = exact(read(reader, text, tmp))
        mp.setattr(models, "_loadtxt_columns", lambda body, width: None)
        assert fast == exact(read(reader, text, tmp))


def test_clean_files_skip_the_block_path(tmp_path, monkeypatch):
    def block_path(cells):
        raise AssertionError("the block path ran")

    checked = []
    rules = PdpRecord.rules
    monkeypatch.setattr(models, "_leading_floats", block_path)
    monkeypatch.setattr(PdpRecord, "rules",
                        staticmethod(lambda *columns: checked.append(columns) or rules(*columns)))
    sweep = read("pdp", P + "\n" + bins(0, 3000), tmp_path)
    assert sweep["delays_ns"].tolist() == [float(k) for k in range(3000)]
    assert len(checked) == 1  # the rules ran once, in PdpRecord
    samples = read("sample", S + "\n1.5,85\n2e1,9.05E1\n", tmp_path)
    assert samples["path_loss_db"].tolist() == [85.0, 90.5]
    assert read("pdp", P + "\n\n1,-80\n\n2,-81\n", tmp_path)["powers_db"].tolist() == [-80, -81]
    # A clean body that a rule rejects: the loadtxt arrays go to the judge, which
    # names the line without parsing the body again.
    assert read("pdp", P + "\n" + bins(0, 3000) + "0,-80\n", tmp_path) == (
        "error", "{path}:3002: delays must strictly increase")
    with pytest.raises(AssertionError, match="the block path ran"):  # a comma-only row
        read("pdp", P + "\n1,-80\n,\n2,-81\n", tmp_path)


# For each record, a text per rule that only that rule rejects, in the order of
# the record's rules.
RULE_TEXTS = {"pdp": [P + "\n", P + "\n1,-80\n2,nan\n", P + "\n2,-80\n1,-81\n"],
              "sample": [S + "\n1,85\n0,85\n", S + "\n1,85\n2,inf\n"]}
RECORDS = {"pdp": PdpRecord, "sample": SampleSet}
WHERE = re.compile(r"^(\{path\}|x\.csv)(:\d+)?: ")


@pytest.mark.parametrize("reader, rule", [
    pytest.param(reader, i, id=f"{reader}-{i}")
    for reader, texts in RULE_TEXTS.items() for i in range(len(texts))])
def test_reader_gives_the_records_message(tmp_path, reader, rule):
    text, record = RULE_TEXTS[reader][rule], RECORDS[reader]
    columns = np.array([[float(cell) for cell in line.split(",")]
                        for line in text.split("\n")[1:] if line]).reshape(-1, 2).T
    rules = record.rules(*columns)
    assert len(rules) == len(RULE_TEXTS[reader])
    assert [bool(mask.any()) for mask, _ in rules] == [i == rule for i in range(len(rules))]
    with pytest.raises(ValueError) as exc:
        record(*columns)
    assert str(exc.value) == rules[rule][1]
    kind, message = read(reader, text, tmp_path)
    assert kind == "error" and WHERE.sub("", message) == str(exc.value), message


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
