"""Rerun every command of ``reference_outputs.RUNS`` and compare its outputs
with the committed ones in ``tests/reference/``, two ways: the numbers (CSV
cells and JSON leaves to 1e-12 relative; keys, headers and every other field
exact), and the bytes of every file, SVG and stdout included.  The runs are
made on the OpenBLAS kernels and numpy SIMD level the references were made
with (``reference_outputs.PINNED_ENV``); where those cannot run, both tests
skip.  The bytes are pinned at CI's numpy only; the byte test skips at any
other version."""

import csv
import json
import math

import numpy as np
import pytest

import reference_outputs
from reference_outputs import REFERENCE_DIR, RUNS, KernelUnavailable

RTOL = 1e-12
PINNED_NUMPY = "2.4.6"


@pytest.fixture(scope="module")
def reruns(tmp_path_factory):
    """The directory of a fresh run of every command, made once per module."""
    target = tmp_path_factory.mktemp("reruns") / "reference"
    try:
        reference_outputs.make(target)
    except KernelUnavailable as e:
        pytest.skip(str(e))
    return target


def files(run_dir):
    """{file name: bytes} of one run's directory, stdout included."""
    return {p.name: p.read_bytes() for p in run_dir.iterdir()}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel(a, b):
    """The relative move from a to b; infinite where a value turns NaN or
    infinite, or stops being so."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _json_moves(ref, new, field, moves):
    """Append (relative move, field) for each numeric leaf; raise on any other
    difference."""
    if isinstance(ref, dict) and isinstance(new, dict):
        assert sorted(ref) == sorted(new), f"{field}: keys {sorted(ref)} -> {sorted(new)}"
        for key in ref:
            _json_moves(ref[key], new[key], f"{field}.{key}", moves)
    elif isinstance(ref, list) and isinstance(new, list):
        assert len(ref) == len(new), f"{field}: length {len(ref)} -> {len(new)}"
        for i, (a, b) in enumerate(zip(ref, new)):
            _json_moves(a, b, f"{field}[{i}]", moves)
    elif _is_number(ref) and _is_number(new):
        moves.append((_rel(float(ref), float(new)), field))
    else:
        assert ref == new, f"{field}: {ref!r} -> {new!r}"


def _csv_moves(ref, new, moves):
    ref_rows, new_rows = (list(csv.reader(text.splitlines())) for text in (ref, new))
    assert ref_rows[:2] == new_rows[:2], f"schema or header: {ref_rows[:2]} -> {new_rows[:2]}"
    assert len(ref_rows) == len(new_rows), f"rows: {len(ref_rows)} -> {len(new_rows)}"
    header = ref_rows[1]
    for i, (a_row, b_row) in enumerate(zip(ref_rows[2:], new_rows[2:])):
        assert len(a_row) == len(b_row), f"row {i}: {len(a_row)} cells -> {len(b_row)}"
        for col, a, b in zip(header, a_row, b_row):
            moves.append((_rel(float(a), float(b)), f"row {i} {col}"))


def numeric_moves(name, ref, new):
    """The largest relative move of any number in file ``name`` and its field."""
    moves = [(0.0, None)]
    if name.endswith(".csv"):
        _csv_moves(ref.decode(), new.decode(), moves)
    else:
        _json_moves(json.loads(ref), json.loads(new), "$", moves)
    return max(moves, key=lambda m: m[0])


@pytest.mark.parametrize("run", RUNS)
def test_numbers_match_the_reference(run, reruns):
    ref, new = files(REFERENCE_DIR / run), files(reruns / run)
    assert sorted(new) == sorted(ref), "the run wrote other files"
    for name in sorted(ref):
        if name.endswith((".csv", ".json")):
            worst, field = numeric_moves(name, ref[name], new[name])
            assert worst <= RTOL, f"{run}/{name}: {field} moved {worst:.3g} relative"


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"byte identity is pinned at numpy {PINNED_NUMPY}; "
                           f"this is numpy {np.__version__}")
@pytest.mark.parametrize("run", RUNS)
def test_bytes_match_the_reference(run, reruns):
    ref, new = files(REFERENCE_DIR / run), files(reruns / run)
    assert sorted(new) == sorted(ref), "the run wrote other files"
    assert [name for name in sorted(ref) if new[name] != ref[name]] == []


CSV = b"# schema\nx,y\n1.0,2.0\n3.0,4.0\n"


@pytest.mark.parametrize("new", [
    b"# schema\nx,y\n1.0,2.0\n3.0,nan\n",
    b"# schema\nx,y\n1.0,2.0\n3.0,inf\n",
    b"# schema\nx,y\n1.0,2.0\n3.0,4.0000000001\n",
], ids=["nan", "inf", "1e-11"])
def test_a_moved_cell_is_the_largest_move(new):
    worst, field = numeric_moves("f.csv", CSV, new)
    assert worst > RTOL and field == "row 1 y"


def test_a_cell_more_or_less_fails():
    for new in (b"# schema\nx,y\n1.0,2.0\n3.0,4.0,5.0\n", b"# schema\nx,y\n1.0,2.0\n3.0\n"):
        with pytest.raises(AssertionError, match="row 1"):
            numeric_moves("f.csv", CSV, new)


@pytest.mark.parametrize("ref, new", [
    ('{"a": [1.0, 2.0]}', '{"a": [1.0, NaN]}'),
    ('{"a": [1.0, 2.0]}', '{"a": [1.0, Infinity]}'),
    ('{"a": [1.0, Infinity]}', '{"a": [1.0, 2.0]}'),
    ('{"a": [1.0, NaN]}', '{"a": [1.0, 2.0]}'),
], ids=["to-nan", "to-inf", "from-inf", "from-nan"])
def test_a_leaf_turning_or_leaving_nan_or_inf_fails(ref, new):
    assert numeric_moves("f.json", ref.encode(), new.encode()) == (math.inf, "$.a[1]")


def test_unmoved_nan_and_inf_pass():
    doc = b'{"a": [NaN, Infinity, -Infinity, 0.0]}'
    assert numeric_moves("f.json", doc, doc)[0] == 0.0
