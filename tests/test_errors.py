"""Tests for the one writer of text tables, `errors.write_rows`: its cell
rule, and byte identity of the results and loss-trace CSVs with the
per-row f-strings they were written with before it existed."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowtrack.errors import write_rows
from slowtrack.geometry import BBox
from slowtrack.tracker import RESULTS_HEADER, TrackResult, read_results, write_results
from slowtrack.train import TRACE_HEADER, TraceRow, write_trace


class TestWriteRows:
    @pytest.mark.parametrize(
        "value, text",
        [
            (0.1 + 0.2, "0.30000000000000004"),
            (5e-324, "5e-324"),
            (-0.0, "-0.0"),
            (math.nan, "nan"),
            (-math.inf, "-inf"),
            (1e22, "1e+22"),
            (np.float64(0.1), "0.1"),
            (np.float32(0.1), "0.10000000149011612"),
            (np.float16(1.5), "1.5"),
            (True, "1"),
            (False, "0"),
            (np.bool_(True), "1"),
            (np.bool_(False), "0"),
            (10, "10"),
            (np.int64(-3), "-3"),
            ("seq-a", "seq-a"),
        ],
    )
    def test_cell_kinds(self, tmp_path, value, text):
        path = tmp_path / "t.csv"
        write_rows(path, [(value,)], "v")
        assert path.read_bytes() == f"v\n{text}\n".encode()

    def test_rows_without_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, [(1, 2.5, True), iter(("a", np.float32(0.5), np.bool_(False)))])
        assert path.read_bytes() == b"1,2.5,1\na,0.5,0\n"

    def test_header_only_and_empty(self, tmp_path):
        write_rows(tmp_path / "h.csv", [], "a,b")
        write_rows(tmp_path / "e.csv", [])
        assert (tmp_path / "h.csv").read_bytes() == b"a,b\n"
        assert (tmp_path / "e.csv").read_bytes() == b""

    def test_non_ascii_label_written_as_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, [("séquence-β", 0.5)], "label,value")
        assert path.read_bytes() == b"label,value\ns\xc3\xa9quence-\xce\xb2,0.5\n"


def results_reference(records) -> str:
    """The results CSV as write_results wrote it row by row before write_rows."""
    lines = [RESULTS_HEADER]
    for r in records:
        b = r.box
        lines.append(
            f"{r.frame},{float(b.x)!r},{float(b.y)!r},{float(b.w)!r},"
            f"{float(b.h)!r},{float(r.score)!r},{int(r.updated)}"
        )
    return "\n".join(lines) + "\n"


def trace_reference(trace) -> str:
    """The loss trace as write_trace wrote it row by row before write_rows."""
    lines = [TRACE_HEADER]
    for row in trace:
        lines.append(
            f"{row.step},{float(row.loss)!r},{float(row.loss_c)!r},"
            f"{float(row.loss_d)!r},{float(row.loss_s)!r}"
        )
    return "\n".join(lines) + "\n"


# Every kind of number a caller hands these writers: Python and NumPy
# floats of each width, including NaN, infinities and subnormals, and
# ints (a box built from ints still writes 10.0).
numbers = st.one_of(
    st.floats(),
    st.integers(-(10**6), 10**6),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([5e-324, 0.1 + 0.2, -0.0, math.nan]),
)
flags = st.one_of(st.booleans(), st.booleans().map(np.bool_))
records = st.lists(
    st.builds(
        TrackResult,
        st.integers(2, 10**6),
        st.builds(BBox, numbers, numbers, numbers, numbers),
        numbers,
        flags,
    ),
    max_size=8,
)
traces = st.lists(
    st.builds(TraceRow, st.integers(0, 10**6), numbers, numbers, numbers, numbers), max_size=8
)


class TestFormatIdentity:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(records)
    def test_results_bytes_match_reference(self, tmp_path_factory, recs):
        path = tmp_path_factory.mktemp("r") / "results.csv"
        write_results(recs, path)
        assert path.read_bytes() == results_reference(recs).encode()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(traces)
    def test_trace_bytes_match_reference(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("t") / "loss.csv"
        write_trace(trace, path)
        assert path.read_bytes() == trace_reference(trace).encode()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                st.floats(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @example([(0.1 + 0.2, -0.0, 5e-324, 1e308, math.nan)])
    def test_results_read_back_bit_for_bit(self, tmp_path_factory, rows):
        recs = [
            TrackResult(i + 2, BBox(*row[:4]), row[4], i % 2 == 1) for i, row in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("b") / "results.csv"
        write_results(recs, path)
        back = read_results(path)
        assert [(r.frame, r.updated) for r in back] == [(r.frame, r.updated) for r in recs]
        for orig, got in zip(recs, back):
            assert bits(*got.box.as_tuple()) == bits(*orig.box.as_tuple())
            # repr writes every NaN as "nan": its sign and payload are not kept
            if math.isnan(orig.score):
                assert math.isnan(got.score)
            else:
                assert bits(got.score) == bits(orig.score)


def bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)
