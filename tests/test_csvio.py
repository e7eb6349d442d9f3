"""CSV formatting: %.17g floats, fixed line endings, strict row widths."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scalefield.csvio import emit_csv, format_cell, render_csv
from scalefield.errors import IoError


def test_float_cells_round_trip_exactly():
    # 17 significant digits pin the binary value
    assert format_cell(1.0 / 3.0) == "0.33333333333333331"
    assert float(format_cell(0.1)) == 0.1
    assert format_cell(0.5) == "0.5"
    assert format_cell(1.0) == "1"


def test_special_cells():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell("segment") == "segment"


def test_complex_cells_are_refused():
    with pytest.raises(TypeError, match="re/im"):
        format_cell(1 + 2j)


def test_empty_rows_give_header_only():
    assert render_csv(("a", "b"), []) == "a,b\n"


def test_three_rows_give_four_lines_with_unix_endings():
    text = render_csv(("tau", "q"), [(0.0, 1.0), (0.1, 2.0), (0.2, 3.0)])
    assert text.count("\n") == 4
    assert "\r" not in text
    lines = text.split("\n")
    assert lines == ["tau,q", "0,1", "0.10000000000000001,2",
                     "0.20000000000000001,3", ""]


def test_fields_with_commas_are_quoted():
    text = render_csv(("name",), [("a,b",)])
    assert text == 'name\n"a,b"\n'


def test_row_width_must_match_header():
    with pytest.raises(ValueError, match="row 1"):
        render_csv(("a", "b"), [(1, 2), (3,)])


EDGE_FLOATS = [-0.0, 5e-324, 0.1, 3.0, 2.0 ** 60, 1e20, -1e20, float("inf"),
               float("-inf"), float("nan"), 1.0 / 3.0, -2.5e-308]


def test_float_array_renders_the_bytes_of_its_rows():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((9000, 4)) * 10.0 ** rng.integers(
        -30, 30, (9000, 4))
    rows[:3] = np.reshape(EDGE_FLOATS, (3, 4))
    header = ("a", "b", "c", "d")
    text = render_csv(header, rows)
    assert_same_lines(text, render_csv(header, rows.tolist()))
    # the first three lines carry the edge values through the %.17g rule
    assert text.split("\n")[1:4] == [
        "-0,4.9406564584124654e-324,0.10000000000000001,3",
        "1.152921504606847e+18,1e+20,-1e+20,inf",
        "-inf,nan,0.33333333333333331,-2.4999999999999998e-308"]
    # a strided view renders like its contiguous copy
    assert_same_lines(render_csv(header, rows[::3]),
                      render_csv(header, rows[::3].tolist()))


# values whose %.17g text a dedup keyed by float value would get wrong or
# merge: -0 and 0 compare equal, NaNs compare unequal to themselves
REPEATED_FLOATS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                            5e-324, -5e-324, 2.2250738585072009e-308, 0.1,
                            1.0 / 3.0, 2.0 ** 60])


def _signed_zeros_across_blocks():
    # 0.1 steps and signed zeros in both blocks of a 4096-row boundary
    values = (np.arange(2 * 5000) % 7 - 3) * 0.1
    values[1::2] *= -1.0
    return values.reshape(5000, 2)


def _column_slice():
    # the first five columns of a state table, as scripts write them
    rng = np.random.default_rng(3)
    table = REPEATED_FLOATS[rng.integers(0, len(REPEATED_FLOATS), (600, 9))]
    return table[:, :5]


REPEATED_ARRAYS = {
    "signed-zeros": np.tile([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]], (50, 1)),
    "specials": np.tile(REPEATED_FLOATS[2:9], (40, 1)).reshape(-1, 4),
    "across-blocks": _signed_zeros_across_blocks(),
    "column-slice": _column_slice(),
    "all-distinct": np.random.default_rng(9).standard_normal((4096, 3)),
}


def assert_same_lines(text, expected):
    """text == expected, reporting the first differing line alone: pytest's
    diff of two long texts is quadratic and can run for minutes."""
    lines, want = text.split("\n"), expected.split("\n")
    mismatch = next(((i, a, b) for i, (a, b) in enumerate(zip(lines, want))
                     if a != b), None)
    assert mismatch is None
    assert len(lines) == len(want)


def _assert_renders_like_its_rows(rows):
    header = tuple(f"c{j}" for j in range(rows.shape[1]))
    assert_same_lines(render_csv(header, rows),
                      render_csv(header, rows.tolist()))


@pytest.mark.parametrize("name", sorted(REPEATED_ARRAYS))
def test_float_array_with_repeats_renders_the_bytes_of_its_rows(name):
    _assert_renders_like_its_rows(REPEATED_ARRAYS[name])


@given(hnp.arrays(np.intp, hnp.array_shapes(min_dims=2, max_dims=2,
                                            max_side=40),
                  elements=st.integers(0, len(REPEATED_FLOATS) - 1)))
def test_float_array_from_a_small_pool_renders_the_bytes_of_its_rows(picks):
    _assert_renders_like_its_rows(REPEATED_FLOATS[picks])


def test_float_array_without_rows_gives_header_only():
    assert render_csv(("a", "b"), np.empty((0, 2))) == "a,b\n"


def test_float_array_width_must_match_header():
    with pytest.raises(ValueError, match="header has 2"):
        render_csv(("a", "b"), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="header has 2"):
        render_csv(("a", "b"), np.zeros((0, 1)))


def test_integer_array_keeps_the_row_path():
    # %.17g would print 2**53 + 1 as 9007199254740992
    rows = np.array([[2 ** 53 + 1, -7], [0, 2 ** 62]])
    assert render_csv(("n", "m"), rows) == (
        "n,m\n9007199254740993,-7\n0,4611686018427387904\n")


def test_header_names_must_be_nonempty():
    with pytest.raises(ValueError):
        render_csv(("a", ""), [])
    with pytest.raises(ValueError):
        render_csv((), [])


def test_emit_writes_unix_bytes(tmp_path):
    target = tmp_path / "out.csv"
    emit_csv(("x",), [(1.5,)], str(target))
    assert target.read_bytes() == b"x\n1.5\n"


@pytest.mark.parametrize("rows", [
    [("a,b", 1, None), (True, 0.1, -2.5e-308), ("x", 2 ** 70, float("nan"))],
    np.random.default_rng(7).standard_normal((9000, 3)),
    np.random.default_rng(7).standard_normal((9000, 3))[::2],
    np.empty((0, 3)),
], ids=["mixed", "float-array", "strided-array", "no-rows"])
def test_render_into_a_file_writes_the_bytes_it_returns(tmp_path, rows):
    header = ("p", "q", "r")
    target = tmp_path / "out.csv"
    with open(target, "w", encoding="utf-8", newline="") as fh:
        assert render_csv(header, rows, fh) is None
    assert_same_lines(target.read_bytes().decode("utf-8"),
                      render_csv(header, rows))


def test_emit_failure_reports_target(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    with pytest.raises(IoError, match="out.csv"):
        emit_csv(("x",), [], str(target))
