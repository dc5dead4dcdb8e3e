"""CSV bytes of `PriceSurface.write_csv` against Python's own `%.11e`."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from putpricer import surface
from putpricer.surface import PriceSurface

BLOCK = surface._BLOCK_ROWS
LARGEST = np.finfo(float).max


def reference_body(table):
    """Data rows as the `%`-formatted, comma- and LF-joined numbers."""
    return "".join(",".join("%.11e" % x for x in row) + "\n"
                   for row in np.asarray(table, dtype=float).tolist())


def written(tmp_path, table):
    """File text of a one-axis surface whose columns are those of `table`."""
    table = np.asarray(table, dtype=float).reshape(-1, np.shape(table)[-1])
    names = tuple(f"v{j}" for j in range(1, table.shape[1]))
    path = tmp_path / "s.csv"
    PriceSurface(axis_names=("a",), axes=(table[:, 0],), value_names=names,
                 values=tuple(table[:, 1:].T)).write_csv(path)
    return path.read_bytes().decode("ascii")


def format_column(numbers):
    """The formatter's bytes for one column of rows, NULs dropped as `write_csv` drops them."""
    return surface._format_fields(numbers, ord("\n")).tobytes().translate(None, b"\0")


def body_of(text, columns):
    header = ",".join(["a"] + [f"v{j}" for j in range(1, columns)]) + "\n"
    assert text.startswith(header)
    return text[len(header):]


def assert_formats_like_python(tmp_path, numbers, columns=2):
    numbers = np.asarray(numbers, dtype=float).ravel()
    numbers = np.concatenate([numbers, np.zeros(-len(numbers) % columns)])
    table = numbers.reshape(-1, columns)
    assert body_of(written(tmp_path, table), columns) == reference_body(table)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
       st.integers(2, 4))
@settings(max_examples=300, deadline=None)
def test_body_equals_percent_format(tmp_path_factory, numbers, columns):
    assert_formats_like_python(tmp_path_factory.getbasetemp(), numbers, columns)


def test_signed_zeros_subnormals_and_extremes(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    specials = [0.0, -0.0, tiny, -tiny, 5e-324, 2.2250738585072014e-308,
                np.nextafter(2.2250738585072014e-308, 0.0), LARGEST, -LARGEST,
                np.nextafter(LARGEST, 0.0)]
    assert_formats_like_python(tmp_path, specials)
    text = written(tmp_path, [[0.0, -0.0], [LARGEST, 5e-324]])
    assert body_of(text, 2) == ("0.00000000000e+00,-0.00000000000e+00\n"
                                "1.79769313486e+308,4.94065645841e-324\n")


def test_powers_of_ten_and_neighbours(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    numbers = np.concatenate([powers, np.nextafter(powers, 0.0),
                              np.nextafter(powers, np.inf)])
    assert_formats_like_python(tmp_path, numbers[np.isfinite(numbers)], columns=3)


def test_exponent_correction_keeps_decade_edges_on_the_fast_path(monkeypatch):
    # without the +-1 correction of floor(log10|x|) about a third of these
    # would take the exact route; with it, only scaled values that round
    # onto 1e12 or lie near a tie do
    exact = []
    monkeypatch.setattr(surface, "_exact_parts",
                        lambda x, parts=surface._exact_parts: exact.append(x) or parts(x))
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    numbers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert format_column(numbers).decode("ascii") == reference_body(numbers.reshape(-1, 1))
    assert len(exact) < len(numbers) / 10


def test_decade_carries_and_three_digit_exponents(tmp_path):
    carries = []
    for k in (-300, -101, -100, -99, -5, 0, 5, 99, 100, 101, 300):
        scale = float(f"1e{k}")
        carries += [9.999999999995 * scale, 9.9999999999949 * scale,
                    9.99999999999951 * scale, 1.0000000000005 * scale]
    carries = np.array(carries)
    assert_formats_like_python(tmp_path, np.concatenate([carries, -carries]), columns=4)
    assert "1.00000000000e+06" in written(tmp_path, [[9.9999999999951e5, 1.0]])
    assert "-1.23400000000e-187" in written(tmp_path, [[1.0, -1.234e-187]])


def test_rounding_ties_take_the_exact_route(tmp_path):
    # 12-digit mantissas followed by a decimal 5: within 1e-3 of a tie
    rng = np.random.default_rng(7)
    mantissas = rng.integers(10**11, 10**12, 2000) + 0.5
    numbers = mantissas * 10.0 ** rng.integers(-40, 40, 2000) / 1e11
    assert_formats_like_python(tmp_path, numbers, columns=4)


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("columns", [2, 3, 4])
def test_block_boundaries(tmp_path, rows, columns):
    rng = np.random.default_rng(rows * 10 + columns)
    table = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-200, 200, (rows, columns))
    text = written(tmp_path, table)
    assert body_of(text, columns) == reference_body(table)
    assert text.count("\n") == rows + 1


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_one_column_blocks(rows):
    # a surface always has an axis and a value column; one column reaches
    # the field formatter only directly
    table = np.random.default_rng(rows).standard_normal((rows, 1)) * 1e-3
    out = b"".join(format_column(table[start:start + BLOCK, 0])
                   for start in range(0, rows, BLOCK))
    assert out.decode("ascii") == reference_body(table)


def test_zero_rows_write_the_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    PriceSurface(axis_names=("a",), axes=([],), value_names=("v",),
                 values=([],), metadata={"k": "x"}).write_csv(path)
    assert path.read_bytes() == b"# k: x\na,v\n"


def test_two_axis_surface_rows(tmp_path):
    path = tmp_path / "grid.csv"
    PriceSurface(axis_names=("x", "y"), axes=([1.0, 2.0], [-3.0, 4e-200]),
                 value_names=("v",), values=([[0.5, -0.25], [1e100, 0.0]],)).write_csv(path)
    assert path.read_text(encoding="ascii") == (
        "x,y,v\n"
        "1.00000000000e+00,-3.00000000000e+00,5.00000000000e-01\n"
        "1.00000000000e+00,4.00000000000e-200,-2.50000000000e-01\n"
        "2.00000000000e+00,-3.00000000000e+00,1.00000000000e+100\n"
        "2.00000000000e+00,4.00000000000e-200,0.00000000000e+00\n"
    )


@pytest.mark.parametrize("metadata", [{"k": "x\ny"}, {"k": "x\ry"}, {"a\nb": "v"},
                                      {"k": np.eye(2)}])
def test_metadata_line_breaks_are_refused(metadata):
    with pytest.raises(ValueError, match="line break"):
        PriceSurface(axis_names=("a",), axes=([1.0],), value_names=("v",),
                     values=([2.0],), metadata=metadata)


@pytest.mark.parametrize("names", [(("a,b",), ("v",)), (("a",), ("v\nw",)),
                                   (("a\rb",), ("v",)), (("a",), ("v,",))])
def test_column_names_that_would_break_the_header_are_refused(names):
    axis_names, value_names = names
    with pytest.raises(ValueError, match="comma or a line break"):
        PriceSurface(axis_names=axis_names, axes=([1.0],), value_names=value_names,
                     values=([2.0],))


def test_non_finite_axis_is_refused():
    with pytest.raises(ValueError, match="axis 'a' contains non-finite"):
        PriceSurface(axis_names=("a",), axes=([1.0, np.inf],), value_names=("v",),
                     values=([2.0, 3.0],))


# axis entries: signed zeros, negatives, subnormals, 1e+-300 and any finite double
AXIS_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.5, 5e-324, -5e-324, 2.225e-308, 1e300, -1e300, 1e-300,
                     -1e-300, LARGEST]),
    st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(AXIS_ENTRIES, min_size=1, max_size=4),
       st.lists(AXIS_ENTRIES, min_size=1, max_size=12),
       st.sampled_from([None, BLOCK + 3]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_two_axis_rows_equal_percent_format(tmp_path_factory, axis1, axis2, length2, seed):
    # each axis entry is formatted once and gathered into every row that holds
    # it; an axis 2 longer than a block spreads one axis-1 entry over blocks
    if length2 is not None:
        axis2 = np.resize(axis2, length2)
    rng = np.random.default_rng(seed)
    shape = (len(axis1), len(axis2))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    values.flat[rng.integers(0, values.size, 3)] = [-0.0, 5e-324, -LARGEST]
    path = tmp_path_factory.getbasetemp() / "grid.csv"
    PriceSurface(axis_names=("x", "y"), axes=(axis1, axis2), value_names=("v",),
                 values=(values,)).write_csv(path)
    rows = [(a, b, values[i, j]) for i, a in enumerate(np.asarray(axis1, dtype=float).tolist())
            for j, b in enumerate(np.asarray(axis2, dtype=float).tolist())]
    # compared line by line, so that a failure reports its first wrong row without a diff
    # of the whole file
    expected = "x,y,v\n" + reference_body(rows)
    assert path.read_bytes().decode("ascii").split("\n") == expected.split("\n")


def one_axis_surface(rows):
    return PriceSurface(axis_names=("a",), axes=(np.arange(rows, dtype=float),),
                        value_names=("v",), values=(np.full(rows, 0.5),))


def test_shorter_csv_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "s.csv"
    fresh = tmp_path / "fresh.csv"
    one_axis_surface(3 * BLOCK).write_csv(path)
    long_size = path.stat().st_size
    one_axis_surface(5).write_csv(path)
    one_axis_surface(5).write_csv(fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert fresh.read_bytes().count(b"\n") == 6 and path.stat().st_size < long_size / 100


def test_longer_csv_over_a_shorter_file(tmp_path):
    path = tmp_path / "s.csv"
    one_axis_surface(5).write_csv(path)
    one_axis_surface(BLOCK + 1).write_csv(path)
    assert path.read_bytes().decode("ascii") == "a,v\n" + reference_body(
        [(float(i), 0.5) for i in range(BLOCK + 1)])


def test_devnull_takes_the_rows_without_a_truncate():
    # ftruncate on a character device fails with EINVAL; only regular files are cut
    one_axis_surface(10).write_csv(os.devnull)


def test_failed_format_leaves_no_file(tmp_path, monkeypatch):
    def broken(numbers, separator):
        raise RuntimeError("formatter failed")

    monkeypatch.setattr(surface, "_format_fields", broken)
    path = tmp_path / "s.csv"
    with pytest.raises(RuntimeError):
        PriceSurface(axis_names=("a",), axes=([1.0],), value_names=("v",),
                     values=([2.0],)).write_csv(path)
    assert not path.exists()
    # an existing file is not opened, so not cut: it keeps every byte
    path.write_bytes(b"# earlier\na,v\n" + b"1.0,2.0\n" * 1000)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        one_axis_surface(5).write_csv(path)
    assert path.read_bytes() == before
