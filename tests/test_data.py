"""Dataset invariants, minibatch sampling, random streams, CSV round trips."""

import copy
import csv
import io
import math
import warnings

import numpy as np
import pytest

import gradmc.data
from gradmc import (
    CsvFormatError,
    Dataset,
    DomainError,
    Rng,
    ShapeError,
    resolve_minibatch_size,
    sample_minibatch,
    standard_normal,
)
from gradmc.data import load_csv_columns, save_csv_columns


# -- minibatch size spec -------------------------------------------------------

def test_proportion_spec_covertype_scale():
    assert resolve_minibatch_size(0.01, 581012) == 5810


def test_absolute_spec():
    assert resolve_minibatch_size(500, 581012) == 500


def test_tiny_dataset_clamps_to_one():
    assert resolve_minibatch_size(0.5, 1) == 1


def test_boundary_spec_of_one_is_absolute():
    assert resolve_minibatch_size(1.0, 1000) == 1


def test_spec_capped_at_dataset_size():
    assert resolve_minibatch_size(5000, 100) == 100


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
def test_non_positive_spec_rejected(bad):
    with pytest.raises(DomainError):
        resolve_minibatch_size(bad, 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_spec_rejected(bad):
    with pytest.raises(DomainError, match="positive and finite"):
        resolve_minibatch_size(bad, 10)


# -- dataset --------------------------------------------------------------------

def test_dataset_mismatched_rows():
    with pytest.raises(ShapeError):
        Dataset({"x": np.zeros((5, 2)), "y": np.zeros(4)})


def test_dataset_needs_observations():
    with pytest.raises(DomainError):
        Dataset({"x": np.zeros((0, 2))})
    with pytest.raises(DomainError):
        Dataset({})


def test_dataset_tensors_are_immutable():
    ds = Dataset({"x": np.arange(6.0).reshape(3, 2)})
    with pytest.raises(ValueError):
        ds["x"][0, 0] = 99.0


@pytest.mark.parametrize("layout", ["F", "rows strided", "columns strided", "rank3 transposed"])
def test_dataset_stores_entries_row_major(layout):
    base = np.random.default_rng(4).standard_normal((40, 6))
    given = {
        "F": np.asfortranarray(base),
        "rows strided": base[::2],
        "columns strided": base[:, ::2],
        "rank3 transposed": base.reshape(20, 2, 6).transpose(0, 2, 1),
    }[layout]
    ds = Dataset({"x": given, "y": given[:, 0]})
    for name, expected in (("x", given), ("y", given[:, 0])):
        stored = ds[name]
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert stored.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert given.flags.writeable  # the caller's array is copied, not frozen


def test_adopt_stores_a_float64_row_major_array_itself():
    given = np.random.default_rng(5).standard_normal((30, 4))
    column = given[:, 0].copy()
    ds = Dataset._adopt({"x": given, "y": column})
    for name, array in (("x", given), ("y", column)):
        assert np.shares_memory(ds[name], array)
        assert not ds[name].flags.writeable
        assert not array.flags.writeable  # handed over, so frozen in place


@pytest.mark.parametrize("layout", ["F", "rows strided", "columns strided", "float32", "int64"])
def test_adopt_copies_what_is_not_float64_row_major(layout):
    base = np.random.default_rng(4).standard_normal((40, 6))
    given = {
        "F": np.asfortranarray(base),
        "rows strided": base[::2],
        "columns strided": base[:, ::2],
        "float32": base.astype(np.float32),
        "int64": (base * 100).astype(np.int64),
    }[layout]
    stored = Dataset._adopt({"x": given})["x"]
    assert stored.flags.c_contiguous and not stored.flags.writeable
    assert not np.shares_memory(stored, given)
    assert stored.tobytes() == np.ascontiguousarray(given, dtype=np.float64).tobytes()
    assert given.flags.writeable  # a copy was taken, so the input stays the caller's


@pytest.mark.parametrize("entries", [
    {},
    {"x": np.zeros((0, 2))},
    {"x": np.zeros((5, 2)), "y": np.zeros(4)},
    {"x": np.float64(3.0)},
    {"x": np.zeros(3), "y": 1.0},
], ids=["empty", "no rows", "row counts differ", "scalar", "scalar second"])
def test_adopt_rejects_what_the_constructor_rejects(entries):
    with pytest.raises((DomainError, ShapeError)) as copied:
        Dataset(entries)
    with pytest.raises(type(copied.value)) as adopted:
        Dataset._adopt(entries)
    assert str(adopted.value) == str(copied.value)


def test_minibatch_views_are_the_indexed_rows():
    rng = np.random.default_rng(6)
    ds = Dataset({"X": np.asfortranarray(rng.standard_normal((500, 7))), "y": rng.standard_normal(500),
                  "T": rng.standard_normal((500, 2, 3))})
    stream = Rng(9)
    for _ in range(20):
        batch = sample_minibatch(ds, 60, stream)
        for name, arr in ds.entries.items():
            view = batch.views[name]
            expected = arr[batch.indices]
            assert view.shape == expected.shape and view.tobytes() == expected.tobytes()


def test_minibatch_does_not_mutate_dataset():
    ds = Dataset({"x": np.arange(10.0)})
    before = ds["x"].copy()
    batch = sample_minibatch(ds, 4, Rng(0))
    batch.views["x"][:] = -1.0
    np.testing.assert_array_equal(ds["x"], before)


# -- sampling -------------------------------------------------------------------

def test_full_batch_is_a_permutation():
    ds = Dataset({"x": np.arange(25.0)})
    batch = sample_minibatch(ds, 25, Rng(3))
    assert sorted(batch.indices.tolist()) == list(range(25))


def test_indices_distinct_and_in_range():
    ds = Dataset({"x": np.arange(50.0)})
    rng = Rng(11)
    for _ in range(50):
        batch = sample_minibatch(ds, 7, rng)
        assert len(set(batch.indices.tolist())) == 7
        assert batch.indices.min() >= 0 and batch.indices.max() < 50
        np.testing.assert_array_equal(batch.views["x"], ds["x"][batch.indices])


def test_sampling_is_deterministic_per_seed():
    ds = Dataset({"x": np.arange(30.0)})
    a = sample_minibatch(ds, 5, Rng(21))
    b = sample_minibatch(ds, 5, Rng(21))
    np.testing.assert_array_equal(a.indices, b.indices)


def test_oversized_minibatch_rejected():
    ds = Dataset({"x": np.arange(5.0)})
    with pytest.raises(DomainError):
        sample_minibatch(ds, 6, Rng(0))


def test_minibatch_uniformity():
    # n=2 of N=10 over 1e5 draws: each index frequency 0.2 +/- 0.01
    ds = Dataset({"x": np.arange(10.0)})
    rng = Rng(123)
    counts = np.zeros(10)
    draws = 100_000
    for _ in range(draws):
        counts[sample_minibatch(ds, 2, rng).indices] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.2) < 0.01)


# The chi-square upper 1e-4 quantile at C(N, n) - 1 degrees of freedom.
CHI2_UPPER_1E4 = {19: 50.795, 69: 121.440, 14: 42.579, 6: 27.856}


@pytest.mark.parametrize("n_total, n", [(6, 3), (8, 4), (6, 4), (7, 1), (5, 5)])
def test_minibatch_subsets_are_jointly_uniform(n_total, n):
    # Every n-subset of N is equally likely, not just every index: count each
    # subset (as a bit mask) over 60 000 draws.  (8, 4) draws half the data,
    # where repeats are most frequent; (6, 4) and (5, 5) take more than half.
    rng = Rng(n_total * 10 + n)
    draws = 60_000
    indices = np.array([rng.indices_without_replacement(n_total, n) for _ in range(draws)])
    masks = np.left_shift(1, indices).sum(axis=1)
    assert np.array_equal(np.bitwise_count(masks), np.full(draws, n))  # n distinct indices
    counts = np.unique(masks, return_counts=True)[1]
    subsets = math.comb(n_total, n)
    if subsets == 1:
        assert counts.tolist() == [draws]
        return
    expected = draws / subsets
    chi2 = (((counts - expected) ** 2).sum() + (subsets - counts.size) * expected ** 2) / expected
    assert chi2 < CHI2_UPPER_1E4[subsets - 1], (chi2, subsets - 1)


@pytest.mark.parametrize("n_total, n", [(10_000, 100), (50, 20), (8, 4), (25, 20), (25, 25), (1, 1)])
def test_indices_come_sorted_and_distinct(n_total, n):
    rng = Rng(17)
    for _ in range(300):
        indices = rng.indices_without_replacement(n_total, n)
        assert indices.shape == (n,) and indices.dtype == np.int64
        assert np.all(np.diff(indices) > 0) and indices[0] >= 0 and indices[-1] < n_total


def test_a_copy_of_a_batch_stream_mid_block_serves_the_same_minibatches():
    # (1000, 100) rows come 81 to a block: 37 draws leave the stream mid-block,
    # and 500 more cross six refills.
    rng = Rng(4)
    for _ in range(37):
        rng.indices_without_replacement(1000, 100)
    copied = copy.deepcopy(rng)
    for _ in range(500):
        assert np.array_equal(copied.indices_without_replacement(1000, 100),
                              rng.indices_without_replacement(1000, 100))
    assert copied.draw_count == rng.draw_count == 537


def test_another_minibatch_size_drops_the_pending_index_rows():
    # After one block each, a and b stand at the same generator state with
    # different rows pending; both drop them for (30, 7) and again for (50, 5).
    a, b, kept = Rng(8), Rng(8), Rng(8)
    for _ in range(3):
        a.indices_without_replacement(50, 5)
    b.indices_without_replacement(50, 5)
    other = a.indices_without_replacement(30, 7)
    assert np.array_equal(other, b.indices_without_replacement(30, 7))
    assert other.size == 7 and np.all(np.diff(other) > 0) and other[-1] < 30
    fresh = a.indices_without_replacement(50, 5)
    assert np.array_equal(fresh, b.indices_without_replacement(50, 5))
    served = [kept.indices_without_replacement(50, 5) for _ in range(5)]
    assert not any(np.array_equal(fresh, row) for row in served[1:])
    assert a.draw_count == 5 and b.draw_count == 3


# -- normal draws ----------------------------------------------------------------

def test_standard_normal_empty_shape():
    assert standard_normal(Rng(0), (0,)).shape == (0,)


def test_standard_normal_deterministic():
    a = standard_normal(Rng(77), (5, 2))
    b = standard_normal(Rng(77), (5, 2))
    assert np.array_equal(a, b)


def test_standard_normal_moments():
    draws = standard_normal(Rng(5), (1_000_000,))
    assert abs(draws.mean()) < 0.005
    assert abs(draws.var() - 1.0) < 0.01


def test_spawned_streams_differ_from_parent_and_each_other():
    root = Rng(9)
    a, b = root.spawn(2)
    xs = [r.standard_normal((4,)) for r in (root, a, b)]
    assert not np.array_equal(xs[0], xs[1])
    assert not np.array_equal(xs[1], xs[2])


def test_rng_counts_draws():
    rng = Rng(1)
    rng.standard_normal((3,))
    rng.uniform(())
    rng.indices_without_replacement(10, 2)
    assert rng.draw_count == 3


# -- CSV -------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    arrays = {"X": rng.standard_normal((12, 3)), "y": rng.standard_normal(12)}
    path = tmp_path / "data.csv"
    save_csv_columns(path, arrays)
    loaded = load_csv_columns(path)
    assert loaded["X"].shape == (12, 3)
    assert loaded["y"].shape == (12,)
    np.testing.assert_array_equal(loaded["X"], arrays["X"])
    np.testing.assert_array_equal(loaded["y"], arrays["y"])


def test_csv_write_is_the_per_field_format_text(tmp_path):
    # The written text equals each field formatted on its own with
    # f"{v:.17g}", specials included, at row counts around the write block.
    specials = [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0,
                5e-324, -2.5e-310, 1.0 / 3.0, -1e300]
    rng = np.random.default_rng(3)
    first = np.array(specials + list(rng.standard_normal(6)))
    block = gradmc.data._WRITE_ROWS
    for n_rows in (first.size, 0, 1, block, block + 1):
        y = np.resize(first, n_rows)
        X = np.column_stack([y[::-1], rng.standard_normal(y.size) * 1e-5])
        path = tmp_path / "data.csv"
        save_csv_columns(path, {"X": X, "y": y})
        columns = [X[:, 0], X[:, 1], y]
        expected = "X.1,X.2,y\n" + "".join(
            ",".join(f"{col[i]:.17g}" for col in columns) + "\n" for i in range(y.size)
        )
        assert path.read_text() == expected, n_rows
        if n_rows == first.size:
            assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"} <= set(expected.replace("\n", ",").split(","))


def test_csv_matrix_entries_are_row_major(tmp_path):
    path = tmp_path / "m.csv"
    matrix = np.arange(24.0).reshape(8, 3)
    # Written as X.1,X.2,X.3, then as X.0,X.1,X.2 (the columns gradmc run writes).
    for entries in ({"X": matrix}, {f"X.{j}": matrix[:, j] for j in range(3)}):
        save_csv_columns(path, {**entries, "y": np.arange(8.0)})
        loaded = load_csv_columns(path)
        assert loaded["X"].flags.c_contiguous
        np.testing.assert_array_equal(loaded["X"], matrix)


def test_csv_header_convention(tmp_path):
    path = tmp_path / "data.csv"
    save_csv_columns(path, {"X": np.zeros((2, 3)), "y": np.zeros(2)})
    header = path.read_text().splitlines()[0]
    assert header == "X.1,X.2,X.3,y"


@pytest.mark.parametrize("text, line", [
    ("x,y\n1.0,2.0\n3.0\n", 3),
    # numpy's reader takes a steady 3 fields per row; the header count must still rule.
    ("x,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n", 2),
    # Comment lines count: the bad row is the file's fourth line.
    ("# c\nx,y\n1.0,2.0\n3.0\n", 4),
], ids=["short-row", "every-row-wider-than-header", "short-row-after-comment"])
def test_csv_malformed_row_reports_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=rf"bad\.csv:{line}: expected 2 fields"):
        load_csv_columns(path)


@pytest.mark.parametrize("text, line", [
    ("x\n1.0\npotato\n", 3),
    ("x\n" + "1.0\n" * 4999 + "potato\n", 5001),
    # numpy's reader strips an information separator as whitespace; float() does not.
    ("x\n1.0\n\x1c2.0\n", 3),
], ids=["word", "last-of-5000-rows", "information-separator"])
def test_csv_unparseable_value_reports_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=rf"bad\.csv:{line}: could not convert"):
        load_csv_columns(path)


def _float_oracle(text):
    """The CSV read the simple way: drop `#` lines, split, skip blank rows, float() each field."""
    rows = list(csv.reader(l for l in io.StringIO(text, newline="") if not l.startswith("#")))
    header = [h.strip() for h in rows[0]]
    data = [[float(field) for field in row] for row in rows[1:] if row]
    table = np.array(data, dtype=np.float64).reshape(len(data), len(header))
    return {name: table[:, j] for j, name in enumerate(header)}


_rng = np.random.default_rng(17)
_DIGITS = [f"{v:.17g}" for v in _rng.standard_normal(30) * 10.0 ** _rng.integers(-300, 300, 30)]
_SPECIAL = ["0.0", "-0.0", "5e-324", "-4.9406564584124654e-324", "2.2250738585072009e-308",
            "nan", "-nan", "inf", "-inf", "NaN", "-Infinity"]


@pytest.mark.parametrize("text, row_loop", [
    ("x\n" + "\n".join(_DIGITS) + "\n", False),
    ("a,b\n" + "\n".join(f"{v},{w}" for v, w in zip(_DIGITS, _SPECIAL)) + "\n", False),
    ("a,b\r\n 1.5 ,\t-2\r\n\r\n3e-5 , 4 \r\n\n", False),
    ("# comment\na,b\n\n1,2\n# another\n3,4", False),
    ("a\n1\n\n2\n", False),
    ('a,b\n"1.5",2\n3,"4e2"\n', True),
    ("a,b\n1_000,2\n3,4\n", True),
    ("a,b,c\n", True),  # numpy's reader sees no columns at all
    ("a\n", False),
], ids=["digits", "specials", "spaces-crlf-blank", "comments", "one-column", "quoted",
        "underscore", "header-only", "header-only-one-column"])
def test_csv_load_is_bit_identical_to_float_per_field(tmp_path, monkeypatch, text, row_loop):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    row_loop_calls = []
    parse_rows = gradmc.data._parse_rows
    monkeypatch.setattr(gradmc.data, "_parse_rows",
                        lambda *args: row_loop_calls.append(args) or parse_rows(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_csv_columns(path)
    expected = _float_oracle(text)
    assert list(loaded) == list(expected)
    for name, column in expected.items():
        assert loaded[name].shape == column.shape
        np.testing.assert_array_equal(loaded[name].view(np.int64), column.view(np.int64))
    assert bool(row_loop_calls) == row_loop


def test_csv_gappy_group_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    for header in ("X.1,X.3", "X.0,X.2"):
        path.write_text(f"{header}\n1.0,2.0\n")
        with pytest.raises(CsvFormatError):
            load_csv_columns(path)


@pytest.mark.parametrize("header", ["y,y.1", "y.1,y", "y,y"])
def test_csv_clashing_columns_rejected(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n1.0,2.0\n")
    with pytest.raises(CsvFormatError):
        load_csv_columns(path)
