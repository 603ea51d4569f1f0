"""Dataset invariants, minibatch sampling, random streams, CSV round trips."""

import csv
import io
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
    # f"{v:.17g}", specials included.
    specials = [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0,
                5e-324, -2.5e-310, 1.0 / 3.0, -1e300]
    rng = np.random.default_rng(3)
    y = np.array(specials + list(rng.standard_normal(6)))
    X = np.column_stack([y[::-1], rng.standard_normal(y.size) * 1e-5])
    path = tmp_path / "data.csv"
    save_csv_columns(path, {"X": X, "y": y})
    columns = [X[:, 0], X[:, 1], y]
    expected = "X.1,X.2,y\n" + "".join(
        ",".join(f"{col[i]:.17g}" for col in columns) + "\n" for i in range(y.size)
    )
    assert path.read_text() == expected
    assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"} <= set(expected.replace("\n", ",").split(","))


def test_csv_matrix_entries_are_row_major(tmp_path):
    path = tmp_path / "m.csv"
    matrix = np.arange(24.0).reshape(8, 3)
    save_csv_columns(path, {"X": matrix, "y": np.arange(8.0)})
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
    path.write_text("X.1,X.3\n1.0,2.0\n")
    with pytest.raises(CsvFormatError):
        load_csv_columns(path)


@pytest.mark.parametrize("header", ["y,y.1", "y.1,y", "y,y"])
def test_csv_clashing_columns_rejected(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n1.0,2.0\n")
    with pytest.raises(CsvFormatError):
        load_csv_columns(path)
