"""Datasets, minibatch sampling, seeded random streams, and CSV interchange.

A Dataset is a named collection of float64 arrays sharing their first axis
(one row per observation).  Minibatches are uniform index subsets drawn
without replacement, independent from call to call, and their indices come
sorted.  All randomness flows through :class:`Rng`, a thin wrapper over
numpy's PCG64 whose streams are fully determined by (seed, call sequence)
and can be spawned into statistically independent children for parallel
chains.  A stream draws minibatch indices, and a chain its noise rows
(``samplers``), in blocks of ``_BLOCK_VALUES`` values, so the cost of one
generator call is shared by many minibatches or updates.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import CsvFormatError, DomainError, ShapeError

__all__ = [
    "Dataset",
    "Minibatch",
    "Rng",
    "resolve_minibatch_size",
    "sample_minibatch",
    "standard_normal",
    "load_csv_columns",
    "save_csv_columns",
]

# Streams draw minibatch index rows and noise rows in blocks of this many
# values (64 KiB of int64 or float64), or one row when a row is longer.
_BLOCK_VALUES = 8192


class Rng:
    """Deterministic random stream backed by the 64-bit PCG64 generator.

    Identical (seed, consumption sequence) gives identical outputs on every
    platform for a fixed numpy version; ``draw_count`` records how many draws
    the stream has served: one per call, per minibatch and per noise row.  A
    stream is single-owner: never share one across threads, spawn children
    instead.

    Two kinds of draw are served from rows drawn ahead in a block.
    ``pending_indices`` iterates over the index rows that
    ``indices_without_replacement`` drew for the current ``(n_total, n)``
    and has not served yet; ``pending_rows`` over the normal rows that a
    chain's noise draws (``samplers``) drew ahead.  They belong to the
    stream, so a copy of it carries them and continues where the stream
    stands; the generator itself may run up to one block ahead of the draws
    served.
    """

    def __init__(self, seed: int, _sequence: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        self._sequence = (
            np.random.SeedSequence(self.seed) if _sequence is None else _sequence
        )
        self._generator = np.random.Generator(np.random.PCG64(self._sequence))
        self.draw_count = 0
        self.pending_rows = iter(())
        self.pending_indices = iter(())
        self._indices_for = None  # the (n_total, n) of the pending index rows

    def spawn(self, n: int) -> list["Rng"]:
        """Derive n independent child streams (safe for parallel chains)."""
        return [Rng(self.seed, _sequence=seq) for seq in self._sequence.spawn(n)]

    def standard_normal(self, shape=()) -> np.ndarray:
        self.draw_count += 1
        return self._generator.standard_normal(shape)

    def uniform(self, shape=()) -> np.ndarray:
        self.draw_count += 1
        return self._generator.random(shape)

    def indices_without_replacement(self, n_total: int, n: int) -> np.ndarray:
        """n distinct indices in ``[0, n_total)``, a uniform n-subset, sorted ascending.

        Served from a block of pending rows, one row per call; a call with
        another ``(n_total, n)`` drops the pending rows and draws a new block.
        Each row holds ``k = min(n, n_total - n)`` indices, and where k < n the
        call returns the row's complement.
        """
        self.draw_count += 1
        row = next(self.pending_indices, None)
        if row is None or self._indices_for != (n_total, n):
            self._indices_for = (n_total, n)
            self.pending_indices = iter(self._index_block(n_total, min(n, n_total - n)))
            row = next(self.pending_indices)
        if row.size == n:
            return row
        keep = np.ones(n_total, dtype=bool)
        keep[row] = False
        return np.flatnonzero(keep)

    def _index_block(self, n_total: int, k: int) -> np.ndarray:
        """``max(1, _BLOCK_VALUES // k)`` independent uniform k-subsets of ``[0, n_total)``, one sorted row each.

        Each row starts as k uniform draws.  A value repeated within a row is
        replaced by a fresh draw, and the rows re-sorted, until no row holds a
        repeat: sequential rejection sampling of the missing values, so each
        row is a uniform k-subset.  With k <= n_total / 2 a fresh draw is new
        to its row with probability at least 1/2, so O(log k) rounds suffice.
        """
        generator = self._generator
        block = generator.integers(0, n_total, (max(1, _BLOCK_VALUES // max(1, k)), k))
        block.sort(axis=1)
        while True:
            repeat = block[:, 1:] == block[:, :-1]
            m = np.count_nonzero(repeat)
            if not m:
                return block
            block[:, 1:][repeat] = generator.integers(0, n_total, m)
            block.sort(axis=1)


class Dataset:
    """Named tensors split along the first axis; immutable once constructed.

    Every entry is stored C-contiguous (row-major) float64 and read-only,
    whatever the layout it came in, so one observation's values are adjacent
    in memory and a minibatch gather copies whole rows.  Gathering rows of a
    column-major matrix instead reads one scattered cache line per column
    for every row: several times slower for a 20-column matrix.

    ``Dataset(entries)`` copies every entry, so the caller's arrays stay
    theirs.  ``gen_synth`` and ``gradmc run`` adopt theirs (``_adopt``), so
    generated and loaded data exist once in memory; the train and test
    datasets of one ``gen_synth`` call are slices of one read-only buffer.
    """

    def __init__(self, entries: Mapping[str, "np.typing.ArrayLike"]):
        self._store(entries, np.array)

    @classmethod
    def _adopt(cls, entries: Mapping[str, "np.typing.ArrayLike"]) -> "Dataset":
        """A dataset over the given arrays themselves, copied only where dtype or layout differ.

        Each stored array is made read-only: the caller hands its arrays over.
        """
        dataset = cls.__new__(cls)
        dataset._store(entries, np.asarray)
        return dataset

    def _store(self, entries, convert) -> None:
        if not entries:
            raise DomainError("a dataset needs at least one entry")
        stored = {}
        n = None
        for name, value in entries.items():
            arr = convert(value, dtype=np.float64, order="C")
            if arr.ndim == 0:
                raise ShapeError(f"entry {name!r} must have an observation axis")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ShapeError(
                    f"entry {name!r} has {arr.shape[0]} rows, expected {n}"
                )
            arr.flags.writeable = False
            stored[name] = arr
        if n < 1:
            raise DomainError("a dataset needs at least one observation")
        self._entries = stored
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    @property
    def entries(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType(self._entries)

    def __contains__(self, name):
        return name in self._entries

    def __getitem__(self, name) -> np.ndarray:
        return self._entries[name]


class Minibatch(NamedTuple):
    """Distinct observation indices, sorted ascending, plus those rows of every entry.

    The rows of each view come in index order, so a minibatch sum adds its
    terms in that order.
    """

    indices: np.ndarray
    views: dict


def resolve_minibatch_size(spec: float, n_total: int) -> int:
    """Turn a size spec into a count: below 1 it is a proportion of the data.

    A spec of exactly 1.0 counts as an absolute size of one observation.
    """
    spec = float(spec)
    if not 0.0 < spec < math.inf:
        raise DomainError(f"minibatch size spec must be positive and finite, got {spec}")
    if spec < 1.0:
        return max(1, math.floor(spec * n_total))
    return min(int(round(spec)), n_total)


def sample_minibatch(dataset: Dataset, n: int, rng: Rng) -> Minibatch:
    """Draw n distinct observation indices uniformly and gather those rows of every entry."""
    n_total = dataset._n
    if not 1 <= n <= n_total:
        raise DomainError(f"minibatch size {n} outside [1, {n_total}]")
    indices = rng.indices_without_replacement(n_total, n)
    # The stored dict, not an ``entries`` proxy built on every call.
    return Minibatch(indices, {name: arr.take(indices, 0) for name, arr in dataset._entries.items()})


def standard_normal(rng: Rng, shape) -> np.ndarray:
    """I.i.d. standard normal tensor of the given shape."""
    return rng.standard_normal(tuple(shape))


# ---------------------------------------------------------------------------
# CSV interchange.  Header names the columns; a bare column is a vector, and
# columns "name.<i>" whose suffixes run 0..k-1 or 1..k group (in suffix order)
# into a (rows, k) matrix.  save_csv_columns writes a matrix as name.1..name.k.
# Values are written with 17 significant digits so files round-trip exactly.
# ---------------------------------------------------------------------------

_GROUPED = re.compile(r"^(.+)\.(\d+)$")
# save_csv_columns formats this many rows at a time, so the Python floats it
# formats exist for one block, not for the whole table.
_WRITE_ROWS = 4096


def save_csv_columns(path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write named vectors/matrices as one CSV with the grouping convention."""
    header = []
    columns = []
    n_rows = None
    for name in arrays:
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.ndim == 1:
            header.append(name)
            columns.append(arr)
        elif arr.ndim == 2:
            for j in range(arr.shape[1]):
                header.append(f"{name}.{j + 1}")
                columns.append(arr[:, j])
        else:
            raise ShapeError(f"cannot write rank-{arr.ndim} entry {name!r} to CSV")
        if n_rows is None:
            n_rows = arr.shape[0]
        elif arr.shape[0] != n_rows:
            raise ShapeError(f"entry {name!r} row count differs")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        if columns:
            # One %-format per row gives the text of a per-field f"{v:.17g}".
            row = ",".join(["%.17g"] * len(columns)) + "\n"
            for start in range(0, n_rows, _WRITE_ROWS):
                block = np.column_stack([col[start:start + _WRITE_ROWS] for col in columns])
                handle.writelines(row % tuple(values) for values in block.tolist())


class _DataLines:
    """A CSV file's lines without its ``#`` comment lines.

    ``lineno`` is the physical 1-based number of the last line read, comment
    lines included, so errors point at the line an editor shows.
    """

    def __init__(self, handle):
        self._path = handle.name
        self._numbered = enumerate(handle, start=1)
        self.lineno = 0

    def __iter__(self):
        try:
            for self.lineno, line in self._numbered:
                if not line.startswith("#"):
                    yield line
        except UnicodeDecodeError as exc:  # a ValueError numpy's reader would take for a bad row
            raise CsvFormatError(f"{self._path}: not UTF-8 text ({exc.reason})") from None


def _float_readable(lines):
    """Pass lines on to ``np.loadtxt`` until one it would read unlike ``float()``."""
    for line in lines:
        # loadtxt strips the information separators around a field as
        # whitespace, float() rejects them: let the row loop decide.
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("information separator in a data line")
        yield line


def _parse_rows(path, handle, n_columns: int) -> np.ndarray:
    """The reference parser: ``float()`` on every field of every data row."""
    lines = _DataLines(handle)
    reader = csv.reader(lines)
    next(reader)  # the header, checked by the caller
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != n_columns:
            raise CsvFormatError(
                f"{path}:{lines.lineno}: expected {n_columns} fields, got {len(row)}"
            )
        try:
            rows.append([float(field) for field in row])
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lines.lineno}: {exc}") from None
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), n_columns)


def load_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a CSV back into named float64 arrays.

    The first line that does not start with ``#`` is the header; a ``#``
    starts a comment only as a line's first character.  Blank lines are
    skipped.  Every other line is a data row of exactly as many fields as
    the header, each one a number that ``float()`` accepts (surrounding
    spaces, ``nan`` and ``inf`` included).  Malformed rows (wrong field
    count, unparseable numbers) are hard errors carrying the path and the
    physical 1-based line number, comment lines counted; so is a file that
    is not UTF-8, with its path.  Columns group by the rule above.

    numpy's C reader parses the rows; a file it rejects or reads with another
    column count (quoted cells, ``1_000``, any malformed row) is parsed again
    by the row loop, which returns the same bits or raises the error.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        lines = _DataLines(handle)
        try:
            header = next(csv.reader(lines))
        except StopIteration:
            raise CsvFormatError(f"{path}:1: empty file") from None
        header_line = lines.lineno
        header = [h.strip() for h in header]
        if any(not h for h in header):
            raise CsvFormatError(f"{path}:{header_line}: blank column name in header")
        try:
            with warnings.catch_warnings():
                # A header-only file is an empty table, not a warning.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    _float_readable(lines), delimiter=",", dtype=np.float64,
                    ndmin=2, comments=None,
                )
        except ValueError:
            table = None
        if table is None or table.shape[1] != len(header):
            handle.seek(0)
            table = _parse_rows(path, handle, len(header))

    # base -> {suffix: column index}; a bare name has the suffix None.
    groups: dict[str, dict[int | None, int]] = {}
    for col, name in enumerate(header):
        match = _GROUPED.match(name)
        base, suffix = (match.group(1), int(match.group(2))) if match else (name, None)
        cols = groups.setdefault(base, {})
        if cols and (suffix is None or None in cols or suffix in cols):
            raise CsvFormatError(
                f"{path}:{header_line}: column {name!r} clashes with another {base!r} column"
            )
        cols[suffix] = col

    result = {}
    for base, cols in groups.items():
        if None in cols:
            result[base] = table[:, cols[None]]
            continue
        suffixes = sorted(cols)
        if suffixes[0] > 1 or suffixes[-1] - suffixes[0] != len(suffixes) - 1:
            raise CsvFormatError(
                f"{path}:{header_line}: group {base!r} has gaps in its column suffixes"
            )
        # take() lays the matrix out row-major, as Dataset stores it.
        result[base] = table.take([cols[s] for s in suffixes], axis=1)
    return result
