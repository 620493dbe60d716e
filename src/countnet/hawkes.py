"""Discrete-time multidimensional Hawkes process over count data.

The conditional intensity of node ``i`` on time bin ``k+1`` follows

    lam[i, k+1] = mu[i] + (lam[i, k] - mu[i]) * (1 - beta[i] * dt)
                  + sum_j alpha[i, j] * counts[j, k]

with lam[i, 0] = mu[i], and the count of bin k drawn Poisson(lam[i, k] * dt).
``alpha[i, j]`` is the intensity jump at node i caused by one event at
node j, so the excitation matrix reads as a directed, weighted influence
network (column j = influence exerted by j).

This module provides the parameter/count containers, the forward simulator
used as a data generator, the one-step intensity propagation reused as the
filter's forecast model, CSV/JSON serialization for both, and the CSV
table writer, block reader and row growth that the other file formats share.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng


def json_floats(value, ndim: int = 0):
    """A parsed JSON number as a float (ndim 0), or ndim-deep arrays of them as float64."""
    cells = np.array(value, dtype=object)
    # type() keeps JSON true and false out; the bound rejects NaN, infinities and too large integers
    if cells.ndim != ndim or not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                                     for v in cells.flat):
        raise ValueError(f"must be a {ndim}-d array of finite numbers" if ndim else "must be a finite number")
    return cells.astype(np.float64) if ndim else float(cells)


def read_json(path: str | Path, build=lambda value: value):
    """``build`` of the JSON value in the file ``path``; a ValueError, a file that does not
    parse included, names the file."""
    try:
        return build(json.loads(Path(path).read_text()))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def require_keys(obj: dict, keys: tuple[str, ...]) -> None:
    """Raise ValueError, naming the first missing key, unless ``obj`` is a dict holding every one of ``keys``."""
    if type(obj) is not dict:
        raise ValueError("must be a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"must hold {', '.join(keys)}; {missing[0]!r} is missing")


def check_counts(counts: np.ndarray) -> None:
    """Raise ValueError unless every count is a finite, non-negative integer."""
    # among finite x, floor(x) == |x| holds for exactly the non-negative integers; object
    # (ints past 64 bits), string and complex arrays have no such test, so fail on their kind
    if counts.dtype.kind not in "biuf" or not (np.isfinite(counts) & (np.floor(counts) == np.abs(counts))).all():
        raise ValueError("counts must be finite, non-negative integers")


def labels_or_default(labels: list[str] | None, m: int) -> list[str]:
    """The given node labels as a new list, or node_1 .. node_m when there are none."""
    return list(labels) if labels else [f"node_{j + 1}" for j in range(m)]


def check_labels(labels: list[str] | None, m: int) -> None:
    """Raise ValueError unless ``labels`` is None or m distinct node labels."""
    if labels is None:
        return
    if len(labels) != m:
        raise ValueError("node_labels length must match the node count")
    if len(set(labels)) < m:
        repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
        raise ValueError(f"node label {repeated!r} is repeated")


# cells per ``%`` pass of ``write_rows``, which holds about 50 bytes of Python objects per cell
WRITE_CHUNK_CELLS = 1 << 12
# cells per block of ``csv.reader`` rows in ``csv_blocks``
ROW_CHUNK_CELLS = 1 << 16
# characters of a CSV file read per block of lines that numpy splits; a block's
# scratch arrays stay near this size, which keeps the readers' peak memory low
READ_CHUNK_CHARS = 1 << 17
_CSV_SPECIAL = re.compile('[,"\r\n]')


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer``'s default dialect writes it in a row of two or more fields."""
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


def write_rows(fh, row_format: str, *columns: np.ndarray) -> None:
    """Write one ``row_format`` line per row of the columns set side by side.

    Each column is an (n,) or (n, k) array; cells reach ``%`` as Python
    objects (ints, floats, strings), one ``%`` per chunk of rows.
    """
    widths = [1 if c.ndim == 1 else c.shape[1] for c in columns]
    n, width = len(columns[0]), sum(widths)
    step = max(1, WRITE_CHUNK_CELLS // width)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = np.empty((hi - lo, width), dtype=object)
        at = 0
        for column, w in zip(columns, widths):
            block[:, at:at + w] = column[lo:hi].reshape(hi - lo, w)
            at += w
        fh.write(row_format * (hi - lo) % tuple(block.ravel().tolist()))


def write_table(path: str | Path, header: list[str] | None, row_format: str, *columns: np.ndarray) -> None:
    """Write a CSV table: the ``header`` cells quoted by ``csv_field`` on one ``\\r\\n`` line (no
    line when ``header`` is None), then ``write_rows``. Every CSV file of the package is written here."""
    with Path(path).open("w", newline="") as fh:
        if header is not None:
            fh.write(",".join(map(csv_field, header)) + "\r\n")
        write_rows(fh, row_format, *columns)


def byte_matrix(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` bytes of each range ``data[start:end]``, NUL-padded.

    The result has shape (*starts.shape, width).
    """
    padded = np.concatenate((data, np.zeros(width, np.uint8)))
    # a width-byte record at every offset, so one index copies each range whole
    windows = np.ndarray((len(data) + 1,), dtype=f"V{width}", buffer=padded, strides=(1,))
    cells = windows[starts].view(np.uint8).reshape(*np.shape(starts), width)
    lengths = ends - starts
    if (lengths < width).any():
        cells *= np.arange(width) < lengths[..., None]
    return cells


@dataclass
class CsvBlock:
    """Consecutive rows of a CSV file, each row's leading fields as byte ranges.

    Field j of row r is ``data[starts[r, j]:ends[r, j]]`` in UTF-8, empty
    where the row has fewer fields. ``fields`` counts each row's fields and
    ``lines`` gives the physical line each row ends on, both as
    ``csv.reader`` counts them.
    """

    data: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    fields: np.ndarray
    lines: np.ndarray

    def text(self, r: int, j: int) -> str:
        return self.data[self.starts[r, j]:self.ends[r, j]].tobytes().decode("utf-8", "surrogatepass")


def _split_lines(text: str, width: int, first_line: int, limit: int) -> CsvBlock | None:
    """Whole lines split on commas; None if csv.reader must split them: the text holds a
    quote character or a bare carriage return, or a line longer than ``limit``."""
    if '"' in text or text.endswith("\r"):
        return None
    text = text if text.endswith("\n") else text + "\n"
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    seps = np.flatnonzero((data == 10) | (data == 44))
    newlines = np.flatnonzero(data[seps] == 10)  # the positions in seps of each line's end
    stops = seps[newlines]
    begins = np.concatenate(([0], stops[:-1] + 1))
    crlf = data[np.maximum(stops - 1, 0)] == 13
    if (stops - begins).max() > limit or np.count_nonzero(data == 13) != np.count_nonzero(crlf):
        return None
    stops -= crlf  # \r\n ends a line as \n does
    first = np.concatenate(([0], newlines[:-1] + 1))  # each line's first comma, if it has one
    count = newlines - first
    fields = np.where(stops > begins, count + 1, 0)
    if (count == width - 1).all():  # a table: the separators are the ends of each line's fields
        ends = seps.reshape(len(stops), width)
        ends[:, -1] = stops
        starts = np.concatenate((begins[:, None], ends[:, :-1] + 1), axis=1)
    else:
        # field j ends at the j-th comma of its line, or at the line's end; a missing field is empty there
        j = np.arange(width)
        after = seps[np.minimum(first[:, None] + j, len(seps) - 1)]
        ends = np.where(j < count[:, None], after, stops[:, None])
        starts = np.concatenate((begins[:, None], ends[:, :-1] + 1), axis=1)
        starts = np.where(j < fields[:, None], starts, ends)
    return CsvBlock(data, starts, ends, fields, np.arange(first_line, first_line + len(stops)))


def _rows_block(rows: list[list[str]], lines: list[int], width: int) -> CsvBlock:
    """``csv.reader`` rows as a CsvBlock of their first ``width`` fields."""
    cells = [(row[j] if j < len(row) else "").encode("utf-8", "surrogatepass")
             for row in rows for j in range(width)]
    lengths = np.fromiter(map(len, cells), np.int64, len(cells)).reshape(len(rows), width)
    ends = np.cumsum(lengths).reshape(lengths.shape)
    return CsvBlock(np.frombuffer(b"".join(cells), np.uint8), ends - lengths, ends,
                    np.array([len(row) for row in rows], dtype=np.int64), np.array(lines, dtype=np.int64))


def csv_blocks(fh, width: int | None = None) -> Iterator:
    """Yield a CSV file's header row, then its data rows in CsvBlocks.

    ``fh`` is a text file opened with ``newline=""``. The header is
    ``csv.reader``'s first row, None for an empty file (no block follows).
    Each data row keeps its first ``width`` fields, or as many as the
    header has (at least one) when ``width`` is None. Fields, field counts
    and line numbers are those of ``csv.reader`` (default dialect): blocks
    of whole lines (``READ_CHUNK_CHARS`` and the rest of the last line) are
    split on commas with numpy, until a block holds a quote character, a
    bare carriage return or a line longer than ``csv.field_size_limit()``,
    or fails to decode; from there
    ``csv.reader`` reads the rest, a refused block from memory, one that
    fails to decode from the file's start. Its ValueErrors (a decoding
    error) read "line N: ..." as the readers' messages do; rows before the
    error come first, in their own block.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    yield header
    if header is None:
        return
    width = width or max(len(header), 1)
    done = reader.line_num  # lines already yielded, the header's included
    limit = csv.field_size_limit()
    while True:
        try:
            text = fh.read(READ_CHUNK_CHARS)
            text += fh.readline()  # to the end of its last line
        except UnicodeDecodeError:  # csv.reader meets the error on its line, reading from the start
            fh.seek(0)
            for k in range(done):
                try:
                    next(fh)
                except ValueError as err:  # a line that fails to decode, as csv.reader would have met it
                    raise ValueError(f"line {k}: {err}") from err
            reader = csv.reader(fh)
            break
        if not text:
            return
        block = _split_lines(text, width, done + 1, limit)
        if block is None:  # csv.reader reads the refused lines from memory, then the rest of the file
            reader = csv.reader(itertools.chain(io.StringIO(text, newline=""), fh))
            break
        yield block
        done += len(block.lines)
    rows, row_lines = [], []
    per_block = max(1, ROW_CHUNK_CELLS // width)
    try:
        for row in reader:
            rows.append(row)
            row_lines.append(done + reader.line_num)
            if len(rows) == per_block:
                yield _rows_block(rows, row_lines, width)
                rows, row_lines = [], []
    except Exception as err:
        if rows:
            yield _rows_block(rows, row_lines, width)  # the rows before the error are checked first
        if isinstance(err, ValueError):
            raise ValueError(f"line {done + reader.line_num}: {err}") from err
        raise
    if rows:
        yield _rows_block(rows, row_lines, width)


def append_rows(board: np.ndarray, n: int, values: np.ndarray) -> int:
    """Write ``values`` into ``board`` after its first ``n`` rows; returns the rows it then holds.

    The board grows in place along its first axis, by at least an eighth as
    Python lists do, so no piece of the result is left between a reader's
    scratch arrays: the memory those take returns to the heap in whole runs
    that later allocations reuse, instead of raising the process's peak.
    """
    end = n + len(values)
    if end > len(board):
        board.resize((max(end, len(board) * 9 // 8), *board.shape[1:]), refcheck=False)
    board[n:end] = values
    return end


@dataclass
class HawkesParams:
    """Per-network parameter set: baselines, decay rates, excitation matrix.

    baseline[i] > 0 (events per unit time), decay[i] > 0 (1/time),
    excitation[i, j] >= 0 (intensity jump at i per event at j).
    """

    baseline: np.ndarray
    decay: np.ndarray
    excitation: np.ndarray

    def __post_init__(self) -> None:
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        self.decay = np.asarray(self.decay, dtype=np.float64)
        self.excitation = np.asarray(self.excitation, dtype=np.float64)
        m = self.baseline.shape[0]
        if self.baseline.ndim != 1 or self.decay.shape != (m,):
            raise ValueError("baseline and decay must be vectors of equal length")
        if self.excitation.shape != (m, m):
            raise ValueError(f"excitation must be {m}x{m}, got {self.excitation.shape}")
        if not all(np.isfinite(a).all() for a in (self.baseline, self.decay, self.excitation)):
            raise ValueError("parameters must be finite")
        if not (self.baseline > 0).all():
            raise ValueError("baseline rates must be positive")
        if not (self.decay > 0).all():
            raise ValueError("decay rates must be positive")
        if not (self.excitation >= 0).all():
            raise ValueError("excitation weights must be non-negative")

    @property
    def m(self) -> int:
        return self.baseline.shape[0]

    def branching_matrix(self) -> np.ndarray:
        """excitation[i, j] / decay[i]; spectral radius < 1 means subcritical."""
        return self.excitation / self.decay[:, None]

    def to_json(self) -> dict:
        return {
            "mu": self.baseline.tolist(),
            "beta": self.decay.tolist(),
            "alpha": self.excitation.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HawkesParams":
        require_keys(obj, ("mu", "beta", "alpha"))
        return cls(json_floats(obj["mu"], 1), json_floats(obj["beta"], 1), json_floats(obj["alpha"], 2))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "HawkesParams":
        return read_json(path, cls.from_json)


@dataclass
class CountSeries:
    """Time-indexed event counts, one row per bin of length ``dt``.

    ``counts`` is held as uint64: a uint64 array is kept as it is, not
    copied, and any other is cast once.
    """

    counts: np.ndarray
    dt: float
    node_labels: list[str] | None = field(default=None)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a n_steps x m matrix")
        if counts.dtype.kind != "u":
            check_counts(counts)
            if counts.dtype.kind == "f" and counts.max(initial=0) >= 2.0**64:
                raise ValueError("counts must lie in 0 .. 2**64 - 1")
        # cells sized for >= 2^32 events
        self.counts = counts.astype(np.uint64, copy=False)
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        check_labels(self.node_labels, self.m)

    @property
    def n_steps(self) -> int:
        return self.counts.shape[0]

    @property
    def m(self) -> int:
        return self.counts.shape[1]

    def labels(self) -> list[str]:
        return labels_or_default(self.node_labels, self.m)


def advance_intensity(lam, baseline, decay, excite, dt, out=None, work=None):
    """One step of the intensity recursion, baseline + (lam - baseline) * (1 - decay * dt)
    + excite; broadcasts over any shape.

    ``excite`` is the already-summed excitation input, i.e. alpha @ counts.
    The result is written into ``out`` and lam - baseline into ``work``
    (new arrays for either if None); ``out`` may be ``lam``.
    """
    dev = np.subtract(lam, baseline, out=work)
    out = np.empty(np.broadcast(dev, decay, excite).shape) if out is None else out
    np.multiply(decay, dt, out=out)
    np.subtract(1.0, out, out=out)
    out *= dev
    np.add(baseline, out, out=out)
    out += excite
    return out


def simulate(params: HawkesParams, dt: float, n_steps: int, seed: int) -> CountSeries:
    """Generate a CountSeries from the process, starting at lam = baseline.

    Draws each node's bin counts from its own named stream, so results are
    reproducible and independent of evaluation order. Raises ValueError,
    naming the step and node, if an intensity grows past what a Poisson
    draw takes.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if (params.decay * dt >= 1.0).any():
        raise ValueError(
            "decay * dt >= 1: simulated intensities could undershoot the "
            "baseline or oscillate; choose a smaller dt"
        )
    m = params.m
    streams = rng.node_streams(seed, rng.SIM_COUNTS, range(m))
    lam = params.baseline.copy()
    out = np.zeros((n_steps, m), dtype=np.uint64)
    try:
        for k, row in enumerate(out):
            for i in range(m):
                row[i] = streams[i].poisson(lam[i] * dt)
            excite = params.excitation @ row.astype(np.float64)
            advance_intensity(lam, params.baseline, params.decay, excite, dt, out=lam)
    except ValueError:  # numpy's "lam value too large", or NaN once the intensity overflowed
        raise ValueError(f"the intensity of node {i} at step {k} is too large for a Poisson draw; "
                         "the excitation is too strong") from None
    return CountSeries(out, dt)


def stationary_rate(params: HawkesParams) -> np.ndarray:
    """Mean intensity vector solving lam = baseline + branching @ lam.

    Only defined for subcritical parameters (spectral radius of the
    branching matrix below 1).
    """
    branching = params.branching_matrix()
    radius = np.abs(np.linalg.eigvals(branching)).max()
    if radius >= 1.0:
        raise ValueError(
            f"supercritical parameters: branching spectral radius {radius:.3f} >= 1"
        )
    return np.linalg.solve(np.eye(params.m) - branching, params.baseline)


def save_count_series(
    series: CountSeries,
    csv_path: str | Path,
    seed: int | None = None,
    params: HawkesParams | None = None,
) -> None:
    """Write counts as CSV plus a JSON sidecar with the run metadata."""
    csv_path = Path(csv_path)
    write_table(csv_path, ["t", *series.labels()], "%.10g" + ",%d" * series.m + "\r\n",
                np.arange(series.n_steps) * series.dt, series.counts)
    # the CSV holds the labels and the shape
    sidecar = {"dt": series.dt, "seed": seed, "params": params.to_json() if params is not None else None}
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def _check_count_row(cells: list[str], m: int) -> None:
    """Raise ValueError unless a counts CSV row holds a time and m whole counts in 0 .. 2**64 - 1."""
    if len(cells) != m + 1:
        raise ValueError(f"need a time and {m} counts, not {len(cells)} cells")
    values = [int(c) for c in cells[1:]]
    if values and not 0 <= min(values) <= max(values) < 2**64:
        raise ValueError("counts must lie in 0 .. 2**64 - 1")


# a count of at most this many ASCII digits is read with numpy; any other cell with int()
COUNT_DIGITS = 19


def _block_counts(block: CsvBlock, m: int) -> np.ndarray:
    """The (n, m) counts of a block's rows; its first bad row raises its ``_check_count_row`` error
    and line."""
    starts, ends = block.starts[:, 1:], block.ends[:, 1:]
    length = ends - starts
    width = max(1, min(int(length.max(initial=0)), COUNT_DIGITS))
    digits = byte_matrix(block.data, starts, ends, width) - np.uint8(48)  # '0' .. '9' to 0 .. 9, others above
    is_digit = digits < 10
    # all bytes digits (padding is not), so also length <= width
    plain = (length >= 1) & (np.count_nonzero(is_digit, axis=-1) == length)
    values = digits[..., 0].astype(np.uint64)
    for p in range(1, width):
        values = np.where(is_digit[..., p], values * np.uint64(10) + digits[..., p], values)
    bad = block.fields != m + 1
    first = int(np.argmax(bad)) if bad.any() else len(bad)
    if not plain[:first].all():
        for r, j in np.argwhere(~plain[:first]).tolist():
            try:
                value = int(block.text(r, j + 1))
            except ValueError:
                value = -1
            if not 0 <= value < 2**64:
                first = r
                break
            values[r, j] = value
    if first < len(bad):
        cells = [""] * block.fields[first] if bad[first] else [block.text(first, j) for j in range(m + 1)]
        try:
            _check_count_row(cells, m)
        except ValueError as err:
            raise ValueError(f"line {block.lines[first]}: {err}") from err
    return values


def load_count_series(csv_path: str | Path) -> tuple[CountSeries, dict]:
    """Read a counts CSV and its sidecar; returns (series, metadata).

    A row without one whole count in 0 .. 2**64 - 1 per label is an error
    naming its line. The rows are split and converted in blocks
    (``csv_blocks``); a cell of plain ASCII digits is read with numpy and
    any other with ``int()``.
    """
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".json")
    meta = read_json(sidecar)
    try:
        dt = json_floats(meta["dt"])
    except (LookupError, TypeError, ValueError) as err:
        raise ValueError(f"{sidecar}: dt must be a finite number") from err
    with csv_path.open(newline="") as fh:
        blocks = csv_blocks(fh)
        header = next(blocks)
        if header is None:
            raise ValueError(f"{csv_path}: empty file, no header row")
        labels = header[1:]
        counts, n = np.empty((0, len(labels)), dtype=np.uint64), 0  # one board, so no second copy is held
        try:
            for block in blocks:
                n = append_rows(counts, n, _block_counts(block, len(labels)))
        except ValueError as err:
            raise ValueError(f"{csv_path}: {err}") from err
    counts.resize((n, len(labels)), refcheck=False)
    try:
        return CountSeries(counts, dt, node_labels=labels), meta
    except ValueError as err:
        raise ValueError(f"{csv_path}: {err}") from err
