"""Dataset ingestion, whitening, and aggregated sample moments.

Real regressors are brought into the standardized frame (mean zero, identity
second-moment matrix) by full principal-component whitening, after which the
risk expansion needs only three scalar aggregates of the sample third/fourth
moment tensors:

    M2a = sum_{i,j,k} m[i,j,k]^2            m[i,j,k] = (1/n) sum_t x_ti x_tj x_tk
    M2b = sum_k ( sum_i m[i,i,k] )^2
    M1  = sum_{i,k} m[i,i,k,k]

M2b = ||X' r / n||^2 and M1 = mean(r^2) with r_t = ||x_t||^2 cost O(n p).
M2a takes whichever of two routes is cheaper for the shape of X:

* p^2 < n: the third-moment tensor itself, as the (n x p(p+1)/2)' (n x p)
  product of the distinct column products x_ti x_tj (i <= j) with X,
  accumulated over row chunks; O(n p^3).
* otherwise: M2a = (1/n^2) sum_{t,s} (x_t . x_s)^3 over the Gram matrix,
  one upper block row at a time, each off-diagonal block counted twice;
  O(n^2 p).

Either way the work is O(n p min(n, p^2)), and no temporary is larger than
``chunk`` rows of the matrix being reduced.

A moment that overflows a double (finite cells near 1e300 overflow the
covariance) raises ``FloatingPointError`` in ``load_csv``'s correlation
flags, ``standardize`` and ``sample_aggregates``; none returns a NaN.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, compress, count

import numpy as np

__all__ = [
    "Dataset",
    "StandardizedMatrix",
    "LoadOptions",
    "load_csv",
    "standardize",
    "sample_aggregates",
]


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class LoadOptions:
    delimiter: str = ","
    header: bool = True
    missing_tokens: tuple = ("", "?", "NA", "nan")
    drop_columns: tuple = ()
    # "drop_rows": discard rows containing a missing token;
    # "drop_columns": discard columns containing one anywhere.
    missing_strategy: str = "drop_rows"
    correlation_threshold: float = 0.99

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise DataError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.missing_strategy not in ("drop_rows", "drop_columns"):
            raise DataError(f"unknown missing_strategy {self.missing_strategy!r}")
        if not 0 <= self.correlation_threshold <= 1:
            raise DataError(f"correlation_threshold must be in [0, 1], got {self.correlation_threshold}")


@dataclass(frozen=True)
class Dataset:
    column_names: tuple
    rows: np.ndarray  # (n, p) float64
    dropped_columns: tuple = ()
    dropped_row_count: int = 0
    flagged_pairs: tuple = ()  # ((name_i, name_j, corr), ...) above threshold

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]


@np.errstate(over="raise")
def _flag_correlations(rows: np.ndarray, names, threshold: float):
    x = rows - rows.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = np.nan
    c = (x.T @ x) / rows.shape[0] / np.outer(sd, sd)
    i, j = np.triu_indices(rows.shape[1], k=1)
    cij = c[i, j]
    hit = np.isfinite(cij) & (np.abs(cij) > threshold)
    return tuple(
        (names[a], names[b], float(v)) for a, b, v in zip(i[hit], j[hit], cij[hit])
    )


def load_csv(path, options: LoadOptions = LoadOptions()) -> Dataset:
    """Read a rectangular numeric table, handling missing values per options.

    A token is missing iff its stripped text is one of
    ``options.missing_tokens``; every other kept token becomes ``float`` of
    its stripped text, and one that reads as no finite number is refused.
    numpy's C reader converts a plain body, ``csv.reader`` any other; the
    dataset is bit-identical either way.  Both, and every error's line number,
    use the one text read from ``path``, so a pipe or FIFO works as a file does.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    kept_names, data, dropped, bad_rows = _load_plain(path, text, options) or _load_records(path, text, options)
    finite = np.isfinite(data)
    if not finite.all():  # inf, -Infinity, 1e500, NaN, -nan: float() reads them, no moment takes them
        r, c = np.argwhere(~finite)[0]
        body_row = [i for i in range(data.shape[0] + len(bad_rows)) if i not in bad_rows][r]
        raise DataError(
            f"{path}: line {_record_line(text, options, options.header + body_row)}: "
            f"non-finite value {data[r, c]} in column {kept_names[c]!r}"
        )
    if data.shape[0] <= data.shape[1]:
        raise DataError(
            f"{path}: need more rows than columns (n={data.shape[0]}, p={data.shape[1]})"
        )
    return Dataset(
        column_names=kept_names,
        rows=data,
        dropped_columns=tuple(dropped),
        dropped_row_count=len(bad_rows),
        flagged_pairs=_flag_correlations(data, kept_names, options.correlation_threshold),
    )


def _load_plain(path, text, options):
    """``_load_records``'s result by ``np.loadtxt``, or None to fall back to it.

    A body with no quote, NUL, bare CR or line over csv's field limit splits at
    newlines and delimiters as csv.reader splits it.  loadtxt reads a field as
    ``float`` of its stripped text or raises (empty, ``1_000``, a non-ASCII
    digit); any doubt, a NaN included, falls back.
    """
    d = options.delimiter
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=d)
    try:
        first = next(filter(None, reader), ())
    except csv.Error:
        return None
    if "\r" in text:  # a CR left after this is bare: csv.reader would end a line there
        text = text.replace("\r\n", "\n")
    skip = reader.line_num if options.header else 0  # lines before the body
    parts = text.split("\n", skip)
    body = parts[-1] if len(parts) > skip else ""
    lines = list(filter(None, body.split("\n")))
    if (not lines or d in "\r\n" or "\r" in text or '"' in body or "\0" in body
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    width, missing = len(first), set(options.missing_tokens)
    if any(line.count(d) != width - 1 for line in lines):
        return None
    tokens = [t for t in missing if t and t[0] in body and t in body]  # t[0] first: memchr is fast
    hits = sorted({r for t in tokens for r, line in enumerate(lines) if t in line})
    cells = list(map(str.strip, chain.from_iterable(lines[r].split(d) for r in hits)))
    bad_cells = {(hits[k // width], k % width) for k in compress(count(), map(missing.__contains__, cells))}
    names, keep, dropped, bad_rows = _clean(path, first, len(lines), bad_cells, options)
    lines = [line for r, line in enumerate(lines) if r not in bad_rows]
    try:
        data = np.loadtxt(lines, delimiter=d, usecols=keep, comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if data.shape != (len(lines), len(keep)) or np.isnan(data).any():
        return None
    return tuple(names[i] for i in keep), data, dropped, bad_rows


def _load_records(path, text, options):
    """(kept names, rows, dropped names, rows dropped) by ``csv.reader``; raises on bad input."""
    try:
        raw = [row for row in csv.reader(io.StringIO(text, newline=""), delimiter=options.delimiter) if row]
    except csv.Error as exc:
        raise DataError(f"{path}: cannot read: {exc}") from None
    if not raw:
        raise DataError(f"{path}: empty file")
    body = raw[1:] if options.header else raw
    skip = 1 if options.header else 0  # records of raw before body
    width = len(raw[0])
    for r, row in enumerate(body):
        if len(row) != width:
            raise DataError(
                f"{path}: line {_record_line(text, options, skip + r)}: "
                f"expected {width} fields, found {len(row)}"
            )

    # Stripped in file order, so the strings are visited where they lie in
    # memory; column i is then the slice cells[i::width].
    cells = list(map(str.strip, chain.from_iterable(body)))
    missing = set(options.missing_tokens)
    bad_cells = {divmod(k, width) for k in compress(count(), map(missing.__contains__, cells))}
    names, keep, dropped, bad_rows = _clean(path, raw[0], len(body), bad_cells, options)
    good = [r not in bad_rows for r in range(len(body))]
    rows = list(compress(range(len(body)), good))

    data = np.empty((len(rows), len(keep)))
    for c, i in enumerate(keep):
        tokens = compress(cells[i::width], good)
        try:
            data[:, c] = np.fromiter(map(float, tokens), dtype=float, count=len(rows))
        except ValueError:
            r, i, tok = _first_bad_cell(cells, width, rows, keep)
            raise DataError(
                f"{path}: line {_record_line(text, options, skip + r)}: "
                f"non-numeric value {tok!r} in column {names[i]!r}"
            ) from None
    return tuple(names[i] for i in keep), data, dropped, bad_rows


def _clean(path, first, n_rows, bad_cells, options):
    """(column names, kept column indices, dropped names, rows dropped), given
    the first record and the (row, column) of each missing cell."""
    names = ([c.strip().strip('"') for c in first] if options.header
             else [f"x{i+1}" for i in range(len(first))])
    unknown = [name for name in options.drop_columns if name not in names]
    if unknown:
        raise DataError(f"{path}: no column named {', '.join(map(repr, unknown))} to drop")
    drop = set(options.drop_columns)
    keep = [i for i, name in enumerate(names) if name not in drop]
    dropped = [name for name in names if name in drop]
    if options.missing_strategy == "drop_columns":
        bad_cols = {i for _, i in bad_cells}
        dropped += [names[i] for i in keep if i in bad_cols]
        keep = [i for i in keep if i not in bad_cols]
    kept = set(keep)
    bad_rows = {r for r, i in bad_cells if i in kept}
    if not keep:
        raise DataError(f"{path}: no columns left after cleaning")
    if len(bad_rows) == n_rows:
        raise DataError(f"{path}: no rows left after cleaning")
    return names, keep, dropped, bad_rows


def _record_line(text, options, index):
    """Line of ``text`` on which its ``index``-th non-blank record starts.

    Blank lines are skipped and a quoted field may span lines, so this
    re-parses the text up to that record; only error messages call it.
    """
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=options.delimiter)
    start = 1
    for row in reader:
        if row and (index := index - 1) < 0:
            return start
        start = reader.line_num + 1


def _first_bad_cell(cells, width, rows, keep):
    """(row, column, token) of the first non-numeric kept cell, row-major."""
    for r in rows:
        for i in keep:
            tok = cells[r * width + i]
            try:
                float(tok)
            except ValueError:
                return r, i, tok


@dataclass(frozen=True)
class StandardizedMatrix:
    """Whitened scores with the transform kept for audit.

    scores = (rows - center) @ transform, with sample mean zero and sample
    second-moment matrix the identity (divisor n throughout).
    """

    scores: np.ndarray
    transform: np.ndarray
    center: np.ndarray
    condition_number: float


@np.errstate(over="raise")
def standardize(dataset: Dataset) -> StandardizedMatrix:
    """Full PCA whitening: rotate to principal axes, scale to unit variance."""
    x = dataset.rows
    center = x.mean(axis=0)
    xc = x - center
    cov = (xc.T @ xc) / dataset.n
    evals, evecs = np.linalg.eigh(cov)
    tiny = 1e-12 * max(float(evals.max()), 1e-300)
    if evals.min() <= tiny:
        null_dirs = [int(i) for i in np.flatnonzero(evals <= tiny)]
        names = [dataset.column_names[int(np.argmax(np.abs(evecs[:, i])))] for i in null_dirs]
        raise DataError(
            f"singular covariance: {len(null_dirs)} null direction(s), "
            f"dominated by columns {names}"
        )
    transform = evecs / np.sqrt(evals)
    scores = xc @ transform
    return StandardizedMatrix(
        scores=scores,
        transform=transform,
        center=center,
        condition_number=float(evals.max() / evals.min()),
    )


@np.errstate(over="raise", invalid="raise")  # inf * 0 from an overflow is invalid
def sample_aggregates(std: StandardizedMatrix | np.ndarray, chunk: int = 1024) -> dict:
    """M2a, M2b, M1 of the (whitened) score matrix, divisor-n moments.

    ``chunk`` is the number of rows of X per block of the M2a reduction.
    """
    x = std.scores if isinstance(std, StandardizedMatrix) else np.asarray(std, dtype=float)
    n, p = x.shape
    r = np.einsum("ti,ti->t", x, x)
    m1 = float(r @ r) / n
    s = (x.T @ r) / n
    m2b = float(s @ s)
    m2a = (_m2a_tensor if p * p < n else _m2a_gram)(x, chunk)
    aggregates = {"M2a": m2a, "M2b": m2b, "M1": m1}
    bad = [name for name, value in aggregates.items() if not np.isfinite(value)]
    if bad:  # einsum reports no overflow, and a quiet NaN score raises nothing
        raise FloatingPointError(f"{', '.join(bad)} not finite (an overflow or a non-finite score)")
    return aggregates


def _m2a_tensor(x: np.ndarray, chunk: int) -> float:
    """M2a = ||m||_F^2 with m[(i,j),k] = sum_t x_ti x_tj x_tk, i <= j, by GEMM."""
    n, p = x.shape
    i, j = np.triu_indices(p)
    m = np.zeros((i.size, p))
    for start in range(0, n, chunk):
        xc = x[start : start + chunk]
        m += (xc[:, i] * xc[:, j]).T @ xc
    weight = np.where(i == j, 1.0, 2.0)  # (i,j) and (j,i) share a row of m
    return float(weight @ np.einsum("ak,ak->a", m, m)) / (n * n)


def _m2a_gram(x: np.ndarray, chunk: int) -> float:
    """M2a = (1/n^2) sum_{t,s} (x_t . x_s)^3 over the upper Gram block rows."""
    n = x.shape[0]
    acc = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        g = x[start:stop] @ x[start:].T
        diag, off = g[:, : stop - start], g[:, stop - start :]
        acc += float(np.einsum("ij,ij,ij->", diag, diag, diag))
        acc += 2 * float(np.einsum("ij,ij,ij->", off, off, off))
    return acc / (n * n)
