"""Matrix Market files: coordinate and array formats, real or integer data.

Coordinate files come back as scipy CSR arrays (duplicates summed, entries
canonicalized, int32 index arrays whenever the shape and the entry count
fit them), array files as dense ndarrays. Symmetric storage must be
square and is expanded to general on read.

A read checks the banner and the size line, then parses the rest of the file
by one ``np.loadtxt`` call, so it holds its result and not a string per
value. A body that numpy refuses, or whose count or indices the size line
does not allow, goes to a line walker: it reads what numpy does not (comment
lines inside the body, array rows of different lengths, integers beyond
int64, spellings only Python accepts such as ``1_0.5``) and reports the first
fault with its line number. Both cut lines as ``str.splitlines`` does.

The writer is ``scipy.io.mmwrite`` with general storage, so a written file
has a ``%`` comment line after its banner. From scipy 1.12 on it writes each
float as the shortest text that reads back to the same double; below that,
scipy's Python writer writes the file. The reader above is this module's own.
"""

from __future__ import annotations

import warnings
from functools import partial
from itertools import chain, islice

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MatrixMarketError",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector",
    "write_vector",
]

_BANNER = "%%matrixmarket"
_READ_CHARS = 1 << 16  # characters per read, completed to a whole line


class MatrixMarketError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _lines(fh):
    """The file's lines as ``str.splitlines`` cuts them. Each read ends at a
    newline, so no line is cut between two reads."""
    reads = (text + fh.readline() for text in iter(partial(fh.read, _READ_CHARS), ""))
    return chain.from_iterable(map(str.splitlines, reads))


def _size(path, line_no, tokens, fmt, symmetry):
    """``(rows, cols, entries)`` declared by the size line."""
    coordinate = fmt == "coordinate"
    if len(tokens) != 2 + coordinate:
        need = "rows cols nnz" if coordinate else "rows cols"
        raise MatrixMarketError(path, line_no, f"{fmt} size line needs '{need}'")
    try:
        size = [int(t) for t in tokens]
    except ValueError:
        raise MatrixMarketError(path, line_no, "non-integer size line") from None
    if min(size) < 0:
        raise MatrixMarketError(path, line_no, "negative dimension")
    m, n = size[:2]
    if max(m, n) > 2**63 - 1:  # beyond scipy's int64 shapes
        raise MatrixMarketError(path, line_no, "dimension above 2**63 - 1")
    if symmetry == "symmetric" and m != n:
        raise MatrixMarketError(path, line_no, "symmetric storage must be square")
    if coordinate:
        return m, n, size[2]
    return m, n, m * n if symmetry == "general" else m * (m + 1) // 2


def _head(path, lines):
    """``(fmt, field, symmetry, size, line_no)`` from the banner and the size
    line, which is line ``line_no``; comment and blank lines may precede it."""
    banner = next(lines, None)
    if banner is None:
        raise MatrixMarketError(path, 1, "empty file")
    header = banner.split()
    if len(header) != 5 or header[0].lower() != _BANNER:
        raise MatrixMarketError(path, 1, "malformed MatrixMarket header")
    obj, fmt, field, symmetry = (t.lower() for t in header[1:])
    if obj != "matrix":
        raise MatrixMarketError(path, 1, f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(path, 1, f"unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        raise MatrixMarketError(path, 1, f"unsupported field {field!r} (need real data)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(path, 1, f"unsupported symmetry {symmetry!r}")
    line_no = 1
    for line_no, raw in enumerate(lines, 2):
        parts = raw.split()
        if parts and parts[0][0] != "%":
            return fmt, field, symmetry, _size(path, line_no, parts, fmt, symmetry), line_no
    raise MatrixMarketError(path, line_no, "missing size line")


def _outside(rows, cols, m, n):
    return (rows < 1) | (rows > m) | (cols < 1) | (cols > n)


def _loadtxt(lines, coordinate, field, size):
    """The body from one ``np.loadtxt`` call: ``(rows, cols, vals)`` with
    1-based int64 indices, or the flat array values. None when numpy refuses
    it, warns, or finds a count or an index the size line does not allow."""
    m, n, count = size
    value = np.int64 if field == "integer" else np.float64
    dtype = [("i", np.int64), ("j", np.int64), ("v", value)] if coordinate else value
    try:
        with warnings.catch_warnings():
            # numpy 1.24 accepts '1.0' as an integer with a warning
            warnings.simplefilter("error")
            # comments=None: a '#' line is a fault, not a comment
            body = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1 if coordinate else 2)
    except (ValueError, OverflowError, Warning):
        return None
    if not coordinate:
        return body.reshape(-1) if body.size == count else None
    if len(body) != count or _outside(body["i"], body["j"], m, n).any():
        return None
    return body["i"], body["j"], body["v"]


def _column(path, tokens, token_lines, integer, what):
    """The tokens as float64, parsed by one call. Integer tokens go through
    Python ints, so one above 2**63 - 1 reads as float(int(token)), and one
    beyond the float64 range fails. If the call fails, the first token that
    fails alone is reported with its line."""
    try:
        return np.array(list(map(int, tokens)) if integer else tokens, dtype=float)
    except (ValueError, OverflowError):
        parse = int if integer else float
        for token, line_no in zip(tokens, token_lines):
            try:
                float(parse(token))
            except (ValueError, OverflowError):
                raise MatrixMarketError(path, line_no, f"{what} {token!r}") from None
        raise


def _walk(path, lines, line_no, coordinate, field, size):
    """The body line by line from the line after the size line (line
    ``line_no``), as ``_loadtxt`` returns it; the first fault raises with its
    line. A line's width is checked as it is read, then the count, then each
    column's values in turn, then the indices."""
    m, n, count = size
    tokens, token_lines = [], []
    for line_no, raw in enumerate(lines, line_no + 1):
        parts = raw.split()
        if not parts or parts[0][0] == "%":
            continue
        if coordinate and len(parts) != 3:
            raise MatrixMarketError(path, line_no, "coordinate entry needs 'i j value'")
        tokens += parts
        token_lines += (line_no,) * len(parts)
    width, noun = (3, "entries") if coordinate else (1, "values")
    found = len(tokens) // width
    if found > count:
        raise MatrixMarketError(path, token_lines[width * count], f"more {noun} than declared")
    if found < count:
        raise MatrixMarketError(path, line_no, f"expected {count} {noun}, found {found}")

    integer, value = field == "integer", f"bad {field} value"
    if not coordinate:
        return _column(path, tokens, token_lines, integer, value)
    rows = _column(path, tokens[0::3], token_lines[0::3], True, "non-integer index")
    cols = _column(path, tokens[1::3], token_lines[1::3], True, "non-integer index")
    vals = _column(path, tokens[2::3], token_lines[2::3], integer, value)
    outside = _outside(rows, cols, m, n)
    if outside.any():
        k = 3 * int(outside.argmax())
        i, j = int(tokens[k]), int(tokens[k + 1])
        raise MatrixMarketError(path, token_lines[k], f"index ({i}, {j}) outside {m} x {n}")
    return rows.astype(np.int64), cols.astype(np.int64), vals


def read_matrix_market(path):
    """Read one matrix; coordinate -> scipy CSR, array -> dense ndarray."""
    with open(path, "r") as fh:
        lines = _lines(fh)
        fmt, field, symmetry, size, line_no = _head(path, lines)
        coordinate = fmt == "coordinate"
        body = _loadtxt(lines, coordinate, field, size)
        if body is None:
            fh.seek(0)
            body = _walk(path, islice(_lines(fh), line_no, None), line_no, coordinate, field, size)
    m, n, _ = size

    if not coordinate:
        if symmetry == "general":  # column-major payload
            return np.ascontiguousarray(body.reshape((n, m)).T, dtype=np.float64)
        # the lower triangle, column by column: row by row of the upper one
        cols, rows = np.triu_indices(n)
        out = np.zeros((m, n))
        out[rows, cols] = body
        out[cols, rows] = body
        return out

    rows, cols, vals = body
    # int32 indices whenever the shape fits, as scipy picks for a matrix it
    # builds (the CSR conversion widens them itself if the entry count needs
    # it): 12 bytes per entry, not 16
    index = np.int32 if max(m, n) <= np.iinfo(np.int32).max else np.int64
    rows, cols, vals = rows.astype(index), cols.astype(index), vals.astype(np.float64, copy=False)
    rows -= 1
    cols -= 1
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = np.concatenate((rows, cols[off])), np.concatenate((cols, rows[off]))
        vals = np.concatenate((vals, vals[off]))
    # the CSR conversion sums duplicates
    mat = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(m, n)))
    mat.eliminate_zeros()
    return mat


def write_matrix_market(path, a):
    """Write a matrix by ``scipy.io.mmwrite`` with general storage: scipy
    sparse -> coordinate format, summed, without zeros and sorted by row
    then column; dense -> array format, a 1-D array as one column."""
    if sp.issparse(a):
        a = sp.csr_array(a, dtype=np.float64, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        a = a.tocoo()
    else:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.ndim != 2:
            raise ValueError("only 1-D or 2-D arrays can be written")
    # imported here: scipy.io costs about 20 ms and 1 MiB to import, and a
    # solve that writes no file need not pay them
    from scipy.io import mmwrite

    # general, not scipy's default scan that writes a symmetric input as
    # symmetric storage; a stream, since given a path mmwrite appends ".mtx"
    # to one that does not end in it
    with open(path, "wb") as fh:
        mmwrite(fh, a, field="real", symmetry="general")


def read_vector(path):
    """Read an n x 1 (or 1 x n) matrix file as a 1-D vector."""
    mat = read_matrix_market(path)
    if sp.issparse(mat):
        mat = mat.toarray()
    mat = np.asarray(mat)
    if 1 not in mat.shape and mat.size != max(mat.shape, default=0):
        raise ValueError(f"{path} does not hold a vector (shape {mat.shape})")
    return mat.reshape(-1)


def write_vector(path, v):
    write_matrix_market(path, np.asarray(v, dtype=np.float64).reshape(-1, 1))
