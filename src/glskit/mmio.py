"""Matrix Market files: coordinate and array formats, real or integer data.

Coordinate files come back as scipy CSR arrays (duplicates summed, entries
canonicalized), array files as dense ndarrays. Symmetric storage must be
square and is expanded to general on read. The reader collects the data
tokens in one pass and parses each column by one numpy call; a parse
failure reports the offending line number. Writers emit floats as ``repr``.
"""

from __future__ import annotations

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


class MatrixMarketError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


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


def read_matrix_market(path):
    """Read one matrix; coordinate -> scipy CSR, array -> dense ndarray."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")

    header = lines[0].split()
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
    coordinate = fmt == "coordinate"
    integer = field == "integer"

    # the header starts with '%', so it is skipped with the comments; the two
    # lists stay flat, as the GC rescans a live list of per-line objects
    size = None
    tokens, token_lines = [], []
    for line_no, raw in enumerate(lines, 1):
        parts = raw.split()
        if not parts or parts[0][0] == "%":
            continue
        if size is None:
            size = _size(path, line_no, parts, fmt, symmetry)
        elif coordinate and len(parts) != 3:
            raise MatrixMarketError(path, line_no, "coordinate entry needs 'i j value'")
        else:
            tokens += parts
            token_lines += (line_no,) * len(parts)
    if size is None:
        raise MatrixMarketError(path, len(lines), "missing size line")
    m, n, count = size
    width, noun = (3, "entries") if coordinate else (1, "values")
    found = len(tokens) // width
    if found > count:
        raise MatrixMarketError(path, token_lines[width * count], f"more {noun} than declared")
    if found < count:
        raise MatrixMarketError(path, len(lines), f"expected {count} {noun}, found {found}")

    value = f"bad {field} value"
    if not coordinate:
        values = _column(path, tokens, token_lines, integer, value)
        if symmetry == "general":
            return values.reshape((n, m)).T.copy()  # column-major payload
        # the lower triangle, column by column: row by row of the upper one
        cols, rows = np.triu_indices(n)
        out = np.zeros((m, n))
        out[rows, cols] = values
        out[cols, rows] = values
        return out

    rows = _column(path, tokens[0::3], token_lines[0::3], True, "non-integer index")
    cols = _column(path, tokens[1::3], token_lines[1::3], True, "non-integer index")
    vals = _column(path, tokens[2::3], token_lines[2::3], integer, value)
    outside = (rows < 1) | (rows > m) | (cols < 1) | (cols > n)
    if outside.any():
        k = 3 * int(outside.argmax())
        i, j = int(tokens[k]), int(tokens[k + 1])
        raise MatrixMarketError(path, token_lines[k], f"index ({i}, {j}) outside {m} x {n}")
    rows, cols = rows.astype(np.int64) - 1, cols.astype(np.int64) - 1
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = np.concatenate((rows, cols[off])), np.concatenate((cols, rows[off]))
        vals = np.concatenate((vals, vals[off]))
    # the CSR conversion sums duplicates
    mat = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(m, n)))
    mat.eliminate_zeros()
    return mat


def write_matrix_market(path, a):
    """Write a matrix: scipy sparse -> coordinate format, dense -> array."""
    if sp.issparse(a):
        coo = sp.coo_array(a)
        coo.sum_duplicates()
        coo.eliminate_zeros()
        order = np.lexsort((coo.col, coo.row))
        m, n = coo.shape
        lines = ["%%MatrixMarket matrix coordinate real general", f"{m} {n} {coo.nnz}"]
        lines += map(
            "{} {} {!r}".format,
            (coo.row[order] + 1).tolist(),
            (coo.col[order] + 1).tolist(),
            coo.data[order].astype(np.float64).tolist(),
        )
    else:
        arr = np.asarray(a, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError("only 1-D or 2-D arrays can be written")
        m, n = arr.shape
        lines = ["%%MatrixMarket matrix array real general", f"{m} {n}"]
        for column in arr.T:  # column-major; one column's floats live at a time
            lines += map(repr, column.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
