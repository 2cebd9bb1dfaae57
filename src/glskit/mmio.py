"""Matrix Market files: coordinate and array formats, real or integer data.

Coordinate files come back as scipy CSR arrays (duplicates summed, entries
canonicalized), array files as dense ndarrays. Symmetric storage is expanded
to general on read. Parse failures report the offending line number.
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


def _parse_value(token, field, path, line_no):
    try:
        return float(int(token)) if field == "integer" else float(token)
    except ValueError:
        raise MatrixMarketError(path, line_no, f"bad {field} value {token!r}") from None


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

    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketError(path, len(lines), "missing size line")
    size_tokens = lines[idx].split()
    size_line = idx + 1

    if fmt == "coordinate":
        if len(size_tokens) != 3:
            raise MatrixMarketError(path, size_line, "coordinate size line needs 'rows cols nnz'")
        try:
            m, n, nnz = (int(t) for t in size_tokens)
        except ValueError:
            raise MatrixMarketError(path, size_line, "non-integer size line") from None
        if m < 0 or n < 0 or nnz < 0:
            raise MatrixMarketError(path, size_line, "negative dimension")
        entries = {}
        seen = 0
        for line_no in range(size_line + 1, len(lines) + 1):
            raw = lines[line_no - 1].strip()
            if not raw or raw.startswith("%"):
                continue
            if seen == nnz:
                raise MatrixMarketError(path, line_no, "more entries than declared")
            tokens = raw.split()
            if len(tokens) != 3:
                raise MatrixMarketError(path, line_no, "coordinate entry needs 'i j value'")
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise MatrixMarketError(path, line_no, "non-integer index") from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise MatrixMarketError(
                    path, line_no, f"index ({i}, {j}) outside {m} x {n}"
                )
            v = _parse_value(tokens[2], field, path, line_no)
            entries[(i - 1, j - 1)] = entries.get((i - 1, j - 1), 0.0) + v
            if symmetry == "symmetric" and i != j:
                entries[(j - 1, i - 1)] = entries.get((j - 1, i - 1), 0.0) + v
            seen += 1
        if seen != nnz:
            raise MatrixMarketError(path, len(lines), f"expected {nnz} entries, found {seen}")
        if entries:
            keys = sorted(entries)
            rows = np.array([k[0] for k in keys], dtype=np.int64)
            cols = np.array([k[1] for k in keys], dtype=np.int64)
            vals = np.array([entries[k] for k in keys])
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        mat = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(m, n)))
        mat.eliminate_zeros()
        return mat

    if len(size_tokens) != 2:
        raise MatrixMarketError(path, size_line, "array size line needs 'rows cols'")
    try:
        m, n = (int(t) for t in size_tokens)
    except ValueError:
        raise MatrixMarketError(path, size_line, "non-integer size line") from None
    if m < 0 or n < 0:
        raise MatrixMarketError(path, size_line, "negative dimension")
    expected = m * n if symmetry == "general" else m * (m + 1) // 2
    if symmetry == "symmetric" and m != n:
        raise MatrixMarketError(path, size_line, "symmetric array must be square")
    values = []
    for line_no in range(size_line + 1, len(lines) + 1):
        raw = lines[line_no - 1].strip()
        if not raw or raw.startswith("%"):
            continue
        for token in raw.split():
            if len(values) == expected:
                raise MatrixMarketError(path, line_no, "more values than declared")
            values.append(_parse_value(token, field, path, line_no))
    if len(values) != expected:
        raise MatrixMarketError(path, len(lines), f"expected {expected} values, found {len(values)}")
    if symmetry == "general":
        return np.array(values).reshape((n, m)).T.copy()  # column-major payload
    out = np.zeros((m, n))
    pos = 0
    for j in range(n):
        for i in range(j, m):
            out[i, j] = values[pos]
            out[j, i] = values[pos]
            pos += 1
    return out


def write_matrix_market(path, a, comment=None):
    """Write a matrix: scipy sparse -> coordinate format, dense -> array."""
    lines = []
    if sp.issparse(a):
        coo = sp.coo_array(a)
        coo.sum_duplicates()
        coo.eliminate_zeros()
        order = np.lexsort((coo.col, coo.row))
        lines.append("%%MatrixMarket matrix coordinate real general")
        if comment:
            lines.append(f"% {comment}")
        m, n = coo.shape
        lines.append(f"{m} {n} {coo.nnz}")
        rows, cols = coo.row, coo.col
        for k in order:
            lines.append(f"{rows[k] + 1} {cols[k] + 1} {float(coo.data[k])!r}")
    else:
        arr = np.asarray(a, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError("only 1-D or 2-D arrays can be written")
        lines.append("%%MatrixMarket matrix array real general")
        if comment:
            lines.append(f"% {comment}")
        m, n = arr.shape
        lines.append(f"{m} {n}")
        for j in range(n):
            for i in range(m):
                lines.append(f"{float(arr[i, j])!r}")
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


def write_vector(path, v, comment=None):
    write_matrix_market(path, np.asarray(v, dtype=np.float64).reshape(-1, 1), comment)
