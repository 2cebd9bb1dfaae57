import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from glskit import (
    MatrixMarketError,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)
from glskit import mmio
from helpers import OVERFLOWING_INTEGER, OVERSIZED_DIMENSION


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


def after_size_line(text, line):
    """``text`` with ``line`` inserted after its size line, the first line
    past the banner that is neither blank nor a comment."""
    lines = text.splitlines(keepends=True)
    size = next(i for i, raw in enumerate(lines[1:], 1) if raw.split() and raw.lstrip()[0] != "%")
    return "".join(lines[: size + 1] + [line + "\n"] + lines[size + 1 :])


def counted_walks(monkeypatch):
    """A list that gains an entry each time a read goes to the line walker."""
    calls = []
    walk = mmio._walk
    monkeypatch.setattr(mmio, "_walk", lambda *args: calls.append(args[0]) or walk(*args))
    return calls


def test_minimal_coordinate_file(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.0\n",
    )
    mat = read_matrix_market(path)
    assert sp.issparse(mat)
    assert mat.shape == (2, 2)
    np.testing.assert_allclose(mat.toarray(), [[3.0, 0.0], [0.0, 0.0]])


def test_array_column_vector(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n")
    mat = read_matrix_market(path)
    assert isinstance(mat, np.ndarray)
    np.testing.assert_allclose(mat, [[1.0], [2.0]])


def test_array_payload_is_column_major(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n",
    )
    np.testing.assert_allclose(read_matrix_market(path), [[1.0, 3.0], [2.0, 4.0]])


def test_symmetric_coordinate_expansion(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 5.0\n",
    )
    np.testing.assert_allclose(
        read_matrix_market(path).toarray(), [[1.0, 5.0], [5.0, 0.0]]
    )


def test_symmetric_array_expansion(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n5.0\n3.0\n",
    )
    np.testing.assert_allclose(read_matrix_market(path), [[1.0, 5.0], [5.0, 3.0]])


def test_duplicates_merged_by_summation(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.5\n1 1 2.5\n2 2 1.0\n",
    )
    np.testing.assert_allclose(read_matrix_market(path).toarray(), [[4.0, 0.0], [0.0, 1.0]])


def test_integer_field_accepted(tmp_path):
    path = write(
        tmp_path, "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 7\n"
    )
    np.testing.assert_allclose(read_matrix_market(path).toarray(), [[0, 0], [7, 0]])


def test_comments_and_blank_lines_skipped(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n% produced by hand\n\n2 2 1\n1 2 -1.0\n",
    )
    np.testing.assert_allclose(read_matrix_market(path).toarray(), [[0.0, -1.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "text,line",
    [
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 1\n", 1),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n", 1),
        ("not a header\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", 3),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n", 2),
        (OVERSIZED_DIMENSION, 2),
        (OVERFLOWING_INTEGER, 4),
        ("", 1),
        ("%%MatrixMarket matrix coordinate real general\n2 x 1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 -2 1\n", 2),
        ("%%MatrixMarket vector coordinate real general\n2 1\n1 1.0\n", 1),
        ("%%MatrixMarket matrix dense real general\n1 1\n1.0\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n% no size line\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n", 4),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0\n3.0\n", 5),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n# note\n1 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5 % note\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.0 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 2.5\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1\n2 2 1.0 5\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = write(tmp_path, text)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line_no == line
    assert str(path) in str(err.value)


def test_sparse_roundtrip_identity_on_entries(tmp_path):
    rng = np.random.default_rng(99)
    dense = rng.standard_normal((50, 40)) * (rng.random((50, 40)) < 0.1)
    mat = sp.csr_array(dense)
    path = tmp_path / "m.mtx"
    write_matrix_market(path, mat)
    back = read_matrix_market(path)
    assert sp.issparse(back)
    assert (back != mat).nnz == 0


def test_coordinate_reads_have_int32_indices(tmp_path, monkeypatch):
    # the index dtype scipy picks for a matrix of this size, on the numpy
    # pass, the line walker and a symmetric expansion alike
    rng = np.random.default_rng(5)
    mat = sp.csr_array(rng.standard_normal((60, 60)) * (rng.random((60, 60)) < 0.1))
    assert mat.indices.dtype == mat.indptr.dtype == np.int32
    path = tmp_path / "m.mtx"
    write_matrix_market(path, mat)
    files = {
        "plain": path,
        "walked": write(tmp_path, after_size_line(path.read_text(), "% inside the body"), name="w.mtx"),
        "symmetric": write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.0\n3 1 2.0\n", name="s.mtx"),
    }
    walks = counted_walks(monkeypatch)
    for name, f in files.items():
        back = read_matrix_market(f)
        assert back.indices.dtype == back.indptr.dtype == np.int32, name
    assert walks == [files["walked"]]
    assert (read_matrix_market(files["walked"]) != mat).nnz == 0


def test_dense_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 3))
    path = tmp_path / "a.mtx"
    write_matrix_market(path, A)
    np.testing.assert_array_equal(read_matrix_market(path), A)


def test_vector_roundtrip_and_shape_check(tmp_path):
    v = np.array([1.0, -2.0, 3.5])
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    np.testing.assert_array_equal(read_vector(path), v)

    bad = tmp_path / "bad.mtx"
    write_matrix_market(bad, np.ones((2, 3)))
    with pytest.raises(ValueError):
        read_vector(bad)


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    dense = rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.3)
    for mat in (dense, sp.csr_array(dense)):
        p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix_market(p1, mat)
        write_matrix_market(p2, mat)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("name", ["m.out", "m", "m.mtx.txt"])
def test_writes_go_to_the_path_given(tmp_path, name):
    # the file is the one named, with no ".mtx" appended, and a second
    # write replaces the first
    path = tmp_path / name
    path.write_text("stale")
    A = np.arange(6.0).reshape(3, 2)
    write_matrix_market(path, A)
    write_vector(path, A[:, 0])
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    np.testing.assert_array_equal(read_vector(path), A[:, 0])
    write_matrix_market(path, sp.csr_array(A))
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    np.testing.assert_array_equal(read_matrix_market(path).toarray(), A)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind", ["dense", "sparse", "vector"])
def test_writes_read_back_bit_for_bit(tmp_path, kind):
    # 1,000 values scaled by 10^k, |k| <= 300, then the least subnormal,
    # -0.0 and the largest doubles: each reads back as the double written,
    # whatever text the writer chose for it
    rng = np.random.default_rng(11)
    scaled = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 301, 1000)
    values = np.concatenate([scaled, [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]])
    path = tmp_path / "m.mtx"
    if kind == "vector":
        write_vector(path, values)
        np.testing.assert_array_equal(bits(read_vector(path)), bits(values))
    elif kind == "dense":
        want = values.reshape(4, 251)
        write_matrix_market(path, want)
        np.testing.assert_array_equal(bits(read_matrix_market(path)), bits(want))
    else:
        values = values[values != 0]  # a sparse write drops zeros, -0.0 among them
        flat = rng.choice(100 * 100, values.size, replace=False)
        want = sp.csr_array((values, (flat // 100, flat % 100)), shape=(100, 100))
        want.sum_duplicates()
        write_matrix_market(path, want)
        back = read_matrix_market(path)
        np.testing.assert_array_equal(back.indptr, want.indptr)
        np.testing.assert_array_equal(back.indices, want.indices)
        np.testing.assert_array_equal(bits(back.data), bits(want.data))


def test_sparse_writes_are_summed_without_zeros_and_sorted(tmp_path):
    # a CSR input with unsorted indices, duplicates (two of which cancel)
    # and explicit zeros is written summed, without zeros and in row then
    # column order, and is left as it was
    data = np.array([2.0, 0.0, 0.25, 1.0, 7.0, -1.0, 1.5, -4.0])
    indices = np.array([3, 0, 3, 1, 2, 1, 1, 0], dtype=np.int32)
    indptr = np.array([0, 3, 6, 8], dtype=np.int32)
    mat = sp.csr_array((data.copy(), indices.copy(), indptr.copy()), shape=(3, 4))
    path = tmp_path / "m.mtx"
    write_matrix_market(path, mat)
    lines = [line.split() for line in path.read_text().splitlines() if line[:1] != "%"]
    assert lines[0] == ["3", "4", "4"]
    entries = [(int(i), int(j), float(v)) for i, j, v in lines[1:]]
    assert entries == [(1, 4, 2.25), (2, 3, 7.0), (3, 1, -4.0), (3, 2, 1.5)]
    np.testing.assert_array_equal(read_matrix_market(path).toarray(), mat.toarray())
    for got, was in zip((mat.data, mat.indices, mat.indptr), (data, indices, indptr)):
        np.testing.assert_array_equal(got, was)


@pytest.mark.parametrize("sparse", [False, True], ids=["array", "coordinate"])
def test_symmetric_input_is_written_as_general(tmp_path, sparse):
    mat = np.array([[1.0, 2.0], [2.0, 3.0]])
    path = tmp_path / "m.mtx"
    write_matrix_market(path, sp.csr_array(mat) if sparse else mat)
    assert path.read_text().split("\n", 1)[0].split()[-1] == "general"
    back = read_matrix_market(path)
    np.testing.assert_array_equal(back.toarray() if sparse else back, mat)


@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix coordinate integer general\n1 2 1\n1 2 100000000000000000000\n",
        "%%MatrixMarket matrix array integer general\n1 2\n0\n100000000000000000000\n",
    ],
    ids=["coordinate", "array"],
)
def test_integer_above_int64_reads_as_float(tmp_path, text):
    mat = read_matrix_market(write(tmp_path, text))
    mat = mat.toarray() if sp.issparse(mat) else mat
    np.testing.assert_array_equal(mat, [[0.0, 1e20]])


def test_comment_and_blank_lines_inside_body_skipped(tmp_path):
    coordinate = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n% mid\n  %x\n2 2 4.0\n\n",
    )
    array = write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n2 1\n% first\n1.0\n\n   \n%\n2.0\n",
        name="a.mtx",
    )
    np.testing.assert_array_equal(read_matrix_market(coordinate).toarray(), [[1.0, 0.0], [0.0, 4.0]])
    np.testing.assert_array_equal(read_matrix_market(array), [[1.0], [2.0]])


def test_several_array_values_on_one_line(tmp_path):
    general = write(tmp_path, "%%MatrixMarket matrix array real general\n2 3\n1 2 3\n4\n5 6\n")
    symmetric = write(
        tmp_path, "%%MatrixMarket matrix array integer symmetric\n2 2\n1 2 3\n", name="s.mtx"
    )
    np.testing.assert_array_equal(read_matrix_market(general), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    np.testing.assert_array_equal(read_matrix_market(symmetric), [[1.0, 2.0], [2.0, 3.0]])


@pytest.mark.parametrize(
    "spell,entry",
    [
        (lambda text: text.replace("\n", "\r\n"), 3.5),
        (lambda text: text.rstrip("\n"), 3.5),
        (lambda text: text.replace(" ", "\t"), 3.5),
        (lambda text: text.replace("1 2 3.5", "+1 2 +3.5").replace("0 3.5", "+0 +3.5"), 3.5),
        (lambda text: text.replace("3.5", "nan"), np.nan),
        (lambda text: text.replace("3.5", "1_0.5"), 10.5),
    ],
    ids=["crlf", "no-final-newline", "tabs", "plus-signs", "nan", "underscore"],
)
@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix coordinate real general\n1 2 1\n1 2 3.5\n",
        "%%MatrixMarket matrix array real general\n1 2\n0 3.5\n",
    ],
    ids=["coordinate", "array"],
)
def test_spellings_python_reads(tmp_path, text, spell, entry):
    mat = read_matrix_market(write(tmp_path, spell(text)))
    mat = mat.toarray() if sp.issparse(mat) else mat
    np.testing.assert_array_equal(mat, [[0.0, entry]])


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reads_and_writes_hold_about_the_matrix(tmp_path):
    # a read holds its result, not a string per value, and a write no
    # Python string per value either; at ~50,000 entries a string per token
    # costs 33x. The first write also imports scipy.io, which holds about
    # 1.1 MB, inside the sparse bound
    rng = np.random.default_rng(0)
    sparse = sp.csr_array(rng.standard_normal((1000, 1000)) * (rng.random((1000, 1000)) < 0.05))
    sparse_bytes = sparse.data.nbytes + sparse.indices.nbytes + sparse.indptr.nbytes
    dense = rng.standard_normal((300, 200))
    s, d = tmp_path / "s.mtx", tmp_path / "d.mtx"
    assert traced_peak(lambda: write_matrix_market(s, sparse)) <= 8 * sparse_bytes
    assert traced_peak(lambda: read_matrix_market(s)) <= 8 * sparse_bytes
    assert traced_peak(lambda: write_matrix_market(d, dense)) <= dense.nbytes
    assert traced_peak(lambda: read_matrix_market(d)) <= 4 * dense.nbytes
    assert (read_matrix_market(s) != sparse).nnz == 0
    np.testing.assert_array_equal(read_matrix_market(d), dense)


@pytest.mark.parametrize("sparse", [False, True], ids=["array", "coordinate"])
def test_line_walker_reads_what_the_numpy_pass_reads(tmp_path, monkeypatch, sparse):
    # a comment line inside the body sends a file to the line walker; over
    # a body of many reads both paths give the same matrix, and a fault in
    # the last line is reported at that line
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((300, 200))
    if sparse:
        mat = sp.csr_array(mat * (rng.random(mat.shape) < 0.3))
    plain = tmp_path / "plain.mtx"
    write_matrix_market(plain, mat)
    text = plain.read_text()
    walked = write(tmp_path, after_size_line(text, "% inside the body"), name="walked.mtx")
    bad = write(tmp_path, f"{text.rstrip()[:-1]}x\n", name="bad.mtx")
    walks = counted_walks(monkeypatch)
    fast, slow = read_matrix_market(plain), read_matrix_market(walked)
    assert walks == [walked]
    if sparse:
        assert (fast != mat).nnz == 0 and (slow != mat).nnz == 0
    else:
        np.testing.assert_array_equal(fast, mat)
        np.testing.assert_array_equal(slow, mat)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(bad)
    assert walks == [walked, bad]
    assert err.value.line_no == text.count("\n")
