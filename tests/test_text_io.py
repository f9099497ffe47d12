"""Row-streamed text I/O against the whole-file implementation it replaced.

``old_write_text`` and ``old_read_text`` below are the earlier
``lattice.write_text`` / ``lattice.read_text``, kept verbatim as the oracle:
written files must be byte-identical, read tensors must agree in mode, dtype
and values, and malformed text must raise the same exception type.
"""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from huffkit import lattice
from huffkit.lattice import LatticeError, Tensor, _int_dtype, as_tensor, read_text, write_text

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def old_write_text(t, path):
    t = as_tensor(t)
    if t.mode == "real" and not np.isfinite(t.data.astype(np.float64)).all():
        raise LatticeError("text output needs finite values")
    with open(path, "w") as fh:
        fh.write(" ".join(str(n) for n in t.shape) + "\n")
        flat = t.data.reshape(-1)
        if t.mode == "int":
            vals = [str(int(v)) for v in flat]
        else:
            vals = [repr(float(v)) for v in flat]
        if t.ndim == 2:
            ncol = t.shape[1]
            for r in range(t.shape[0]):
                fh.write(" ".join(vals[r * ncol : (r + 1) * ncol]) + "\n")
        else:
            fh.write(" ".join(vals) + "\n")


def old_read_text(path):
    with open(path) as fh:
        header = fh.readline().split()
        shape = tuple(int(x) for x in header)
        body = fh.read().split()
    if any("." in v or "e" in v or "E" in v or v in ("inf", "-inf", "nan") for v in body):
        arr = np.array([float(v) for v in body], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise LatticeError(f"{path}: text input needs finite values")
        mode = "real"
    else:
        ints = [int(v) for v in body]
        arr = np.array(ints, dtype=_int_dtype(max(map(abs, ints), default=0)))
        mode = "int"
    if len(body) != math.prod(shape):
        raise LatticeError(f"{path}: expected {math.prod(shape)} values, got {len(body)}")
    return Tensor(arr.reshape(shape), mode)


def _outcome(read, path):
    """The tensor ``read`` returns, or the type of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # the oracle's exception type is the expectation
        return type(exc)


def _assert_same_read(path):
    old, new = _outcome(old_read_text, path), _outcome(read_text, path)
    if isinstance(old, type):
        assert new is old
        return
    assert new.mode == old.mode and new.data.dtype == old.data.dtype and new.shape == old.shape
    assert new.data.tolist() == old.data.tolist()
    assert [type(v) for v in new.data.flat] == [type(v) for v in old.data.flat]


_BOUNDARY = st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX, INT64_MAX + 1, INT64_MIN - 1, 0, -1])
_VALUES = {
    "int64": st.integers(INT64_MIN + 1, INT64_MAX),
    "small": st.integers(-300, 300),
    "object": st.integers(-(2**80), 2**80),
    "boundary": st.one_of(_BOUNDARY, st.integers(-9, 9)),
    "real": st.floats(allow_nan=False, allow_infinity=False),
}


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    kind = draw(st.sampled_from(sorted(_VALUES)))
    values = draw(st.lists(_VALUES[kind], min_size=math.prod(shape), max_size=math.prod(shape)))
    if kind == "real":
        return Tensor(np.array(values, dtype=np.float64).reshape(shape), "real")
    if kind == "boundary" and draw(st.booleans()) and all(INT64_MIN <= v <= INT64_MAX for v in values):
        return Tensor(np.array(values, dtype=np.int64).reshape(shape), "int")  # may hold -2^63 in int64
    return Tensor.from_values(np.array(values, dtype=object).reshape(shape), "int")


@given(tensors())
@example(Tensor(np.array([[INT64_MIN, 1], [2, INT64_MAX]], dtype=np.int64), "int"))
@example(Tensor(np.array([-0.0, 5e-324, 1e308, 0.1]), "real"))
@example(Tensor(np.array(7, dtype=np.int64), "int"))
def test_text_round_trip_matches_the_whole_file_oracle(tmp_path_factory, t):
    d = tmp_path_factory.mktemp("io")
    old_write_text(t, d / "old.txt")
    write_text(t, d / "new.txt")
    assert (d / "new.txt").read_bytes() == (d / "old.txt").read_bytes()
    _assert_same_read(d / "new.txt")


def test_write_text_keeps_int_of_odd_integer_storage(tmp_path):
    for t in (
        Tensor(np.array([True, 2**70], dtype=object), "int"),
        Tensor(np.array([np.int64(3), np.uint8(4)], dtype=object), "int"),
        Tensor(np.array([1, 2], dtype=np.uint8), "int"),
        Tensor(np.array([[1, 2]], dtype=np.int32), "real"),
    ):
        old_write_text(t, tmp_path / "old.txt")
        write_text(t, tmp_path / "new.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        "3\n1 1.5 2\n",
        "3\n1 nan 2\n",
        "3\n1 a 2\n",
        "3\n1 - 2\n",
        "3\n1 2\n",
        "3\n1 2 3 4\n",
        "2\n1.5 2 3\n",
        "2\na 1e400\n",
        "3\n1 inf 2\n",
        "2\n-9223372036854775808 1\n",
        "2\n9223372036854775808 1\n",
        "\n5\n",
        "0\n\n",
        "2 x\n1 2\n",
    ],
)
def test_read_text_refuses_what_the_oracle_refuses(tmp_path, text):
    path = tmp_path / "t.txt"
    path.write_text(text)
    _assert_same_read(path)


_TOKENS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["+7", "007", "1_000", "-0", "1.5", "2e3", "nan", "inf", "-inf", "a", "-", "1__0",
                     str(INT64_MIN), str(INT64_MAX + 1)]),
)


@given(st.lists(_TOKENS, max_size=8), st.integers(0, 9))
def test_read_text_matches_the_oracle_on_any_tokens(tmp_path_factory, tokens, count):
    path = tmp_path_factory.mktemp("tokens") / "t.txt"
    path.write_text(f"{count}\n" + " ".join(tokens) + "\n")
    _assert_same_read(path)


_SEPARATORS = st.sampled_from([" ", "\n", "\r\n", "\r", " \t ", "\x0c", " ", "\n\n"])


@given(st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=8), st.integers(0, 9))
def test_read_text_matches_the_oracle_on_any_line_split(tmp_path_factory, pairs, count):
    """The line-by-line int64 parse and its whole-file fallback see the same tokens as the oracle."""
    path = tmp_path_factory.mktemp("lines") / "t.txt"
    path.write_text(f"{count}\n" + "".join(token + sep for token, sep in pairs), newline="")
    _assert_same_read(path)


@given(st.lists(st.tuples(st.integers(INT64_MIN + 1, INT64_MAX), _SEPARATORS), min_size=1, max_size=12),
       st.integers(1, 8))
def test_block_parse_carries_a_cut_token_into_the_next_block(pairs, block):
    """Tiny blocks cut tokens and separators anywhere; the int64 parse must still succeed, not fall back."""
    text = "".join(f"{value}{sep}" for value, sep in pairs)
    with mock.patch.object(lattice, "_TEXT_BLOCK", block):
        got = lattice._int64_blocks(io.StringIO(text, newline=""), len(pairs))
    assert got is not None and got.tolist() == [value for value, _ in pairs]


@pytest.mark.parametrize("shape", [(300, 300), (90_000,), (45, 40, 50)], ids=["2d", "1d", "3d"])
def test_read_text_never_holds_every_token(tmp_path, shape):
    """A 90 000-entry int64 file is parsed a block at a time, even where 1D and
    3D layouts put every value on one line: peak memory stays near the array itself."""
    import tracemalloc

    t = Tensor(np.random.default_rng(5).integers(-(2**40), 2**40, shape), "int")
    write_text(t, tmp_path / "t.txt")
    tracemalloc.start()
    got = read_text(tmp_path / "t.txt")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got == t
    assert peak < 1.5 * t.data.nbytes, peak
