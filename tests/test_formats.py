"""Tests for the bin / z4 / qc / perm text formats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_code, random_invertible
from tcis.boolfun import BooleanPermutation
from tcis.codes import LinearCode
from tcis.construct import QcSpec
from tcis.formats import emit, load, parse, save
from tcis.gf2 import BitMatrix, Echelon
from tcis.z4 import Z4Code, Z4Matrix


DATA_FILES = [
    "bk_24_8.code",
    "buildup_6_2.code",
    "octacode.z4",
    "z4_24_6.z4",
    "qc_243_9.qc",
]


@pytest.mark.parametrize("name", DATA_FILES)
def test_data_files_round_trip(data_dir, name):
    raw = (data_dir / name).read_text(encoding="ascii")
    assert emit(parse(raw)) == raw


def test_parse_bin_bit_convention():
    c = parse("bin 3 1\n110\n")
    assert isinstance(c, LinearCode)
    assert (c.n, c.k) == (3, 1)
    # leftmost character is bit 0
    assert c.gen.row(0) == 0b011


def test_comments_and_blank_lines_ignored():
    text = "# a file\nbin 2 1  # header comment\n\n  10  # the row\n# done\n"
    c = parse(text)
    assert (c.n, c.k) == (2, 1)
    assert c.gen.row(0) == 0b01
    assert emit(c) == "bin 2 1\n10\n"


def test_body_rows_may_share_lines():
    c = parse("bin 2 2\n10 01\n")
    assert [c.gen.row(0), c.gen.row(1)] == [1, 2]
    spec = parse("qc 3 3\n3\n7 5\n")
    assert spec == QcSpec(3, 3, (0o3, 0o7, 0o5))


def test_emit_parse_identity_random(rng):
    for _ in range(20):
        k = rng.randint(1, 5)
        n = rng.randint(k, 12)
        c = random_code(rng, n, k)
        back = parse(emit(c))
        assert back.gen.rows == c.gen.rows
        assert emit(back) == emit(c)


def test_perm_round_trip(rng):
    f = BooleanPermutation.from_matrix(random_invertible(rng, 4))
    text = emit(f)
    assert text.startswith("perm 4\n")
    back = parse(text)
    assert isinstance(back, BooleanPermutation)
    assert back.table == f.table
    assert emit(back) == text


def test_z4_round_trip(octacode):
    text = emit(octacode)
    assert text.startswith("z4 8 4\n")
    back = parse(text)
    assert isinstance(back, Z4Code)
    assert back.gen.to_strings() == octacode.gen.to_strings()


def test_qc_round_trip(qc_243_9):
    text = emit(qc_243_9)
    assert text.splitlines()[0] == "qc 27 9"
    assert parse(text) == qc_243_9


@st.composite
def bin_codes(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    independent = [rows[i] for i in Echelon(rows).pivots]
    return LinearCode(BitMatrix(independent, n))


@st.composite
def z4_codes(draw):
    n = draw(st.integers(1, 10))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return Z4Code(Z4Matrix(draw(st.lists(row, min_size=1, max_size=n))))


@st.composite
def qc_specs(draw):
    t, m = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    poly = st.integers(0, (1 << m) - 1)
    return QcSpec(t, m, tuple(draw(st.lists(poly, min_size=t, max_size=t))))


@st.composite
def perms(draw):
    k = draw(st.integers(1, 5))
    return BooleanPermutation(k, draw(st.permutations(range(1 << k))))


FORMAT_OBJECTS = {"bin": bin_codes(), "z4": z4_codes(), "qc": qc_specs(), "perm": perms()}


def _same(x, y) -> bool:
    # Z4Code has no equality of its own; its generator decides
    if isinstance(x, Z4Code):
        return isinstance(y, Z4Code) and x.gen == y.gen
    return x == y


@pytest.mark.parametrize("kind", sorted(FORMAT_OBJECTS))
@given(data=st.data())
def test_round_trip_property(kind, data):
    x = data.draw(FORMAT_OBJECTS[kind])
    text = emit(x)
    assert text.split()[0] == kind
    assert _same(parse(text), x)
    assert emit(parse(text)) == text


def test_save_load(tmp_path, rng):
    objs = [
        random_code(rng, 6, 3),
        QcSpec(2, 3, (0o3, 0o7)),
        BooleanPermutation.from_matrix(random_invertible(rng, 3)),
    ]
    for i, obj in enumerate(objs):
        p = tmp_path / f"obj_{i}.txt"
        save(p, obj)
        assert emit(load(p)) == emit(obj)


@pytest.mark.parametrize(
    "text,frag",
    [
        ("", "empty file"),
        ("   \n# only comments\n", "empty file"),
        ("hex 2 1\n10\n", "unknown format"),
        ("bin 3\n110\n", "malformed bin header"),
        ("bin x 2\n10\n", "malformed bin header"),
        ("bin 0 1\n\n", "malformed bin header"),
        ("bin 2 2\n10\n", "expected 2"),
        ("bin 2 1\n101\n", "not 2 bits"),
        ("bin 2 1\n1x\n", "invalid bit character"),
        ("z4 2 1\n14\n", "digit"),
        ("qc 2 3\n3 9\n", "octal"),
        ("qc 2 3\n3\n", "expected 2"),
        ("perm 1\n0\n00\n", "not 1 bits"),
        ("perm 1\n0\n0\n", "bijection"),
    ],
)
def test_parse_errors(text, frag):
    with pytest.raises(ValueError, match=frag):
        parse(text)


def test_parse_rejects_dependent_rows():
    with pytest.raises(ValueError):
        parse("bin 2 2\n10 10\n")


def test_emit_rejects_unknown_type():
    with pytest.raises(TypeError, match="cannot emit"):
        emit(42)
