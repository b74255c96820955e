import hashlib
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    hstack,
    mul_vec,
    poly_degree,
    poly_mul,
    random_full_rank,
    random_invertible,
    solve_in_span,
)
from tcis.gf2 import (
    BitMatrix,
    Echelon,
    Infeasible,
    invert,
    parity_dot,
    poly_divmod,
    poly_gcd,
    poly_mod,
    rank,
    vec_from_str,
    vec_to_str,
    x_pow_minus_one,
)


def test_vec_string_round_trip():
    assert vec_from_str("1011") == 0b1101
    assert vec_to_str(0b1101, 4) == "1011"
    for v in range(16):
        assert vec_from_str(vec_to_str(v, 4)) == v
    with pytest.raises(ValueError):
        vec_from_str("10x1")


def test_parity_dot():
    assert parity_dot(0b101, 0b100) == 1
    assert parity_dot(0b101, 0b010) == 0
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert parity_dot(a ^ b, c) == parity_dot(a, c) ^ parity_dot(b, c)


def test_matrix_basics():
    m = BitMatrix.from_strings(["101", "011"])
    assert m.to_strings() == ["101", "011"]
    assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0
    assert m.column(0) == 0b01 and m.column(2) == 0b11
    assert m.columns() == [0b01, 0b10, 0b11]
    assert m.transpose().to_strings() == ["10", "01", "11"]
    assert m.transpose().transpose() == m
    i3 = BitMatrix.identity(3)
    assert i3.mul(i3) == i3
    assert m.mul(i3) == m


def test_matrix_column_ops():
    m = BitMatrix.from_strings(["1010", "0110"])
    assert m.take_columns([3, 0]).to_strings() == ["01", "00"]
    assert m.take_columns([2, 1, 0]).to_strings() == ["101", "110"]
    h = hstack(m, BitMatrix.from_strings(["11", "01"]))
    assert h.to_strings() == ["101011", "011001"]


def test_mul_vec_vs_vec_mul(rng):
    for _ in range(50):
        k = rng.randrange(1, 7)
        m = random_full_rank(rng, k, k)
        x = rng.randrange(1 << k)
        assert m.vec_mul(x) == mul_vec(m.transpose(), x)


def test_rank_and_invert(rng):
    assert rank(BitMatrix.identity(5)) == 5
    assert rank(BitMatrix([0, 0], 3)) == 0
    for _ in range(40):
        k = rng.randrange(1, 8)
        m = random_invertible(rng, k)
        mi = invert(m)
        assert mi is not None
        assert m.mul(mi) == BitMatrix.identity(k)
        assert mi.mul(m) == BitMatrix.identity(k)
    # singular: repeated row
    s = BitMatrix([0b11, 0b11], 2)
    assert invert(s) is None
    with pytest.raises(ValueError):
        invert(BitMatrix([1], 2))


def test_solve_in_span(rng):
    for _ in range(40):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        basis = random_full_rank(rng, n, k).transpose()  # independent columns
        cols = basis.columns()
        coeff = rng.randrange(1 << k)
        target = 0
        for i in range(k):
            if (coeff >> i) & 1:
                target ^= cols[i]
        assert solve_in_span(basis, target) == coeff
    # target outside the span of the two columns
    out = BitMatrix.from_strings(["10", "11", "01"])
    assert solve_in_span(out, 0b001) is None
    with pytest.raises(ValueError):
        solve_in_span(BitMatrix.from_strings(["11", "11"]), 0b01)


def test_poly_ops(rng):
    # (x+1)(x^2+x+1) = x^3+1
    assert poly_mul(0b11, 0b111) == 0b1001
    assert poly_degree(0) is None
    assert poly_degree(0b1001) == 3
    assert x_pow_minus_one(3) == 0b1001
    for _ in range(60):
        a = rng.randrange(1 << 12)
        b = rng.randrange(1, 1 << 8)
        q, r = poly_divmod(a, b)
        assert poly_mul(q, b) ^ r == a
        assert r == 0 or poly_degree(r) < poly_degree(b)
        assert poly_mod(a, b) == r
    with pytest.raises(ZeroDivisionError):
        poly_divmod(0b101, 0)


def test_poly_gcd(rng):
    assert poly_gcd(0b1001, 0b11) == 0b11  # x+1 divides x^3+1
    for _ in range(40):
        a = rng.randrange(1, 1 << 10)
        b = rng.randrange(1, 1 << 10)
        g = poly_gcd(a, b)
        assert poly_mod(a, g) == 0
        assert poly_mod(b, g) == 0
        assert g == poly_gcd(b, a)
    with pytest.raises(ValueError):
        poly_gcd(0, 0)


def test_poly_degree_cap():
    with pytest.raises(Infeasible):
        poly_divmod(1 << 5000, 0b11)


def solve_outputs(seed):
    """solve_in_span on seeded bases, targets in and out of the span."""
    rng = random.Random(seed)
    out = []
    for _ in range(150):
        n = rng.randrange(1, 13)
        k = rng.randrange(1, n + 1)
        basis = random_full_rank(rng, n, k).transpose()
        out.append([solve_in_span(basis, rng.randrange(1 << n)) for _ in range(6)])
    return out


# SHA-256 of solve_in_span's answers, recorded before its elimination was
# folded into Echelon.
SOLVE_DIGEST = "001fe60a59d090505f1bd92a35ed06e67d812ab84bf44cf503a81d84e79bd954"


def test_solve_in_span_pinned():
    outputs = solve_outputs(0x501E)
    answers = [a for row in outputs for a in row]
    assert answers.count(None) > 100 and len(answers) - answers.count(None) > 100
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == SOLVE_DIGEST


def brute_span(vectors) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


@st.composite
def vector_sets(draw):
    n = draw(st.integers(1, 10))
    vectors = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    return n, vectors


@given(vector_sets())
def test_echelon_matches_brute_span(case):
    n, vectors = case
    e = Echelon(vectors)
    span = brute_span(vectors)
    assert 1 << e.rank == len(span)
    assert e.pivots == [
        i for i, v in enumerate(vectors) if v not in brute_span(vectors[:i])
    ]
    targets = range(1 << n)
    assert [v for v in targets if v in e] == sorted(span)
    for v in targets:
        comb = e.express(v)
        assert (v in e) == (v in span) == (comb is not None) == (e.reduce(v) == 0)
        assert e.reduce(v) ^ v in span
        if comb is not None:
            assert {i for i in range(len(vectors)) if comb >> i & 1} <= set(e.pivots)
            assert reduce(xor, (vectors[i] for i in e.pivots if comb >> i & 1), 0) == v


def test_echelon_insert():
    e = Echelon([0b011])
    assert e.insert(0b110) and not e.insert(0b101) and e.insert(0b001)
    assert e.rank == 3 and e.pivots == [0, 1, 3]
    assert e.express(0b101) == 0b011 and e.express(0b111) == 0b1010
    assert Echelon([0b01, 0b01]).express(0b10) is None


# rows each planted dependency touches: a zero row, a repeated row, a row
# that is the sum of two others
PLANTS = {"none": 1, "zero": 1, "repeat": 2, "sum": 3}


@st.composite
def square_matrices(draw):
    """(rows, singular): an invertible matrix from row operations on I,
    optionally with one row replaced by a planted dependency."""
    plant = draw(st.sampled_from(sorted(PLANTS)))
    k = draw(st.integers(PLANTS[plant], 16))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [1 << i for i in range(k)]
    for _ in range(4 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    i, *others = rng.sample(range(k), PLANTS[plant])
    if plant == "zero":
        rows[i] = 0
    elif plant != "none":
        rows[i] = reduce(xor, (rows[j] for j in others))
    return rows, plant != "none"


@given(square_matrices())
def test_invert_matches_construction(case):
    rows, singular = case
    k = len(rows)
    m = BitMatrix(rows, k)
    mi = invert(m)
    assert (mi is None) == singular == (rank(m) < k)
    if mi is not None:
        assert m.mul(mi) == mi.mul(m) == BitMatrix.identity(k)


@st.composite
def dependent_lists(draw):
    """Vectors of width up to 12 in which some entries are zero, repeats or
    sums of earlier ones."""
    n = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    vectors = []
    for kind in draw(st.lists(st.sampled_from(["new", "zero", "repeat", "sum"]), max_size=16)):
        if kind == "new" or not vectors:
            vectors.append(rng.getrandbits(n))
        elif kind == "zero":
            vectors.append(0)
        else:
            picks = rng.sample(vectors, min(len(vectors), 1 if kind == "repeat" else 3))
            vectors.append(reduce(xor, picks))
    return n, vectors


@given(dependent_lists(), st.lists(st.integers(0, 2**12 - 1), max_size=6))
def test_express_masks_stay_on_pivots(case, targets):
    n, vectors = case
    e = Echelon(vectors)
    grown = Echelon()
    assert [grown.insert(v) for v in vectors] == [i in e.pivots for i in range(len(vectors))]
    assert grown.pivots == e.pivots
    on_pivots = sum(1 << i for i in e.pivots)
    # every input, and every sum of inputs, is expressed over pivots alone
    for v in vectors + [reduce(xor, vectors[:i], 0) for i in range(len(vectors))]:
        comb = e.express(v)
        assert comb is not None and comb & ~on_pivots == 0 and comb == grown.express(v)
        assert reduce(xor, (vectors[i] for i in e.pivots if comb >> i & 1), 0) == v
    for v in targets:
        v &= (1 << n) - 1
        assert (e.express(v) is None) == (e.reduce(v) != 0)


@given(st.integers(0, 2**32))
def test_columns_match_column(seed):
    # sparse, dense, zero and full rows, up to 300 columns: the one-pass
    # columns() must agree with column(j) read one at a time
    rng = random.Random(seed)
    n = rng.randrange(1, 301)
    full = (1 << n) - 1
    pick = [
        lambda: rng.getrandbits(n),
        lambda: rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n),
        lambda: 1 << rng.randrange(n),
        lambda: 0,
        lambda: full,
    ]
    m = BitMatrix([rng.choice(pick)() for _ in range(rng.randrange(1, 20))], n)
    assert m.columns() == [m.column(j) for j in range(n)]
    assert BitMatrix(m.columns(), m.nrows).columns() == list(m.rows)
