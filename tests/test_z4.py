import hashlib
import random
from itertools import permutations
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcis.boolfun import t_ci_strength, walsh_table
from tcis.codes import dual_distance, min_distance
from tcis.gf2 import rank
from tcis.z4 import (
    LEE_WEIGHTS,
    Z4Code,
    Z4Matrix,
    gray_image,
    gray_symbol,
    gray_word,
    lee_min_distance,
    ungray_word,
    z4_derive_bijections,
    z4_invert,
    z4_t_cis_partition,
)


def test_gray_symbol_table():
    # 0 -> 00, 1 -> 01, 2 -> 11, 3 -> 10 (first bit, second bit)
    assert [gray_symbol(v) for v in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_gray_word_round_trip(rng):
    for _ in range(40):
        n = rng.randrange(1, 9)
        symbols = [rng.randrange(4) for _ in range(n)]
        w = gray_word(symbols)
        assert ungray_word(w, n) == tuple(symbols)


def test_gray_isometry(rng):
    # Lee weight of v equals Hamming weight of its Gray image
    for _ in range(40):
        n = rng.randrange(1, 9)
        symbols = [rng.randrange(4) for _ in range(n)]
        lee = sum(LEE_WEIGHTS[s] for s in symbols)
        assert gray_word(symbols).bit_count() == lee


def test_z4_matrix_ops(rng):
    m = Z4Matrix.from_strings(["3121", "1231"])
    assert m.to_strings() == ["3121", "1231"]
    assert m.entry(0, 0) == 3
    assert m.transpose().to_strings() == ["31", "12", "23", "11"]
    i2 = Z4Matrix.identity(2)
    assert i2.mul(m).to_strings() == m.to_strings()
    assert m.vec_mul((1, 2)) == tuple((m.entry(0, j) + 2 * m.entry(1, j)) % 4
                                      for j in range(4))
    with pytest.raises(ValueError):
        Z4Matrix.from_strings(["314"])


def test_z4_invert(rng):
    for _ in range(30):
        k = rng.randrange(1, 5)
        m = Z4Matrix(tuple(tuple(rng.randrange(4) for _ in range(k))
                           for _ in range(k)))
        mi = z4_invert(m)
        residue_invertible = rank(m.residue()) == k
        assert (mi is not None) == residue_invertible
        if mi is not None:
            assert m.mul(mi) == Z4Matrix.identity(k)
            assert mi.mul(m) == Z4Matrix.identity(k)


def test_octacode_parameters(octacode):
    assert (octacode.n, octacode.k) == (8, 4)
    assert octacode.free
    assert lee_min_distance(octacode) == 6
    img = gray_image(octacode)
    assert (img.n, img.size) == (16, 256)
    assert img.distance_invariant
    dmin = min(
        (a ^ b).bit_count() for i, a in enumerate(img.words)
        for b in img.words[i + 1:]
    )
    assert dmin == 6


def test_octacode_formal_dual_distance(octacode):
    assert dual_distance(gray_image(octacode)) == 6


def test_octacode_partition_and_derive(octacode):
    p = z4_t_cis_partition(octacode, 2)
    assert p.is_partition
    assert sorted(p.sets, key=min) == [(0, 1, 2, 3), (4, 5, 6, 7)]
    (f,) = z4_derive_bijections(octacode, 2)
    assert f.k == 8
    assert t_ci_strength([f]) == 5


# SHA-256 of the bijection tables, recorded while each entry was computed
# one input at a time as gray(ungray(x) . (M^T)^-1)
Z4_TABLE_DIGESTS = {
    "octacode": "8fabe548fc3f051b7907d5266bd97c1c2ca67766429da8bf27a9dd99dcdd6cd2",
    "z4_24_6": "dcec8f3d1e0bccfefe0a6e5a5db372174a83cc217a434b3e955d221d46289c1e",
}


def test_z4_derive_tables_pinned(octacode, z4_24_6, rng):
    for name, c, t in (("octacode", octacode, 2), ("z4_24_6", z4_24_6, 4)):
        fs = z4_derive_bijections(c, t)
        digest = hashlib.sha256(repr([f.table for f in fs]).encode()).hexdigest()
        assert digest == Z4_TABLE_DIGESTS[name]
        k = c.k
        for b, f in enumerate(fs, start=1):
            block = c.gen.take_columns(range(b * k, (b + 1) * k))
            minv = z4_invert(block.transpose())
            for x in rng.sample(range(1 << (2 * k)), 64):
                assert f.table[x] == gray_word(minv.vec_mul(ungray_word(x, k)))


def test_z4_24_6(z4_24_6):
    assert (z4_24_6.n, z4_24_6.k) == (24, 6)
    assert lee_min_distance(z4_24_6) == 18
    p = z4_t_cis_partition(z4_24_6, 4)
    assert p.is_partition
    assert sorted(p.sets, key=min) == [tuple(range(b * 6, (b + 1) * 6))
                                       for b in range(4)]


def test_z4_24_6_gray_strength(z4_24_6):
    # the three 12-bit Gray bijections are nonlinear, so only the Walsh
    # route answers; the oracle takes each table's output masks one weight
    # class at a time, lightest first
    fs = z4_derive_bijections(z4_24_6, 4)
    k = fs[0].k
    weights = np.bitwise_count(np.arange(1 << k))
    total = weights[1:].astype(np.int64)
    for f in fs:
        values = walsh_table(f).values
        least = np.full(1 << k, k + 1)
        for w in range(k + 1):
            hit = (values[:, weights == w] != 0).any(axis=1)
            least[(least > k) & hit] = w
        total += least[1:]
    assert int(total.min()) - 1 == 9
    assert t_ci_strength(fs) == 9


def test_gray_image_cardinality(rng):
    # free codes have 4^k distinct codewords, hence 4^k Gray images
    for _ in range(10):
        k = rng.randrange(1, 3)
        n = k + rng.randrange(1, 3)
        rows = []
        for i in range(k):
            row = [0] * n
            row[i] = 1
            for j in range(k, n):
                row[j] = rng.randrange(4)
            rows.append(tuple(row))
        c = Z4Code(Z4Matrix(tuple(rows)))
        assert c.free
        img = gray_image(c)
        assert img.size == 4 ** k
        assert img.n == 2 * n


def test_lee_min_distance_matches_gray_weights(rng):
    # small random codes, free or not, so Lee weights 1 and 2 occur
    for _ in range(30):
        k = rng.randrange(1, 3)
        n = rng.randrange(1, 4)
        c = Z4Code(Z4Matrix([[rng.randrange(4) for _ in range(n)] for _ in range(k)]))
        weights = [w.bit_count() for w in gray_image(c).words if w]
        if weights:
            assert lee_min_distance(c) == min(weights)
        else:
            with pytest.raises(ValueError, match="no nonzero codeword"):
                lee_min_distance(c)


def test_non_free_rejected():
    c = Z4Code(Z4Matrix(((2, 2),)))
    assert not c.free
    with pytest.raises(ValueError):
        z4_t_cis_partition(c, 1)


def test_z4_partition_violation():
    # second column is twice the first: residue has a zero column
    c = Z4Code(Z4Matrix(((1, 2),)))
    v = z4_t_cis_partition(c, 2)
    assert not v.is_partition


def test_derive_needs_systematic_form(octacode):
    # moving the identity away from the front is rejected
    perm = [4, 5, 6, 7, 0, 1, 2, 3]
    shuffled = Z4Code(octacode.gen.take_columns(perm))
    with pytest.raises(ValueError):
        z4_derive_bijections(shuffled, 2)


def leibniz_det(rows) -> int:
    """Integer determinant by the permutation expansion."""
    k = len(rows)
    total = 0
    for perm in permutations(range(k)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        total += sign * prod(rows[i][perm[i]] for i in range(k))
    return total


@st.composite
def z4_square_rows(draw):
    # odd-entry matrices with k >= 2 have an even determinant
    k = draw(st.integers(1, 6))
    entry = st.sampled_from([1, 3]) if draw(st.booleans()) else st.integers(0, 3)
    return [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(k)]


@given(z4_square_rows())
def test_z4_invert_against_determinant(rows):
    k = len(rows)
    m = Z4Matrix(rows)
    mi = z4_invert(m)
    assert (mi is None) == (leibniz_det(rows) % 2 == 0) == (rank(m.residue()) < k)
    if mi is not None:
        assert m.mul(mi) == mi.mul(m) == Z4Matrix.identity(k)
