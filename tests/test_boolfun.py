import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tcis.boolfun
import tcis.codes
from conftest import (
    is_constant,
    mul_vec,
    random_invertible,
    random_perm,
    scrambled_cis_code,
    systematic_cis_code,
)
from tcis import formats
from tcis.boolfun import (
    BooleanPermutation,
    LeakageFunction,
    build_masking_code,
    cip_strength,
    derive_bijections,
    group_convolution,
    hamming_weight_leakage,
    leakage_constancy_check,
    point_mass_leakage,
    t_ci_strength,
    verify_theorem1,
    walsh_table,
)
from tcis.codes import LinearCode, dual, min_distance
from tcis.gf2 import BitMatrix, CertificateError, Infeasible, parity_dot


def test_permutation_validation():
    with pytest.raises(ValueError):
        BooleanPermutation(2, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        BooleanPermutation(2, [0, 1, 2])
    ident = BooleanPermutation.identity(3)
    assert [ident(x) for x in range(8)] == list(range(8))


@pytest.mark.parametrize("k, table", [(0, [0]), (-1, [])])
def test_permutation_rejects_k_below_one(k, table):
    with pytest.raises(ValueError, match="k must be at least 1"):
        t_ci_strength([BooleanPermutation(k, table)])


@pytest.mark.parametrize("k, values", [(0, [1]), (-1, [])])
def test_leakage_rejects_k_below_one(k, values):
    with pytest.raises(ValueError, match="k must be at least 1"):
        LeakageFunction(k, values)


def test_from_matrix_row_action(rng):
    # a linear permutation acts on row vectors: F(x) = x . M
    for _ in range(20):
        k = rng.randrange(1, 6)
        m = random_invertible(rng, k)
        f = BooleanPermutation.from_matrix(m)
        for x in range(1 << k):
            assert f(x) == m.vec_mul(x)
    with pytest.raises(ValueError, match="matrix is singular"):
        BooleanPermutation.from_matrix(BitMatrix([0b11, 0b11], 2))


@given(st.integers(0, 2**32))
def test_from_matrix_table_matches_vec_mul(seed):
    rng = random.Random(seed)
    k = rng.randrange(1, 10)
    m = random_invertible(rng, k)
    f = BooleanPermutation.from_matrix(m)
    assert list(f.table) == [m.vec_mul(x) for x in range(1 << k)]
    if k > 1:
        # a bijection one swap away from x.M is rejected with the matrix
        x, y = rng.sample(range(1 << k), 2)
        table = list(f.table)
        table[x], table[y] = table[y], table[x]
        with pytest.raises(ValueError, match="reproduce"):
            BooleanPermutation(k, table, m)


@given(st.integers(0, 2**32))
def test_linear_permutation_equals_its_table(seed):
    # built from its matrix or from its table alone, a linear permutation
    # answers, compares and hashes alike, while the other bijections differ
    rng = random.Random(seed)
    k = rng.randrange(1, 8)
    f = BooleanPermutation.from_matrix(random_invertible(rng, k))
    g = BooleanPermutation(k, [f(x) for x in range(1 << k)])
    assert f._table is None and g.matrix is None
    assert f == g and g == f and hash(f) == hash(g)
    assert len({f, g}) == 1
    h = BooleanPermutation.from_matrix(random_invertible(rng, k))
    assert (f == h) == (f.table == h.table) == (f.matrix == h.matrix)
    assert f == BooleanPermutation(k, f.table, f.matrix)


def test_linear_permutation_without_table():
    # one evaluation, comparison or hash of a k = 22 permutation reads the
    # matrix, never the 2^22-entry table
    m = random_invertible(random.Random(22), 22)
    f, g = BooleanPermutation.from_matrix(m), BooleanPermutation.from_matrix(m)
    assert f(5) == m.vec_mul(5) and f(0) == 0
    assert f == g and hash(f) == hash(g)
    assert f != BooleanPermutation.identity(22)
    assert f._table is None and g._table is None


def test_inverse(rng):
    for _ in range(10):
        k = rng.randrange(1, 5)
        f = random_perm(rng, k)
        g = f.inverse()
        for x in range(1 << k):
            assert g(f(x)) == x
    m = random_invertible(rng, 3)
    f = BooleanPermutation.from_matrix(m)
    g = f.inverse()
    assert g.matrix is not None
    assert m.mul(g.matrix) == BitMatrix.identity(3)


def brute_walsh(f, a, b):
    return sum(
        -1 if (parity_dot(a, x) ^ parity_dot(b, f(x))) else 1
        for x in range(1 << f.k)
    )


def test_walsh_definitional(rng):
    for k in (1, 2, 3):
        f = random_perm(rng, k)
        w = walsh_table(f)
        for a in range(1 << k):
            for b in range(1 << k):
                assert w.value(a, b) == brute_walsh(f, a, b)


def test_walsh_linear_support(rng):
    # for F(x) = x.M the table is 2^k exactly on pairs a = M b (column action)
    for _ in range(10):
        k = rng.randrange(1, 5)
        m = random_invertible(rng, k)
        f = BooleanPermutation.from_matrix(m)
        w = walsh_table(f)
        for a in range(1 << k):
            for b in range(1 << k):
                want = (1 << k) if a == mul_vec(m, b) else 0
                assert w.value(a, b) == want


@given(st.integers(1, 7).flatmap(lambda k: st.permutations(range(1 << k))))
def test_walsh_parseval(table):
    k = len(table).bit_length() - 1
    values = walsh_table(BooleanPermutation(k, table)).values
    assert values.dtype == np.int16
    w = values.astype(np.int64)
    assert (np.square(w).sum(axis=0) == 4**k).all()
    assert w[0, 0] == 1 << k


def test_walsh_k12_affine_int16(rng):
    # F(x) = x.M ^ c has W(a, b) = (-1)^(b.c) 2^k on a = M b, so both
    # +4096 and -4096 must come through the int16 table exactly
    k, n = 12, 1 << 12
    m = random_invertible(rng, k)
    c = rng.randrange(1, n)
    values = walsh_table(BooleanPermutation(k, [m.vec_mul(x) ^ c for x in range(n)])).values
    assert values.dtype == np.int16
    b = np.arange(n)
    a_of_b = [mul_vec(m, v) for v in range(n)]
    signs = 1 - 2 * np.array([parity_dot(v, c) for v in range(n)])
    assert np.count_nonzero(values) == n
    assert (values[a_of_b, b] == n * signs).all()
    assert values.min() == -n and values.max() == n


@given(st.integers(0, 2**32))
def test_linear_walsh_matches_transform(seed):
    # the table filled from the matrix against the transform of the same
    # permutation stripped of it, dtype included
    rng = random.Random(seed)
    k = rng.randrange(1, 11)
    f = BooleanPermutation.from_matrix(random_invertible(rng, k))
    want = walsh_table(BooleanPermutation(k, f.table)).values
    got = walsh_table(f).values
    assert got.dtype == want.dtype == np.int16
    assert np.array_equal(got, want)


def test_linear_walsh_matches_transform_k12():
    # each 32 MB table is reduced to its dtype and nonzero entries before
    # the other is built
    def nonzeros(g):
        values = walsh_table(g).values
        at = np.flatnonzero(values)
        return values.dtype, at.tolist(), values.flat[at].tolist()

    f = BooleanPermutation.from_matrix(random_invertible(random.Random(0xC12), 12))
    assert nonzeros(f) == nonzeros(BooleanPermutation(12, f.table))


def test_linear_walsh_skips_transform(monkeypatch):
    # a permutation that carries its matrix never reaches the transform;
    # the same table without the matrix does
    calls = []
    fwht = tcis.codes._fwht

    def spy(a):
        calls.append(a.shape)
        return fwht(a)

    monkeypatch.setattr(tcis.codes, "_fwht", spy)
    monkeypatch.setattr(tcis.boolfun, "_fwht", spy)
    rng = random.Random(0x5B)
    for k in (1, 4, 9, 12):
        f = BooleanPermutation.from_matrix(random_invertible(rng, k))
        walsh_table(f)
        assert calls == []
        # in a mixed tuple only the member without a matrix is transformed
        t_ci_strength([f, random_perm(rng, k)])
        assert calls.count((1 << k, 1 << k)) == 1
        calls.clear()
        walsh_table(BooleanPermutation(k, f.table))
        assert calls and calls[0] == (1 << k, 1 << k)
        calls.clear()


def _spied_fwht(monkeypatch, a):
    # transform a through _fwht, returning the sizes of the pieces that the
    # blocked branch hands back to _fwht (none when the plain loop runs)
    pieces = []
    fwht = tcis.codes._fwht

    def spy(x):
        pieces.append(x.nbytes)
        return fwht(x)

    with monkeypatch.context() as mp:
        mp.setattr(tcis.codes, "_fwht", spy)
        out = spy(a)
    assert out is a
    return pieces[1:]


def _plain_fwht(monkeypatch, a):
    with monkeypatch.context() as mp:
        mp.setattr(tcis.codes, "_FWHT_CHUNK", 1 << 62)
        return tcis.codes._fwht(a)


def _sylvester(n):
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize(
    "shape, chunk",
    [
        ((1024, 512), 1 << 20),
        ((1024, 1024), 1 << 20),
        ((2048, 384), 1 << 20),
        ((1 << 19,), 1 << 20),
        ((1 << 20,), 1 << 20),
        ((1024, 64), 1 << 14),
        ((4096, 6), 1 << 10),
        ((64, 1024), 1 << 10),
    ],
)
def test_fwht_blocked_matches_plain(monkeypatch, shape, chunk):
    # int16 arrays on both sides of the 1 MiB chunk size, with uneven slabs
    # at (2048, 384); smaller chunk sizes give many high rows at (4096, 6)
    # and rows wider than a chunk at (64, 1024)
    gen = np.random.default_rng(sum(shape))
    a = gen.integers(-1, 2, size=shape, dtype=np.int16)
    want = _plain_fwht(monkeypatch, a.copy())
    monkeypatch.setattr(tcis.codes, "_FWHT_CHUNK", chunk)
    pieces = _spied_fwht(monkeypatch, a)
    if a.nbytes > chunk:
        assert sum(pieces) == 2 * a.nbytes
        if 2 * a.nbytes // shape[0] <= chunk:
            assert max(pieces) <= chunk
    else:
        assert pieces == []
    assert np.array_equal(a, want)


@pytest.mark.parametrize("n", [64, 128, 512])
def test_fwht_blocked_object_ints(monkeypatch, n):
    # Python ints beyond int64 through the blocked branch, forced by a
    # 512-byte chunk size, against an explicit Sylvester product
    gen = random.Random(n)
    ints = np.array([gen.randrange(-(2**70), 2**70) for _ in range(n)], dtype=object)
    monkeypatch.setattr(tcis.codes, "_FWHT_CHUNK", 1 << 9)
    a = ints.copy()
    pieces = _spied_fwht(monkeypatch, a)
    assert (pieces != []) == (a.nbytes > 1 << 9)
    assert a.tolist() == (_sylvester(n).astype(object) @ ints).tolist()


@pytest.mark.parametrize("k", [11, 12])
def test_walsh_large_random(k):
    rng = random.Random(0x11C + k)
    f = random_perm(rng, k)
    values = walsh_table(f).values
    n = 1 << k
    assert values.dtype == np.int16 and values.shape == (n, n)
    # Parseval along both axes, summed in int64 a row block at a time
    col_sq = np.zeros(n, dtype=np.int64)
    for i in range(0, n, 256):
        sq = np.square(values[i : i + 256].astype(np.int64))
        assert (sq.sum(axis=1) == 4**k).all()
        col_sq += sq.sum(axis=0)
    assert (col_sq == 4**k).all()
    for _ in range(64):
        a, b = rng.randrange(n), rng.randrange(n)
        assert values[a, b] == brute_walsh(f, a, b)


def test_walsh_k12_memory():
    # the sign matrix is built and transformed in place, so the peak stays
    # near the table's own size
    f = random_perm(random.Random(0x4D), 12)
    tracemalloc.start()
    try:
        values = walsh_table(f).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * values.nbytes


def test_linear_walsh_k12_memory():
    # filled from the matrix, the table is the only large allocation
    f = BooleanPermutation.from_matrix(random_invertible(random.Random(0x4E), 12))
    tracemalloc.start()
    try:
        values = walsh_table(f).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + (1 << 20)


def test_walsh_cap():
    with pytest.raises(Infeasible):
        walsh_table(BooleanPermutation.identity(13))


def brute_pair_strength(f1, f2):
    # smallest total weight of (a, b1, b2), a != 0, with both Walsh values
    # nonzero, minus nothing: strength = that minimum sum - 1
    k = f1.k
    w1, w2 = walsh_table(f1), walsh_table(f2)
    best = None
    for a in range(1, 1 << k):
        for b1 in range(1 << k):
            if not w1.value(a, b1):
                continue
            for b2 in range(1 << k):
                if not w2.value(a, b2):
                    continue
                s = a.bit_count() + b1.bit_count() + b2.bit_count()
                if best is None or s < best:
                    best = s
    return best - 1


def test_cip_strength_definitional(rng):
    for _ in range(12):
        k = rng.randrange(2, 4)
        f1, f2 = random_perm(rng, k), random_perm(rng, k)
        assert cip_strength(f1, f2) == brute_pair_strength(f1, f2)
    with pytest.raises(ValueError):
        cip_strength(random_perm(rng, 2), random_perm(rng, 3))


def test_identity_pair_strength():
    ident = BooleanPermutation.identity(3)
    assert cip_strength(ident, ident) == 2
    assert t_ci_strength([ident, ident]) == 2


def brute_least_weights(f):
    # per input mask a, the least weight of an output mask with a nonzero
    # Walsh value, scanned over the whole table row
    return [
        min(b.bit_count() for b, v in enumerate(row) if v)
        for row in walsh_table(f).values.tolist()
    ]


@given(st.integers(0, 2**32))
def test_t_ci_strength_matches_brute_minima(seed):
    # nonlinear tuples of up to six functions, past any count limit; the
    # per-row minima are compared too, since a linear function has one
    # nonzero per row and a random one rarely sets the tuple's minimum
    # away from weight-1 output masks
    rng = random.Random(seed)
    k, t = rng.randrange(1, 7), rng.randrange(1, 7)
    fs = [random_perm(rng, k) for _ in range(t)]
    least = [brute_least_weights(f) for f in fs]
    for f, row_minima in zip(fs, least):
        assert tcis.boolfun._min_outmask_weights(f).tolist() == row_minima
    want = min(a.bit_count() + sum(m[a] for m in least) for a in range(1, 1 << k))
    assert t_ci_strength(fs) == want - 1


@pytest.mark.parametrize("k", [11, 12])
def test_linear_strength_is_distance_minus_one(k):
    # linear bijections of a systematic 3-CIS code mask at d - 1
    c = systematic_cis_code(random.Random(0xD1 + k), k, 3)
    fs = derive_bijections(c, 3)
    d = min_distance(c)
    assert t_ci_strength(fs) == d - 1
    # the same functions without their matrices take the Walsh route
    assert t_ci_strength([BooleanPermutation(k, f.table) for f in fs]) == d - 1


@given(st.integers(0, 2**32))
def test_linear_code_route_matches_walsh(seed):
    # the code route d(I | (M_1^-1)^T | ..) - 1 against the Walsh spectra of
    # the same matrices, stripped from all functions or from one
    rng = random.Random(seed)
    k, t = rng.randrange(1, 11), rng.randrange(1, 5)
    fs = [BooleanPermutation.from_matrix(random_invertible(rng, k)) for _ in range(t)]
    stripped = [BooleanPermutation(k, f.table) for f in fs]
    want = t_ci_strength(fs)
    assert t_ci_strength(stripped) == want
    assert t_ci_strength(stripped[:1] + fs[1:]) == want


DERIVE_PEAK = """
import resource, sys
from tcis.cli import main

rc = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
raise SystemExit(rc)
"""


def test_derive_and_strength_at_large_k(tmp_path):
    # linear bijections build no 2^k table: derive on a [72,24] code runs in
    # a fresh process within a second and 200 MB, and strength is d - 1
    # from the code, also at k = 16 where the Walsh route refuses
    rng = random.Random(0x7224)
    c = scrambled_cis_code(rng, 24, 3)
    path = tmp_path / "c72.code"
    formats.save(path, c)
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", DERIVE_PEAK, "derive", str(path), "3", "--json"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 1.0
    assert int(proc.stderr) < 200 * 1024  # ru_maxrss in KiB
    fs = derive_bijections(c, 3)
    assert json.loads(proc.stdout)["matrices"] == [f.matrix.to_strings() for f in fs]
    assert t_ci_strength(fs) == min_distance(c) - 1
    c = scrambled_cis_code(rng, 16, 3)
    fs = derive_bijections(c, 3)
    assert t_ci_strength(fs) == min_distance(c) - 1
    with pytest.raises(Infeasible, match="Walsh cap"):
        t_ci_strength([BooleanPermutation(16, f.table) for f in fs])


def test_strength_k10_memory():
    # each spectrum is read through its nonzero mask alone, so the peak
    # stays under twice one table's bytes
    rng = random.Random(0x10)
    fs = [random_perm(rng, 10) for _ in range(2)]
    tracemalloc.start()
    try:
        t_ci_strength(fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = 2 * 4**10  # int16
    assert peak <= 2 * table_bytes


def test_t_ci_strength_matches_pair(rng):
    for _ in range(8):
        f1, f2 = random_perm(rng, 3), random_perm(rng, 3)
        assert t_ci_strength([f1, f2]) == cip_strength(f1, f2)


def test_masking_code_brute(rng):
    for _ in range(10):
        k = rng.randrange(1, 4)
        t = rng.randrange(1, 3)
        fs = [random_perm(rng, k) for _ in range(t)]
        mc = build_masking_code(fs)
        assert mc.n == (t + 1) * k
        words = set()
        for idx in range(1 << (t * k)):
            shares = [(idx >> (i * k)) & ((1 << k) - 1) for i in range(t)]
            w = 0
            for s in shares:
                w ^= s
            for i, f in enumerate(fs):
                w |= f(shares[i]) << ((i + 1) * k)
            words.add(w)
        assert set(mc.words) == words


def test_masking_code_of_derived_is_dual(rng):
    for _ in range(10):
        k = rng.randrange(1, 4)
        t = rng.randrange(2, 4)
        c = systematic_cis_code(rng, k, t)
        fs = derive_bijections(c, t)
        mc = build_masking_code(fs)
        assert set(mc.words) == set(dual(c).codewords())


def test_theorem1_verify(rng):
    # k = 5 and 6 answer through the indicator transform of the masking
    # code; at k = 7 its 2^21 entries exceed the dual-distance cap
    for k in [rng.randrange(2, 4) for _ in range(15)] + [5, 5, 6, 6]:
        res = verify_theorem1(random_perm(rng, k), random_perm(rng, k))
        assert res["consistent"]
        assert res["dual_distance"] == res["cip_strength"] + 1
    with pytest.raises(Infeasible, match="indicator length 2097152 exceeds cap 1048576"):
        verify_theorem1(random_perm(rng, 7), random_perm(rng, 7))


@pytest.mark.parametrize("k", [7, 8, 10])
def test_theorem1_refuses_before_building(monkeypatch, k):
    # the length 3k of the pair's masking code is known before its 2^(2k)
    # words are listed, so the refusal builds nothing
    built = []
    monkeypatch.setattr(tcis.boolfun, "build_masking_code", built.append)
    rng = random.Random(0x7E + k)
    with pytest.raises(Infeasible, match=f"indicator length {1 << 3 * k} exceeds cap 1048576"):
        verify_theorem1(random_perm(rng, k), random_perm(rng, k))
    assert built == []


def test_derive_requires_cis():
    bad = LinearCode(BitMatrix.from_strings(["110100", "011000"]))
    with pytest.raises(ValueError):
        derive_bijections(bad, 3)


def test_derive_linear_blocks(rng):
    # derived F_i acts by the inverse transpose of the i-th block
    for _ in range(10):
        k = rng.randrange(1, 4)
        c = systematic_cis_code(rng, k, 3)
        f1, f2 = derive_bijections(c, 3)
        from tcis.gf2 import invert

        l1 = c.gen.take_columns(range(k, 2 * k))
        l2 = c.gen.take_columns(range(2 * k, 3 * k))
        assert f1.matrix == invert(l1.transpose())
        assert f2.matrix == invert(l2.transpose())


def test_leakage_function_algebra():
    w = hamming_weight_leakage(3)
    assert w.values == tuple(Fraction(x.bit_count()) for x in range(8))
    sq = w.power(2)
    assert sq.values == tuple(v * v for v in w.values)
    assert not is_constant(w)
    assert is_constant(LeakageFunction(2, [1, 1, 1, 1]))
    p = point_mass_leakage(2)
    assert p.values == (1, 0, 0, 0)
    ident = BooleanPermutation.identity(3)
    assert w.compose(ident).values == w.values


def test_convolution_definitional(rng):
    for _ in range(6):
        k = rng.randrange(1, 4)
        n = 1 << k
        f = LeakageFunction(k, [Fraction(rng.randrange(-4, 5)) for _ in range(n)])
        g = LeakageFunction(k, [Fraction(rng.randrange(-4, 5)) for _ in range(n)])
        conv = group_convolution(f, g)
        brute = [
            sum(f.values[x] * g.values[z ^ x] for x in range(n)) for z in range(n)
        ]
        assert list(conv.values) == brute


def test_triple_hamming_identity_k4():
    k = 4
    w = hamming_weight_leakage(k)
    triple = group_convolution(group_convolution(w, w), w)
    for z in range(1 << k):
        lhs = triple.values[z] / Fraction(1 << (2 * k))
        rhs = w.values[z] / 4 + Fraction((k - 1) * k * (k + 1), 8)
        assert lhs == rhs


def test_iterated_hamming_identity():
    # closed form for the t-fold self-convolution of the weight function
    for t in (2, 3):
        for k in (3, 4):
            w = hamming_weight_leakage(k)
            acc = w
            for _ in range(t - 1):
                acc = group_convolution(acc, w)
            for z in range(1 << k):
                lhs = acc.values[z] / Fraction(1 << (k * (t - 1)))
                rhs = Fraction(-1, 2) ** (t - 1) * (
                    w.values[z] + Fraction(k, 2) * ((-k) ** (t - 1) - 1)
                )
                assert lhs == rhs


def test_constancy_unprotected_depends_on_z():
    # without bijections the convolved weight leakage is not constant
    k = 4
    w = hamming_weight_leakage(k)
    res = leakage_constancy_check([w, w, w])
    assert not res.constant
    assert res.witness is not None


def test_constancy_matches_direct_expectation(rng):
    # conditional mean of the leakage product over share decompositions
    # is an affine image of the convolution; constancy must coincide
    k = 2
    n = 1 << k
    for _ in range(6):
        fs = [random_perm(rng, k) for _ in range(2)]
        ls = [hamming_weight_leakage(k) for _ in range(3)]
        res = leakage_constancy_check(ls, [BooleanPermutation.identity(k)] + fs)
        means = []
        for z in range(n):
            total = Fraction(0)
            for m1 in range(n):
                for m2 in range(n):
                    s0 = z ^ m1 ^ m2
                    total += (
                        ls[0].values[s0]
                        * ls[1].values[fs[0](m1)]
                        * ls[2].values[fs[1](m2)]
                    )
            means.append(total / (n * n))
        direct_constant = len(set(means)) == 1
        assert res.constant == direct_constant


def test_protected_constancy_order(bk_24_8):
    # the derived k=8 pair keeps every product of point weights <= 7 flat
    f1, f2 = derive_bijections(bk_24_8, 3)
    k = 8
    ident = BooleanPermutation.identity(k)
    w = hamming_weight_leakage(k)
    for p0, p1, p2 in [(1, 1, 1), (2, 2, 3), (1, 1, 5), (3, 3, 1)]:
        res = leakage_constancy_check(
            [w.power(p0), w.power(p1), w.power(p2)], [ident, f1, f2]
        )
        assert res.constant, (p0, p1, p2)
    for p0, p1, p2 in [(1, 2, 5), (2, 2, 4), (1, 3, 4)]:
        res = leakage_constancy_check(
            [w.power(p0), w.power(p1), w.power(p2)], [ident, f1, f2]
        )
        assert not res.constant, (p0, p1, p2)


def test_zero_walsh_row_raises(monkeypatch):
    # a permutation's Walsh rows are never all zero; a spectrum that has one
    # must fail the re-check instead of yielding a strength
    spectrum = tcis.boolfun._spectrum

    def zero_row(f, masks):
        values = spectrum(f, masks)
        values[5] = 0
        return values

    monkeypatch.setattr(tcis.boolfun, "_spectrum", zero_row)
    f = BooleanPermutation(3, range(8))  # no matrix: the Walsh route
    with pytest.raises(CertificateError, match="all-zero row"):
        cip_strength(f, f)


ZERO_ROW_RECHECK = """
import tcis.boolfun
from tcis.boolfun import BooleanPermutation, t_ci_strength
from tcis.gf2 import CertificateError

if __debug__:
    raise SystemExit("assertions are still on")
spectrum = tcis.boolfun._spectrum

def zero_row(f, masks):
    values = spectrum(f, masks)
    values[5] = 0
    return values

tcis.boolfun._spectrum = zero_row
try:
    t_ci_strength([BooleanPermutation(3, range(8))])
except CertificateError:
    print("CertificateError")
"""


def test_zero_walsh_row_recheck_survives_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", ZERO_ROW_RECHECK],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.split() == ["CertificateError"]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# SHA-256 digests recorded from the per-mask int64 butterfly, the separate
# pair-strength body and the list-based exact transform; the tables,
# strengths and convolutions they pin must not move under any rework.
WALSH_DIGESTS = {
    1: "5fc85b22b2d85ea4d5adc1485785ac88b4a47e822707f5364135fc00669c590e",
    2: "ebb5b44864a8e8563071ef697cf3b31b8be4175653e09d0d90196074e72b5c71",
    3: "6eaae3c052520858ce3ad1bd9efe100958b78bc22198f69835315ef40c4f955c",
    4: "0a2bcf51c1f66bf07a627253b45093f6d53074ee54a45f1cb83b595c4efe6995",
    5: "5eb619f5f4b4a300ec055f285a62b3e462485a50a85b5522f200b85fc98ecd75",
    6: "b31419278bf719cdb70832c158abad47527c257222fbb3ccb7ea1ea3ab45fbd6",
    7: "511175150891e6c08c4b19866d1944ff66109a10f7dc7b6f76661001df955f96",
    8: "aa757a8bfade829c9aa5afb5b9101e180a8320fccf499e6507b025b2810ba402",
    9: "bfdd688a7720c942fde168fbe5c16d68ece8f2d85ae20700068e1e3016cec471",
    10: "a4642f64644e66c575e656a2d3fb13342a97552e61fbf318a49ce9b5779fd45a",
}
STRENGTH_DIGEST = "fbe9e2c88cd71e10f3a42635e9567e26e1c23b14f7aade91e8d8fa1248afa089"
CONVOLUTION_DIGEST = "6af0fef3e5558f9c9b0b6b8712f648d71e724df1d708b65c1a33d009ed354033"


@pytest.mark.parametrize("k", range(1, 11))
def test_walsh_digest(k):
    f = random_perm(random.Random(0x3A1 + k), k)
    assert _digest(walsh_table(f).values.tolist()) == WALSH_DIGESTS[k]


def test_strength_digest():
    rng = random.Random(0x57)
    out = []
    for k in range(1, 11):
        f1, f2 = random_perm(rng, k), random_perm(rng, k)
        g1, g2 = derive_bijections(systematic_cis_code(rng, k, 3), 3)
        out.append((k, cip_strength(f1, f2), cip_strength(g1, g2)))
    for t in range(1, 5):
        for k in range(1, 9):
            fs = [random_perm(rng, k) for _ in range(t)]
            gs = derive_bijections(systematic_cis_code(rng, k, t + 1), t + 1)
            out.append((t, k, t_ci_strength(fs), t_ci_strength(gs)))
    assert _digest(out) == STRENGTH_DIGEST


def test_convolution_digest():
    rng = random.Random(0xC0)
    out = []
    for k in range(1, 9):
        n = 1 << k
        f, g = (
            LeakageFunction(
                k, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
            )
            for _ in range(2)
        )
        out.append(group_convolution(f, g).values)
    assert _digest(out) == CONVOLUTION_DIGEST


# SHA-256 digests recorded from the transform of the sign matrix, before
# linear tables were filled from their matrices: tables of from_matrix
# permutations, and strengths of derived tuples with one member stripped
# of its matrix, where the Walsh route reads the linear members' spectra.
LINEAR_WALSH_DIGEST = "bbb5550c2e7e770db2e154f6db489b347a4f2eefc8677281ebbd542760f87b81"
MIXED_STRENGTH_DIGEST = "1285049506a10ebc587e255a725574170beecff64150a0366e9f9f896ed8afe4"


def test_linear_walsh_digest():
    rng = random.Random(0x1EA)
    out = []
    for k in range(1, 11):
        values = walsh_table(BooleanPermutation.from_matrix(random_invertible(rng, k))).values
        out.append((str(values.dtype), values.tolist()))
    assert _digest(out) == LINEAR_WALSH_DIGEST


def test_mixed_strength_digest():
    rng = random.Random(0x313)
    out = []
    for t in range(3, 6):
        for k in range(1, 11):
            fs = derive_bijections(systematic_cis_code(rng, k, t), t)
            i = rng.randrange(t - 1)
            fs[i] = BooleanPermutation(k, fs[i].table)
            out.append((t, k, i, t_ci_strength(fs)))
    assert _digest(out) == MIXED_STRENGTH_DIGEST
