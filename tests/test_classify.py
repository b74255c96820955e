"""Tests for canonical forms, invertible-block classes, and classification."""

import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import xor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tcis.classify
from conftest import hstack, random_code, random_invertible
from tcis.classify import (
    CANONICAL_N_CAP,
    ClassTableRow,
    _basis_arrays,
    _basis_sets,
    _blocks_code,
    _cat_first,
    _cat_images,
    _cat_weights,
    _multiset_keys,
    _rebased_keys,
    canonical_form,
    cat_classes,
    class_table_text,
    classify_tcis,
    enumerate_cat,
    equivalent,
)
from tcis.codes import LinearCode, is_self_orthogonal, min_distance
from tcis.construct import mass_formula_check
from tcis.gf2 import BitMatrix, CertificateError, Infeasible, rank
from tcis.partition import t_cis_partition


def brute_form(c):
    """Minimum over all column orders of the sorted packed-codeword tuple.

    Walks every order depth first; the first column chosen is the most
    significant bit of each packed codeword.
    """
    words = c.codewords()
    cols = [[(w >> j) & 1 for w in words] for j in range(c.n)]
    best = None

    def walk(vals, left):
        nonlocal best
        if not left:
            form = tuple(sorted(vals))
            if best is None or form < best:
                best = form
            return
        for j in left:
            vals_j = [(v << 1) | b for v, b in zip(vals, cols[j])]
            walk(vals_j, [i for i in left if i != j])

    walk([0] * len(words), list(range(c.n)))
    return best


def repack(c, perm):
    """Sorted codewords with source column perm[j] at canonical position j."""
    n = c.n
    return tuple(
        sorted(
            sum(((w >> perm[j]) & 1) << (n - 1 - j) for j in range(n))
            for w in c.codewords()
        )
    )


def from_columns(k, cols):
    """The k-row matrix whose column j is the k-bit vector cols[j]."""
    rows = [sum(((col >> i) & 1) << j for j, col in enumerate(cols)) for i in range(k)]
    return BitMatrix(rows, len(cols))


@st.composite
def codes_up_to_8(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, 3)))
    # columns drawn as k-bit vectors, so zero and repeated columns are common
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n))
    assume(rank(from_columns(k, cols)) == k)
    return LinearCode(from_columns(k, cols))


@st.composite
def codes_up_to_15(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, 15))
    # a spanning pool of distinct columns, zero allowed, topped up with
    # copies from the pool, so zero and repeated columns are common
    pool = draw(
        st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=n, unique=True)
    )
    assume(rank(from_columns(k, pool)) == k)
    size = n - len(pool)
    extra = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return LinearCode(from_columns(k, draw(st.permutations(pool + extra))))


def reference_canonical(c):
    """canonical_form by popcount signatures: (form, perm).

    The straightforward form of the search: every node counts, for each
    distinct free column, its codewords in every refinement block, and
    takes one column per level.
    """
    n = c.n
    words = c.codewords()
    nw = len(words)
    colmask = [sum(((words[w] >> col) & 1) << w for w in range(nw)) for col in range(n)]
    best_sig = [None] * (n + 1)
    best_perm = [None]

    def improve(level, sig):
        best = best_sig[level]
        if best is not None and sig > best:
            return False
        if best is None or sig < best:
            best_sig[level] = sig
            for deeper in range(level + 1, n + 1):
                best_sig[deeper] = None
            best_perm[0] = None
        return True

    def rec(blocks, free, chosen):
        if not free:
            if best_perm[0] is None:
                best_perm[0] = chosen
            return
        fresh = {}
        for col in free:
            fresh.setdefault(colmask[col], col)
        sigs = {cm: tuple((b & cm).bit_count() for b in blocks) for cm in fresh}
        least = min(sigs.values())
        if not improve(len(chosen) + 1, least):
            return
        for cm, col in fresh.items():
            if sigs[cm] == least:
                nb = [part for b in blocks for part in (b & ~cm, b & cm) if part]
                rec(nb, [f for f in free if f != col], chosen + (col,))

    rec([(1 << nw) - 1], list(range(n)), ())
    perm = best_perm[0]
    return repack(c, perm), perm


@cache
def permuted_bytes(k):
    """One bytes.translate table per coordinate permutation of F_2^k."""
    return [
        bytes(sum(((v >> i) & 1) << perm[i] for i in range(k)) for v in range(256))
        for perm in permutations(range(k))
    ]


def reference_key(k, columns):
    """The byte-sorted Cat key: the least sorted column sequence over the
    k! coordinate permutations."""
    ms = bytes(columns)
    return min(bytes(sorted(ms.translate(tab))) for tab in permuted_bytes(k))


def reference_cat(k, t):
    """Cat classes by byte-translated multisets, one multiset at a time.

    The straightforward form of enumerate_cat: same walk order, same
    first-seen representatives, same key order.
    """
    bases = [
        b for b in combinations(range(1, 1 << k), k) if rank(BitMatrix(list(b), k)) == k
    ]
    seen = {}
    for combo in combinations_with_replacement(range(len(bases)), t - 1):
        key = reference_key(k, [v for bi in combo for v in bases[bi]])
        seen.setdefault(key, tuple(bases[bi] for bi in combo))
    reps = [seen[key] for key in sorted(seen)]
    return len(reps), reps


def classify_by_blocks(k, t):
    """Class reps in form order, grown from the identity one invertible
    block at a time and deduplicated by canonical form after each block."""
    bases = _basis_sets(k)
    ident = LinearCode(BitMatrix.identity(k))
    stage = {canonical_form(ident).form: ident}
    for _ in range(t - 1):
        nxt = {}
        for code in stage.values():
            for basis in bases:
                cand = LinearCode(hstack(code.gen, BitMatrix(basis, k).transpose()))
                nxt.setdefault(canonical_form(cand).form, cand)
        stage = nxt
    return [stage[f] for f in sorted(stage)]


def shuffled(rng, c):
    perm = list(range(c.n))
    rng.shuffle(perm)
    return LinearCode(c.gen.take_columns(perm))


def test_canonical_form_matches_brute(rng):
    for _ in range(25):
        k = rng.randint(1, 3)
        n = rng.randint(max(4, k), 7)
        c = random_code(rng, n, k)
        assert canonical_form(c).form == brute_form(c)


def test_canonical_witness_is_consistent(rng):
    for _ in range(10):
        c = random_code(rng, rng.randint(4, 9), rng.randint(2, 4))
        cf = canonical_form(c)
        assert (cf.n, cf.k) == (c.n, c.k)
        assert sorted(cf.perm) == list(range(c.n))
        assert repack(c, cf.perm) == cf.form
        assert cf.form == tuple(sorted(cf.form))


@given(codes_up_to_8())
def test_canonical_form_matches_brute_property(c):
    cf = canonical_form(c)
    assert cf.form == brute_form(c)
    assert sorted(cf.perm) == list(range(c.n))
    assert repack(c, cf.perm) == cf.form


def brute_aut_order(c):
    """Column permutations that map every generator row into the code."""
    words = set(c.codewords())
    return sum(
        all(row in words for row in c.gen.take_columns(perm).rows)
        for perm in permutations(range(c.n))
    )


@given(codes_up_to_8().filter(lambda c: c.n <= 7))
def test_aut_order_matches_brute_property(c):
    assert canonical_form(c).aut_order == brute_aut_order(c)


@settings(max_examples=150)
@given(codes_up_to_15())
def test_canonical_form_matches_reference(c):
    cf = canonical_form(c)
    assert (cf.form, cf.perm) == reference_canonical(c)


def test_canonical_form_is_permutation_invariant(rng):
    for _ in range(10):
        k = rng.randint(2, 4)
        n = rng.randint(k + 1, 10)
        c = random_code(rng, n, k)
        base = canonical_form(c).form
        # column shuffle
        assert canonical_form(shuffled(rng, c)).form == base
        # change of generator rows (same row space)
        u = random_invertible(rng, k)
        mixed = BitMatrix(
            [
                reduce(xor, (c.gen.row(j) for j in range(k) if (u.row(i) >> j) & 1), 0)
                for i in range(k)
            ],
            n,
        )
        assert canonical_form(LinearCode(mixed)).form == base


def test_canonical_caps():
    wide = LinearCode(BitMatrix([(1 << 16) - 1], 16))
    with pytest.raises(Infeasible):
        canonical_form(wide)
    tall = LinearCode(BitMatrix.identity(7))
    with pytest.raises(Infeasible):
        canonical_form(tall)
    assert CANONICAL_N_CAP == 15


def test_canonical_digits_hold_counts_past_15(monkeypatch, rng):
    # score digits are n.bit_length() bits wide.  Below n = 32 at most one
    # column value has 16 copies, and it is always the first basis vector,
    # whose count only ever leads a score.  With 16 to 19 copies of each
    # nonzero vector of F_2^2 they also fill lower digits, where 4-bit
    # digits would carry into the next (18 of these 64 codes would differ)
    monkeypatch.setattr(tcis.classify, "CANONICAL_N_CAP", 63)
    for counts in product(range(16, 20), repeat=3):
        cols = [v for v, m in zip((1, 2, 3), counts) for _ in range(m)]
        rng.shuffle(cols)
        c = LinearCode(from_columns(2, cols))
        cf = canonical_form(c)
        assert (cf.form, cf.perm) == reference_canonical(c)


def test_equivalent_shape_mismatch():
    a = LinearCode(BitMatrix.identity(2))
    b = LinearCode(BitMatrix.identity(3))
    with pytest.raises(ValueError, match="shape mismatch"):
        equivalent(a, b)


def test_equivalent_separates_length_6_classes(rng):
    reps, _ = classify_tcis(2)
    assert len(reps) == 3
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            assert equivalent(a, b) == (i == j)
        assert equivalent(a, shuffled(rng, a))


def test_cat_class_counts():
    assert enumerate_cat(1)[0] == 1
    assert enumerate_cat(2)[0] == 4
    assert enumerate_cat(3)[0] == 58
    assert enumerate_cat(1, t=2)[0] == 1
    assert enumerate_cat(2, t=2)[0] == 2


def test_cat_reps_are_independent_blocks():
    count, reps = enumerate_cat(3)
    assert count == len(reps) == 58
    for rep in reps:
        assert len(rep) == 2  # t - 1 blocks
        for basis in rep:
            assert len(basis) == 3
            assert rank(BitMatrix(list(basis), 3)) == 3


def test_cat_guards():
    assert enumerate_cat(4)[0] == 4822
    assert enumerate_cat(5, 2)[0] == 885
    # the multiset count C(b+t-2, t-1), b = |GL(k,2)|/k!, is the one limit,
    # worked out before any table is built: 3,471,819,456 at (5, 3),
    # 27,998,208 at (6, 2), whose 67 M combinations of columns stay unlisted
    for k, t, count in [(5, 3, 3471819456), (6, 2, 27998208)]:
        start = time.perf_counter()
        with pytest.raises(Infeasible, match=f"{count} multisets"):
            enumerate_cat(k, t)
        assert time.perf_counter() - start < 1.0
    # it caps t too: 1,203,322,288 at (3, 12), 99,137,080 at (4, 4)
    with pytest.raises(Infeasible, match="1203322288 multisets"):
        enumerate_cat(3, 12)
    with pytest.raises(Infeasible, match="99137080 multisets"):
        enumerate_cat(4, 4)
    with pytest.raises(ValueError):
        enumerate_cat(2, t=1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            enumerate_cat(k)


def test_cat_tables_cached_read_only():
    bases, images = _cat_images(3)
    assert _cat_images(3)[1] is images
    assert not images.flags.writeable
    assert list(bases) == _basis_sets(3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_basis_inverse_tables(k):
    bases, _ = _cat_images(k)
    columns, inverse = _basis_arrays(k)
    assert columns.tolist() == [list(b) for b in bases]
    assert not columns.flags.writeable and not inverse.flags.writeable
    for basis, inv in zip(bases, inverse.tolist()):
        # inv[x] is the coefficient vector y with B y = x
        assert [reduce(xor, (c for i, c in enumerate(basis) if y >> i & 1), 0)
                for y in inv] == list(range(1 << k))


def test_cat_count_k4():
    assert enumerate_cat(4)[0] == 4822


CAT_SIZES = [(k, t) for k in (1, 2, 3) for t in (2, 3, 4)] + [
    (4, 2),
    pytest.param(5, 2, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("k,t", CAT_SIZES)
def test_cat_matches_reference(k, t):
    assert enumerate_cat(k, t) == reference_cat(k, t)


@pytest.mark.parametrize("k,t", [(3, 4), (3, 5), (2, 6)])
def test_cat_wide_keys(k, t):
    # k(t-1) > 8 columns, counts of up to t-1 in 2- or 3-bit digits of the
    # packed key, against the oracle's sorted column sequences
    assert k * (t - 1) > 8
    assert enumerate_cat(k, t) == reference_cat(k, t)


@pytest.mark.slow
def test_cat_matches_reference_k4():
    assert enumerate_cat(4) == reference_cat(4, 3)


@given(st.data())
def test_packed_keys_match_byte_keys(data):
    # the packed key of multisets of r k-sets of vectors gives the byte
    # oracle's equality classes, in reverse order
    k, r = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    digits = r.bit_length()
    if digits * ((1 << k) - 1) > 64:
        with pytest.raises(Infeasible, match="> 64 bits"):
            _cat_weights(k, digits)
        return
    kset = st.lists(st.integers(1, (1 << k) - 1), min_size=k, max_size=k, unique=True)
    multiset = st.lists(kset, min_size=r, max_size=r).map(lambda s: sum(s, []))
    sets = data.draw(st.lists(multiset, min_size=1, max_size=6))
    # permuted copies make equal keys, r copies of one set the largest digit
    perm = data.draw(st.permutations(range(k)))
    sets += [[sum((v >> i & 1) << perm[i] for i in range(k)) for v in s] for s in sets]
    sets.append(sets[0][:k] * r)
    packed = _multiset_keys(_cat_weights(k, digits), np.array(sets, dtype=np.uint8))
    packed = packed.tolist()
    ref = [reference_key(k, s) for s in sets]
    for a in range(len(sets)):
        for b in range(len(sets)):
            assert (packed[a] == packed[b]) == (ref[a] == ref[b])
            assert (packed[a] > packed[b]) == (ref[a] < ref[b])


def test_cat_keys_refuse_wide_counts():
    # one basis of F_2^1 t-1 times: a count of t-1 needs 65 bits
    with pytest.raises(Infeasible, match="65 > 64 bits"):
        enumerate_cat(1, 2**64 + 1)


def traced_peak(fn):
    fn()  # fill the caches first
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cat_first_k4_memory():
    # per-batch scratch and the 4,822 distinct keys, never a key for each of
    # the 353,220 multisets (2.8 MB alone)
    assert traced_peak(lambda: _cat_first(4, 3)) <= 1_500_000


@pytest.mark.slow
def test_cat_first_k5_memory():
    # the 83,328 bases keyed in batches
    assert traced_peak(lambda: _cat_first(5, 2)) <= 5_600_000


def cat_classes_per_cat_class(k, t):
    """cat_classes with one canonical form per Cat class: every Cat
    representative appended to the identity, deduplicated by form, the
    first in key order representing its class."""
    _, cat_reps = enumerate_cat(k, t)
    forms = {}
    for blocks in cat_reps:
        code = _blocks_code(k, blocks)
        cf = canonical_form(code)
        forms.setdefault(cf.form, (cf, code))
    return [forms[f] for f in sorted(forms)]


ORBIT_SIZES = [(k, t) for k in (1, 2, 3) for t in (2, 3, 4)] + [
    (4, 2),
    (2, 5),
    (2, 6),
    (4, 3),
    (5, 2),
]


@pytest.mark.parametrize("k,t", ORBIT_SIZES)
def test_cat_classes_match_per_cat_class(k, t):
    # same forms, witnesses, automorphism orders and representatives
    assert cat_classes(k, t) == cat_classes_per_cat_class(k, t)


@cache
def cat_first(k, t):
    return _cat_first(k, t)


@given(st.integers(0, 2**32 - 1))
def test_rebasings_are_equivalent(seed):
    # every Cat class that the orbit merge joins to a representative has
    # the representative's canonical form
    rng = random.Random(seed)
    k, t = rng.choice([(k, t) for k in (1, 2, 3) for t in (2, 3, 4)] + [(4, 2), (4, 3)])
    keys, combos = cat_first(k, t)
    first = dict(zip(keys.tolist(), combos.tolist()))
    bases, _ = _cat_images(k)
    picked = rng.sample(combos.tolist(), min(3, len(combos)))
    rebased = _rebased_keys(k, np.array(picked, dtype=np.intp))
    assert rebased.shape == (len(picked), t - 1)
    for i, row in enumerate(rebased.tolist()):
        rep = _blocks_code(k, [bases[bi] for bi in picked[i]])
        for key in row:
            other = _blocks_code(k, [bases[bi] for bi in first[key]])
            assert canonical_form(other).form == canonical_form(rep).form


@pytest.mark.parametrize("k,t,calls", [(3, 3, 19), (4, 2, 35)])
def test_cat_classes_canonicalizes_once_per_orbit(monkeypatch, k, t, calls):
    seen = []

    def counting(code):
        seen.append(code)
        return canonical_form(code)

    monkeypatch.setattr(tcis.classify, "canonical_form", counting)
    cat_classes(k, t)
    assert len(seen) == calls


def test_classify_small_lengths():
    reps1, row1 = classify_tcis(1)
    assert len(reps1) == 1 and row1.length == 3
    assert row1.by_d == ((3, (0, 1)),)

    reps2, row2 = classify_tcis(2)
    assert len(reps2) == 3 and row2.length == 6
    assert row2.by_d == ((3, (0, 2)), (4, (1, 0)))

    reps3, row3 = classify_tcis(3)
    assert len(reps3) == 19 and row3.length == 9
    assert row3.by_d == ((3, (0, 11)), (4, (1, 7)))
    assert row3.total == 19


def test_classify_length_12(classification):
    reps, row = classification(4, 3)
    assert len(reps) == 361
    assert row.by_d == ((3, (0, 170)), (4, (6, 172)), (5, (0, 12)), (6, (0, 1)))


def class_digest(classification, k, t):
    reps, row = classification(k, t)
    text = repr(([c.gen.rows for c in reps], row.length, row.by_d))
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the class representatives' generator rows and the summary
# row, recorded from the byte-translate Cat enumeration and the canonical
# search before its leaf shortcut; the class order and the representative
# of each class are part of what is pinned.
CLASS_DIGESTS = {
    (1, 3): "9edae820782e6ef58495762da8fc2d576f34fa4457737fa970f3b22c837efa4c",
    (2, 3): "90a7c27b809a469fa76a423f9f2b56245834e1cef6cb138a2e42f1990cc7822d",
    (3, 3): "60ccc27b0b4807bbc6e1451915d921781b1ddaf27934bc4156cf23a955a7d5fd",
    (1, 2): "26764f3e4a076990b8ee725c3a6a3db4f7e9ed2d9ce6d4ef6427cb2e942913bb",
    (2, 2): "e97f7c3f53c937f72c5dc7462bd74bdbc1f7f91bc007171a980c0fe055ce2ba1",
    (3, 2): "d3004c8aed2a1523630f322e17a214b1358624c946c6351b189128d2335aa159",
    (4, 2): "aa35d9f40b31d5c852bccdfb988eb2292d06627827439e00701bc67a74f767c2",
}


@pytest.mark.parametrize("k,t", sorted(CLASS_DIGESTS))
def test_classify_digest(classification, k, t):
    assert class_digest(classification, k, t) == CLASS_DIGESTS[k, t]


def test_classify_digest_length_12(classification):
    assert class_digest(classification, 4, 3) == (
        "1fe0202c78a8a522f9908b03cb4229bc888b29cb8df8bf945b2368f5f993ed7d"
    )


# SHA-256 of the k = 5 reps and summary rows, recorded with the
# per-basis canonical stage 1 of the two-stage growth (t = 3) and with
# block growth deduplicated by canonical form after each block (t = 2)
K5_DIGESTS = {
    (5, 2): "66454a36851dcc9e7f40c6a3c3bcdf6fe7134c95bc910e4e42adfcdd48ad7702",
    (5, 3): "4dd78fab45352a9c64da97866ccfbac66c36925da6321a07829d6308b588eca1",
}


@pytest.mark.parametrize("k,t", [(5, 2), pytest.param(5, 3, marks=pytest.mark.slow)])
def test_classify_digest_k5(classification, k, t):
    assert class_digest(classification, k, t) == K5_DIGESTS[k, t]


def pin_code(rng):
    """A random [n, k] code, n <= 15 and k <= 6, with zero and repeated
    columns common."""
    k = rng.randint(1, 6)
    n = rng.randint(k, 15)
    while True:
        cols = []
        for _ in range(n):
            roll = rng.random()
            if roll < 0.15:
                cols.append(0)
            elif roll < 0.4 and cols:
                cols.append(rng.choice(cols))
            else:
                cols.append(rng.randrange(1 << k))
        if rank(from_columns(k, cols)) == k:
            return LinearCode(from_columns(k, cols))


def form_digest(codes):
    text = repr([(cf.form, cf.perm) for cf in map(canonical_form, codes)])
    return hashlib.sha256(text.encode()).hexdigest()


def test_canonical_form_pinned():
    # SHA-256 of (form, perm) over 300 seeded random codes and over the 58
    # k = 3 Cat representatives, recorded with the popcount-signature search
    rng = random.Random(20261018)
    assert form_digest([pin_code(rng) for _ in range(300)]) == (
        "bde827e39aca3631adc101091900cfff97105fba17530ebbd167edca340fc678"
    )
    _, reps = enumerate_cat(3)
    assert form_digest([_blocks_code(3, blocks) for blocks in reps]) == (
        "44d2e29e9d02b4a735404018a13c99c92cd0949c3c5e0be71bdda273b594f048"
    )


def test_aut_order_pinned():
    # SHA-256 of aut_order over the codes of test_canonical_form_pinned,
    # recorded with the span-dict search
    rng = random.Random(20261018)
    codes = [pin_code(rng) for _ in range(300)]
    _, reps = enumerate_cat(3)
    codes += [_blocks_code(3, blocks) for blocks in reps]
    text = repr([canonical_form(c).aut_order for c in codes])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "243a1ee4e6e58a107bf3224834fb02f83bbeb521a62f293e4f0befbab22be7bd"
    )


def test_basis_sets_pinned():
    # SHA-256 of the k=4 bases in order, recorded before the independence
    # test was folded into gf2.Echelon
    text = repr(_basis_sets(4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cf27f7f54dd6caa384d47f7adef465bf32b43df958dc1e523175c6b299867ffe"
    )


def with_singular_block(cat_classes):
    """cat_classes with the last column of class 1 copied from the one
    before it: that class's last block is singular, while its identity block
    keeps the code's rank."""

    def patched(k, t):
        classes = cat_classes(k, t)
        cf, code = classes[1]
        cols = code.gen.columns()
        cols[-1] = cols[-2]
        classes[1] = (cf, LinearCode(from_columns(k, cols)))
        return classes

    return patched


SINGULAR_BLOCK = """
import tcis.classify
from tcis.gf2 import CertificateError
from test_classify import with_singular_block

if __debug__:
    raise SystemExit("assertions are still on")
tcis.classify.cat_classes = with_singular_block(tcis.classify.cat_classes)
try:
    tcis.classify.classify_tcis(2)
except CertificateError as err:
    print(err)
"""


def test_classify_certificate_failure_raises(monkeypatch):
    # a representative whose own blocks are no partition is refused, also
    # when python -O strips assert statements
    monkeypatch.setattr(
        tcis.classify, "cat_classes", with_singular_block(tcis.classify.cat_classes)
    )
    with pytest.raises(CertificateError, match=r"class 1 of \[6,2\] has no 3-CIS partition"):
        classify_tcis(2)
    tests = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-O", "-c", SINGULAR_BLOCK],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])},
    ).stdout
    assert out.startswith("class 1 of [6,2] has no 3-CIS partition")


def test_methods_agree_small():
    # block growth by canonical forms against the Cat path: same classes,
    # same representatives
    for k, t in [(k, t) for k in (1, 2, 3) for t in (2, 3)] + [(4, 2)]:
        reps, _ = classify_tcis(k, t)
        assert [c.gen.rows for c in classify_by_blocks(k, t)] == [
            c.gen.rows for c in reps
        ], (k, t)


def test_classify_reps_are_valid(classification, rng):
    # classify_tcis re-checks each representative's own blocks; the matroid
    # walk confirms every one independently
    for k, t in [(k, t) for k in (1, 2, 3) for t in (2, 3)] + [(4, 2)]:
        reps, _ = classification(k, t)
        for c in reps:
            assert (c.n, c.k) == (t * k, k)
            assert t_cis_partition(c, t).is_partition
            assert min_distance(c) >= t
    # class invariants survive a coordinate shuffle
    reps, _ = classification(3, 3)
    for c in rng.sample(reps, 4):
        s = shuffled(rng, c)
        assert min_distance(s) == min_distance(c)
        assert is_self_orthogonal(s) == is_self_orthogonal(c)
        assert equivalent(s, c)


def test_classify_table_not_larger_than_cat():
    for k in (1, 2, 3):
        cat_count, _ = enumerate_cat(k)
        reps, _ = classify_tcis(k)
        assert len(reps) <= cat_count


def test_classify_two_factor():
    reps, row = classify_tcis(2, t=2)
    assert row.length == 4
    assert row.total == len(reps)
    for c in reps:
        assert (c.n, c.k) == (4, 2)
        assert t_cis_partition(c, 2).is_partition
        assert min_distance(c) >= 2


# classify_tcis past t = 3: classes, |GL(k,2)|^(t-1), and by_d, (d, (so, other))
PAST_T3_ROWS = {
    (2, 4): (4, 216, ((4, (2, 1)), (5, (0, 1)))),
    (2, 5): (5, 1296, ((5, (0, 3)), (6, (1, 1)))),
    (2, 6): (7, 7776, ((6, (2, 2)), (7, (0, 2)), (8, (1, 0)))),
    (2, 7): (8, 46656, ((7, (0, 4)), (8, (2, 1)), (9, (0, 1)))),
    (3, 4): (57, 4741632, ((4, (5, 27)), (5, (0, 19)), (6, (1, 5)))),
    (3, 5): (136, 796594176, ((5, (0, 55)), (6, (2, 59)), (7, (0, 17)), (8, (1, 2)))),
}


@pytest.mark.parametrize("k,t", sorted(PAST_T3_ROWS))
def test_classify_past_t3(k, t):
    # the mass formula certifies the class count; the matroid walk confirms
    # every representative independently
    classes, power, by_d = PAST_T3_ROWS[k, t]
    reps, row = classify_tcis(k, t)
    assert (row.length, row.by_d, len(reps)) == (t * k, by_d, classes)
    rep = mass_formula_check(k, t)
    assert rep.consistent and rep.group_power == power
    assert len(rep.class_sizes) == classes
    for c in reps:
        assert t_cis_partition(c, t).is_partition


def test_classify_guards():
    # the Cat route's limits: the multiset count at (5, 3) without the
    # opt-in, the length cap at (6, 3) and (3, 7)
    for k, t, message in [
        (5, 3, "3471819456 multisets"),
        (6, 3, "length 18 exceeds"),
        (3, 7, "length 21 exceeds"),
    ]:
        start = time.perf_counter()
        with pytest.raises(Infeasible, match=message):
            classify_tcis(k, t)
        assert time.perf_counter() - start < 1.0
    assert classify_tcis(2, t=4)[1].total == 4
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            classify_tcis(k)
    with pytest.raises(ValueError, match="t must be at least 2"):
        classify_tcis(2, t=1)


def test_class_table_row_cells():
    row = ClassTableRow(6, ((3, (0, 2)), (4, (1, 0))))
    assert row.total == 3
    assert row.cell(3) == "2 (0+2)"
    assert row.cell(4) == "1 (1+0)"
    assert row.cell(5) == "0"


def test_class_table_text_layout():
    rows = [
        ClassTableRow(3, ((3, (0, 1)),)),
        ClassTableRow(6, ((3, (0, 2)), (4, (1, 0)))),
    ]
    text = class_table_text(rows)
    lines = text.split("\n")
    assert len(lines) == 3
    assert lines[0].split() == ["n", "d=3", "d=4", "total"]
    assert lines[1].split() == ["3", "1", "(0+1)", "0", "1"]
    assert lines[2].split() == ["6", "2", "(0+2)", "1", "(1+0)", "3"]
