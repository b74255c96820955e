"""Seeded inputs with known answers, and checks that do not use tcis.

Codes are generated so that their answers are known by construction:
systematic codes with invertible blocks are t-CIS, codes with t*r+1
columns planted in an r-dimensional subspace are not, and column-permuted,
basis-changed copies are equivalent to their source.  Every certificate
and count is re-checked here with this module's own GF(2) and Z4
arithmetic, so a defect in the library's kernels cannot hide itself.

Conventions follow tcis.gf2: a matrix is a list of row ints, bit j of a
row holding column j.
"""
from __future__ import annotations

import math
import random

import numpy as np


class CheckFailed(AssertionError):
    """An answer disagreed with the ground truth."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---- GF(2) arithmetic -----------------------------------------------------

def rank(vectors) -> int:
    """Rank of a set of bit vectors (ints)."""
    basis: list[int] = []  # distinct leading bits, kept in descending order
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def column(rows, j: int) -> int:
    return sum(((r >> j) & 1) << i for i, r in enumerate(rows))


def columns_rank(rows, idx) -> int:
    return rank(column(rows, j) for j in idx)


def vec_mat(v: int, rows) -> int:
    """Row vector v times the matrix given by rows."""
    acc = 0
    for i, r in enumerate(rows):
        if (v >> i) & 1:
            acc ^= r
    return acc


def mat_mul(a, b):
    return [vec_mat(r, b) for r in a]


def transpose(rows, ncols: int):
    return [column(rows, j) for j in range(ncols)]


def poly_gcd(a: int, b: int) -> int:
    """Gcd of two GF(2) polynomials packed as ints (bit j = x^j)."""
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def random_invertible(rng: random.Random, k: int) -> list[int]:
    while True:
        m = [rng.getrandbits(k) for _ in range(k)]
        if rank(m) == k:
            return m


def random_full_rank(rng: random.Random, n: int, k: int) -> list[int]:
    while True:
        m = [rng.getrandbits(n) for _ in range(k)]
        if rank(m) == k:
            return m


def hstack(blocks, width: int) -> list[int]:
    """Rows of [B_0 | B_1 | ...] for blocks of equal height and width."""
    return [
        sum(blk[i] << (b * width) for b, blk in enumerate(blocks))
        for i in range(len(blocks[0]))
    ]


def systematic_cis(rng: random.Random, k: int, t: int) -> list[int]:
    """(I | L_1 | .. | L_{t-1}) with invertible L_i: a known t-CIS code."""
    ident = [1 << i for i in range(k)]
    return hstack([ident] + [random_invertible(rng, k) for _ in range(t - 1)], k)


def block_sets(k: int, t: int):
    return [tuple(range(b * k, (b + 1) * k)) for b in range(t)]


def permute_columns(rows, perm):
    """Column i of the result is column perm[i] of the input."""
    return [
        sum(((r >> src) & 1) << i for i, src in enumerate(perm)) for r in rows
    ]


def scramble(rng: random.Random, rows, n: int):
    """A random column permutation and basis change of the code."""
    perm = list(range(n))
    rng.shuffle(perm)
    basis = random_invertible(rng, len(rows))
    return permute_columns(mat_mul(basis, rows), perm)


def planted_violation(rng: random.Random, k: int, t: int, r: int):
    """A rank-k [tk, k] code with t*r+1 columns inside an r-dim subspace.

    Any t information sets hold at most t*r columns of that subspace, so
    the code is not t-CIS.
    """
    n = t * k
    planted = t * r + 1
    sub = random_full_rank(rng, k, r)  # basis of the subspace, as k-bit ints
    while True:
        cols = [
            vec_mat(rng.randrange(1, 1 << r), sub) for _ in range(planted)
        ] + [rng.getrandbits(k) for _ in range(n - planted)]
        if rank(cols) == k:
            break
    rng.shuffle(cols)
    return transpose(cols, k)


def self_orthogonal(rng: random.Random, k: int, half: int):
    """Rows (a | a): every pair of rows meets in an even number of ones."""
    return [a | (a << half) for a in random_full_rank(rng, half, k)]


def check_partition(rows, n: int, k: int, t: int, sets) -> None:
    expect(len(sets) == t, f"partition has {len(sets)} sets, expected {t}")
    seen: set[int] = set()
    for s in sets:
        expect(len(s) == k, f"set of size {len(s)}, expected {k}")
        expect(not seen & set(s), "partition sets overlap")
        seen |= set(s)
        expect(columns_rank(rows, s) == k, "partition set is not an information set")
    expect(seen == set(range(n)), "partition does not cover every column")


def check_violation(rows, n: int, t: int, cols, r: int) -> None:
    expect(len(set(cols)) == len(cols), "violation set repeats a column")
    expect(all(0 <= j < n for j in cols), "violation column out of range")
    expect(columns_rank(rows, cols) == r, "violation rank is wrong")
    expect(len(cols) > t * r, "violation set is not larger than t * rank")


def check_certificate(result, rows, n: int, k: int, t: int, known: bool | None) -> None:
    """Re-check a Partition or Violation; known is the truth when known."""
    if known is not None:
        expect(result.is_partition == known, f"is_partition should be {known}")
    if result.is_partition:
        check_partition(rows, n, k, t, result.sets)
    else:
        expect(result.t == t, "violation carries the wrong t")
        check_violation(rows, n, t, result.columns, result.rank)


# ---- weights and distances ------------------------------------------------

def weight_distribution(rows, n: int) -> list[int]:
    k = len(rows)
    if n <= 63:
        words = np.zeros(1 << k, dtype=np.uint64)
        for i, r in enumerate(rows):
            words[1 << i : 2 << i] = words[: 1 << i] ^ np.uint64(r)
        return np.bincount(np.bitwise_count(words), minlength=n + 1).tolist()
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    counts = [0] * (n + 1)
    for w in words:
        counts[w.bit_count()] += 1
    return counts


def min_distance(rows, n: int) -> int:
    dist = weight_distribution(rows, n)
    return next(i for i in range(1, n + 1) if dist[i])


def dual_distance(rows, n: int) -> int | float:
    """Least i > 0 with a nonzero MacWilliams coefficient of the dual."""
    dist = weight_distribution(rows, n)
    support = [j for j in range(n + 1) if dist[j]]
    for i in range(1, n + 1):
        b = sum(
            dist[j]
            * sum(
                (-1) ** l * math.comb(j, l) * math.comb(n - j, i - l)
                for l in range(min(i, j) + 1)
            )
            for j in support
        )
        if b:
            return i
    return math.inf


def is_self_orthogonal(rows) -> bool:
    return all(
        (a & b).bit_count() % 2 == 0 for i, a in enumerate(rows) for b in rows[i:]
    )


# ---- masking --------------------------------------------------------------

def check_linear_bijection(f, k: int) -> None:
    expect(f.k == k, "bijection acts on the wrong size")
    expect(sorted(f.table) == list(range(1 << k)), "table is not a bijection")
    m = list(f.matrix.rows)
    expect(rank(m) == k, "bijection matrix is singular")
    expect(all(f.table[x] == vec_mat(x, m) for x in range(1 << k)),
           "table disagrees with its matrix")


def check_walsh_linear(values: np.ndarray, f, k: int) -> None:
    """A linear F has W(a, b) = 2^k exactly when a = M b^T, else 0."""
    n = 1 << k
    mt = transpose(list(f.matrix.rows), k)  # rows of M^T
    a_of_b = np.array([vec_mat(b, mt) for b in range(n)], dtype=np.int64)
    expect(values.shape == (n, n), "Walsh table has the wrong shape")
    expect(int(np.count_nonzero(values)) == n, "Walsh support is not a graph")
    expect(bool((values[a_of_b, np.arange(n)] == n).all()),
           "Walsh values off the linear support")


def xor_convolution(fs, gs):
    n = len(fs)
    return [sum(fs[x] * gs[z ^ x] for x in range(n)) for z in range(n)]


def hw_leakage_convolution(tables) -> list[int]:
    """Convolution of Hamming-weight leakages composed with each table."""
    ls = [[y.bit_count() for y in table] for table in tables]
    conv = ls[0]
    for nxt in ls[1:]:
        conv = xor_convolution(conv, nxt)
    return conv


# ---- Z4 -------------------------------------------------------------------

LEE = np.array([0, 1, 2, 1], dtype=np.int64)


def z4_codewords(gen_rows) -> np.ndarray:
    g = np.array(gen_rows, dtype=np.int64)
    k = g.shape[0]
    msgs = (np.arange(4**k)[:, None] // (4 ** np.arange(k))[None, :]) % 4
    return (msgs @ g) % 4


def z4_lee_distance(gen_rows) -> int:
    lee = LEE[z4_codewords(gen_rows)].sum(axis=1)
    return int(lee[lee > 0].min())


def z4_gray_words(gen_rows) -> list[int]:
    """Sorted Gray images; symbol v maps to bits (v >> 1, (v & 1) ^ (v >> 1))."""
    words = z4_codewords(gen_rows)
    hi = words >> 1
    lo = (words & 1) ^ hi
    n = words.shape[1]
    out = set()
    for a, b in zip(hi.tolist(), lo.tolist()):
        out.add(sum((a[j] << (2 * j)) | (b[j] << (2 * j + 1)) for j in range(n)))
    return sorted(out)


def ungray(w: int, n: int) -> list[int]:
    out = []
    for j in range(n):
        b0, b1 = (w >> (2 * j)) & 1, (w >> (2 * j + 1)) & 1
        out.append(2 * b0 + (b0 ^ b1))
    return out


def check_z4_bijection(f, gen_rows, k: int, block: int) -> None:
    """F(x) = gray(ungray(x) (M^T)^-1), i.e. ungray(F(x)) M^T = ungray(x)."""
    expect(f.k == 2 * k, "Z4 bijection acts on the wrong size")
    expect(sorted(f.table) == list(range(1 << (2 * k))), "table is not a bijection")
    m = np.array([r[block * k : (block + 1) * k] for r in gen_rows], dtype=np.int64)
    xs = np.array([ungray(x, k) for x in range(1 << (2 * k))], dtype=np.int64)
    ys = np.array([ungray(y, k) for y in f.table], dtype=np.int64)
    expect(bool(((ys @ m.T) % 4 == xs).all()), "Z4 bijection inverts the wrong block")
