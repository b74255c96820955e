"""Binary code containers and distance machinery.

Codewords are packed ints under the bit convention of :mod:`tcis.gf2`.
Linear codes are held by a full-rank generator matrix; unrestricted codes
by an explicit sorted word tuple.  The dual distance is the least weight
i > 0 of a u with sum_{x in C} (-1)^(u.x) != 0, where the MacWilliams
transform B'_i of the distance distribution first becomes nonzero.

``min_distance`` picks its method from the code.  Below ``BZ_MIN_K``, the
measured crossover, or when the greedy split of the columns below yields a
single set, a Gray walk lists all 2^k codewords.  Otherwise it is the
Brouwer-Zimmermann search (A. E. Brouwer, "Bounds on the size of linear
codes", Handbook of Coding Theory, 1998; M. Grassl, "Searching for linear
codes with large minimum distance", 2006).  The columns split greedily into
disjoint sets I_1, I_2, ... of ranks r_j, each extended to an information
set with its own systematic generator.  After every message of weight <= w
has been encoded in every form, a codeword not yet seen has weight at least
w + 1 - (k - r_j) on each I_j, so the search stops once the lightest word
found weighs at most sum_j max(0, w + 1 - (k - r_j)).  The lightest word is
re-checked as a codeword of that weight before d is returned.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .gf2 import (BitMatrix, CertificateError, Echelon, Infeasible, invert, parity_dot,
                  rank)

__all__ = [
    "LinearCode",
    "ZeroCode",
    "UnrestrictedCode",
    "systematic_form",
    "min_distance",
    "weight_distribution",
    "dual_distance",
    "dual",
    "is_self_orthogonal",
    "star_fill_zero_columns",
    "MIN_DISTANCE_CAP",
    "DUAL_DISTANCE_CAP",
]

MIN_DISTANCE_CAP = 1 << 28
# below this k the Gray walk beats Brouwer-Zimmermann on random [3k, k] codes
BZ_MIN_K = 13
DUAL_DISTANCE_CAP = 1 << 20

# _fwht splits arrays above this many bytes into row chunks and column
# slabs of at most this size, so that each piece stays in L2 cache.
_FWHT_CHUNK = 1 << 20


class LinearCode:
    """A binary [n, k] code presented by a full-rank generator matrix."""

    __slots__ = ("gen",)

    def __init__(self, gen: BitMatrix):
        if rank(gen) != gen.nrows:
            raise ValueError("generator rows are linearly dependent")
        self.gen = gen

    @property
    def n(self) -> int:
        return self.gen.ncols

    @property
    def k(self) -> int:
        return self.gen.nrows

    def codewords(self) -> list[int]:
        """All 2^k codewords, indexed by message int."""
        return self.gen.vec_mul_table()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.gen == other.gen

    def __hash__(self) -> int:
        return hash(self.gen)

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"


@dataclass(frozen=True)
class ZeroCode:
    """The code containing only the zero word, the dual of the full space."""

    n: int

    @property
    def k(self) -> int:
        return 0

    def codewords(self) -> list[int]:
        return [0]


class UnrestrictedCode:
    """A set of distinct words of fixed length, not necessarily linear."""

    __slots__ = ("n", "words", "distance_invariant")

    def __init__(self, n: int, words: Iterable[int], distance_invariant: bool = False):
        words = tuple(sorted(words))
        if not words:
            raise ValueError("code must contain at least one word")
        for i, w in enumerate(words):
            if w < 0 or w >> n:
                raise ValueError(f"word {w} does not fit in {n} bits")
            if i and words[i - 1] == w:
                raise ValueError(f"duplicate word {w}")
        self.n = n
        self.words = words
        self.distance_invariant = distance_invariant

    @property
    def size(self) -> int:
        return len(self.words)

    def __repr__(self) -> str:
        return f"UnrestrictedCode(n={self.n}, size={self.size})"


def _krawtchouk_rows(n: int, js: Sequence[int]) -> Iterator[list[int]]:
    # K_i(j) for j in js, i = 0..n, by the three-term recurrence
    # (i+1) K_{i+1} = (n-2j) K_i - (n-i+1) K_{i-1}, with K_{-1} = 0
    prev, cur = [0] * len(js), [1] * len(js)
    yield cur
    for i in range(n):
        prev, cur = cur, [
            ((n - 2 * j) * c - (n - i + 1) * p) // (i + 1)
            for j, c, p in zip(js, cur, prev)
        ]
        yield cur


def systematic_form(c: LinearCode) -> tuple[LinearCode, tuple[int, ...]]:
    """Row-reduce to (I_k | A), permuting pivot columns forward if needed.

    Returns the systematic code and the column permutation used: entry i
    of the permutation is the source column now sitting at position i.
    The permutation is the identity whenever the first k columns are
    already independent.
    """
    g = c.gen
    k, n = g.nrows, g.ncols
    pivots = Echelon(g.columns()).pivots
    if len(pivots) != k:
        raise CertificateError(f"found {len(pivots)} pivot columns for rank {k}")
    rest = set(range(n)) - set(pivots)
    perm = tuple(pivots + sorted(rest))
    reordered = g if perm == tuple(range(n)) else g.take_columns(perm)
    u = invert(reordered.take_columns(range(k)))
    if u is None:
        raise CertificateError("pivot columns are singular")
    return LinearCode(u.mul(reordered)), perm


def _information_forms(c: LinearCode) -> list[tuple[int, tuple[int, ...]]]:
    """(r_j, rows) for greedy disjoint independent column sets I_1, I_2, ...

    Each I_j of rank r_j is extended to an information set, and rows is the
    generator that is the identity on it, in the original coordinates.
    """
    g = c.gen
    cols = g.columns()
    rest = range(g.ncols)
    forms = []
    while pivots := [rest[i] for i in Echelon(cols[j] for j in rest).pivots]:
        rest = [j for j in rest if j not in pivots]
        info = pivots
        if len(pivots) < g.nrows:
            info = pivots + [j for j in range(g.ncols) if j not in pivots]
            info = [info[i] for i in Echelon(cols[j] for j in info).pivots]
        u = invert(g.take_columns(info))
        if u is None:
            raise CertificateError("information set columns are singular")
        forms.append((len(pivots), u.mul(g).rows))
    return forms


def min_distance(c: LinearCode, cap: int = MIN_DISTANCE_CAP) -> int:
    """Minimum weight of a nonzero codeword; the module docstring gives the method.

    cap bounds the codewords listed: 2^k for the Gray walk, the running
    total over weight layers and forms for Brouwer-Zimmermann.
    """
    k = c.k
    forms = _information_forms(c) if k >= BZ_MIN_K else []
    if len(forms) < 2:
        wd = weight_distribution(c, cap)
        return next(w for w in range(1, c.n + 1) if wd[w])
    best, witness, listed = c.n + 1, 0, 0
    # layers[f][i]: words of the current weight in form f whose last row is i - 1
    layers = [[[0]] + [[]] * k for _ in forms]
    for w in range(1, k + 1):
        listed += len(forms) * math.comb(k, w)
        if listed > cap:
            raise Infeasible(
                f"enumeration infeasible: {listed} messages through weight {w} exceed cap {cap}"
            )
        for f, (_, rows) in enumerate(forms):
            below, layer = [], [[]]
            for i, row in enumerate(rows):
                below += layers[f][i]
                words = [x ^ row for x in below]
                layer.append(words)
                if words and (low := min(map(int.bit_count, words))) < best:
                    best = low
                    witness = next(x for x in words if x.bit_count() == low)
            layers[f] = layer
        if best <= sum(max(0, w + 1 - (k - r)) for r, _ in forms):
            break
    if not witness or witness.bit_count() != best or witness not in Echelon(c.gen.rows):
        raise CertificateError(f"witness {witness:#x} is not a weight-{best} codeword")
    return best


def weight_distribution(c: LinearCode, cap: int = MIN_DISTANCE_CAP) -> list[int]:
    """Counts of codewords per Hamming weight, length n+1."""
    if (1 << c.k) > cap:
        raise Infeasible(
            f"enumeration infeasible: 2^{c.k} messages exceed cap {cap}"
        )
    rows = c.gen.rows
    counts = [0] * (c.n + 1)
    counts[0] = 1
    word = 0
    for m in range(1, 1 << c.k):
        word ^= rows[(m & -m).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along axis 0, in place.

    The first axis must be a power of two, and ``a`` must reshape to
    (blocks, 2, h, rest) as a view: C-contiguous, or a column slab of a
    C-contiguous 2-D array.  Each stage combines the two halves at once.
    Above _FWHT_CHUNK bytes, H_n = H_hi (x) H_lo: the low transform runs
    on chunks of lo rows and the high one on column slabs of the
    (n/lo, lo*rest) view, each piece within one chunk.
    """
    n = a.shape[0]
    if a.nbytes > _FWHT_CHUNK and n > 2:
        # the most rows that fit in one chunk, a power of two below n
        lo = 1 << (max(2, _FWHT_CHUNK * n // a.nbytes).bit_length() - 1)
        for i in range(0, n, lo):
            _fwht(a[i : i + lo])
        v = a.reshape(n // lo, -1)
        width = max(1, _FWHT_CHUNK // (v.shape[0] * v.itemsize))
        for j in range(0, v.shape[1], width):
            _fwht(v[:, j : j + width])
        return a
    h = 1
    while h < n:
        v = a.reshape(n // (2 * h), 2, h, -1)
        diff = v[:, 0] - v[:, 1]
        v[:, 0] += v[:, 1]
        v[:, 1] = diff
        h *= 2
    return a


def _check_dual_cap(size: int, translate: bool) -> None:
    # size counts the words listed (translate) or the indicator's entries
    if size > DUAL_DISTANCE_CAP:
        what = "code size" if translate else "indicator length"
        raise Infeasible(f"{what} {size} exceeds cap {DUAL_DISTANCE_CAP}")


def dual_distance(c) -> int | float:
    """Least weight i > 0 of a u with sum_{x in C} (-1)^(u.x) != 0.

    For a linear code this is the minimum distance of the dual code; when
    no such u exists (the code is the full space) it is ``math.inf``.  A
    distance-invariant code (linear, ZeroCode, or an unrestricted code
    flagged so) looks the same from every word, so the weights of one
    translate give B'_i through Krawtchouk rows.  Any other code takes one
    transform of its 2^n indicator, exact in int32 since every entry is a
    signed sum of at most 2^n <= DUAL_DISTANCE_CAP ones.  The cap bounds the
    words listed or the transform entries and is checked before either.
    """
    if isinstance(c, UnrestrictedCode):
        translate = c.distance_invariant
        size = c.size if translate else 1 << c.n
    elif isinstance(c, (LinearCode, ZeroCode)):
        translate, size = True, 1 << c.k
    else:
        raise TypeError(f"not a code: {c!r}")
    _check_dual_cap(size, translate)
    words = c.words if isinstance(c, UnrestrictedCode) else c.codewords()
    if not translate:
        indicator = np.zeros(size, dtype=np.int32)
        indicator[list(words)] = 1
        u = np.flatnonzero(_fwht(indicator)[1:]) + 1
        return int(np.bitwise_count(u).min()) if u.size else math.inf
    n = c.n
    counts = [0] * (n + 1)
    for w in words:
        counts[(w ^ words[0]).bit_count()] += 1
    support = [j for j in range(n + 1) if counts[j]]
    counts = [counts[j] for j in support]
    # Krawtchouk rows only at occurring distances, stopping at the first
    # nonzero coefficient; avoids the full (n+1)^2 table at large n.
    rows = _krawtchouk_rows(n, support)
    next(rows)  # K_0: the i = 0 coefficient is |C|, never zero
    for i, row in enumerate(rows, 1):
        if sum(map(operator.mul, counts, row)):
            return i
    return math.inf


def dual(c: LinearCode) -> LinearCode | ZeroCode:
    """Generator of the orthogonal complement; ZeroCode when k = n."""
    g = c.gen
    k, n = g.nrows, g.ncols
    if k == n:
        return ZeroCode(n)
    # Pivots are the greedy independent columns; each other column f is a
    # sum of pivot columns, and e_f plus those pivots is a kernel vector.
    cols = g.columns()
    span = Echelon(cols)
    free = sorted(set(range(n)) - set(span.pivots))
    d = LinearCode(BitMatrix([(1 << f) | span.express(cols[f]) for f in free], n))
    if d.k != n - k:
        raise CertificateError(f"dual has dimension {d.k}, not {n - k}")
    return d


def is_self_orthogonal(c: LinearCode) -> bool:
    """True iff G Gt vanishes, i.e. all rows pairwise and self orthogonal."""
    rows = c.gen.rows
    return all(
        parity_dot(rows[i], rows[j]) == 0
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


def star_fill_zero_columns(c: LinearCode) -> LinearCode:
    """Replace zero columns, in column order, by e1, e2, ...

    Mirrors the repair applied to reference-table generators whose stored
    form carries dead coordinates.  Refuses when k or more columns are
    zero, since there are only k distinct identity columns to hand out.
    """
    g = c.gen
    support = 0
    for r in g.rows:
        support |= r
    zero_cols = [j for j in range(g.ncols) if not support >> j & 1]
    if not zero_cols:
        return c
    if len(zero_cols) >= g.nrows:
        raise ValueError(
            f"cannot fill {len(zero_cols)} zero columns with only {g.nrows} rows"
        )
    rows = list(g.rows)
    for idx, j in enumerate(zero_cols):
        rows[idx] |= 1 << j
    return LinearCode(BitMatrix(rows, g.ncols))
