"""Binary code containers and distance machinery.

Codewords are packed ints under the bit convention of :mod:`tcis.gf2`.
Linear codes are held by a full-rank generator matrix; unrestricted codes
by an explicit sorted word tuple.  Distance enumerators count ordered
codeword pairs, so entries sum to |C|^2 and the i-th entry is |C|^2 B_i
in the usual normalization.

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

from .gf2 import (BitMatrix, CertificateError, Echelon, Infeasible, invert, parity_dot,
                  rank)

__all__ = [
    "LinearCode",
    "ZeroCode",
    "UnrestrictedCode",
    "DistanceEnumerator",
    "systematic_form",
    "min_distance",
    "weight_distribution",
    "distance_enumerator",
    "dual_distance",
    "dual",
    "is_self_orthogonal",
    "star_fill_zero_columns",
    "krawtchouk_table",
    "MIN_DISTANCE_CAP",
    "PAIRWISE_SIZE_CAP",
    "TRANSLATE_SIZE_CAP",
]

MIN_DISTANCE_CAP = 1 << 28
# below this k the Gray walk beats Brouwer-Zimmermann on random [3k, k] codes
BZ_MIN_K = 13
PAIRWISE_SIZE_CAP = 1 << 16
TRANSLATE_SIZE_CAP = 1 << 20


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


@dataclass(frozen=True)
class DistanceEnumerator:
    """Ordered-pair distance counts; counts[i] pairs at Hamming distance i."""

    n: int
    size: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("need exactly n+1 counts")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")
        if self.counts[0] < self.size:
            raise ValueError("diagonal pairs missing from distance 0")
        if sum(self.counts) != self.size * self.size:
            raise ValueError("counts do not sum to |C|^2")

    def transform(self) -> tuple[int, ...]:
        """Dual-side counts |C|^2 B'_i via the Krawtchouk expansion.

        Entries are exact ints and are nonnegative for any code; for a
        linear code they equal |C|^2 times the dual weight distribution.
        """
        kt = krawtchouk_table(self.n)
        return tuple(
            sum(self.counts[j] * kt[i][j] for j in range(self.n + 1))
            for i in range(self.n + 1)
        )


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


def krawtchouk_table(n: int) -> list[list[int]]:
    """K[i][j] = sum_l (-1)^l C(j,l) C(n-j, i-l), for 0 <= i, j <= n."""
    return list(_krawtchouk_rows(n, range(n + 1)))


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


def distance_enumerator(c) -> DistanceEnumerator:
    """Exact ordered-pair distance counts.

    For a distance-invariant code (a linear code, or an unrestricted code
    flagged so) the counts are |C| times the weight distribution of the code
    translated through any fixed word, which takes one weight pass;
    otherwise all pairs are compared.  The size cap is checked before any
    codeword is listed.
    """
    if isinstance(c, UnrestrictedCode):
        m, distance_invariant = c.size, c.distance_invariant
    elif isinstance(c, (LinearCode, ZeroCode)):
        m, distance_invariant = 1 << c.k, True
    else:
        raise TypeError(f"not a code: {c!r}")
    cap = TRANSLATE_SIZE_CAP if distance_invariant else PAIRWISE_SIZE_CAP
    if m > cap:
        raise Infeasible(f"code size {m} exceeds cap {cap}")
    words = c.words if isinstance(c, UnrestrictedCode) else c.codewords()
    counts = [0] * (c.n + 1)
    if distance_invariant:
        c0 = words[0]
        for w in words:
            counts[(w ^ c0).bit_count()] += m
    else:
        counts[0] = m
        for i in range(m):
            wi = words[i]
            for j in range(i + 1, m):
                counts[(wi ^ words[j]).bit_count()] += 2
    return DistanceEnumerator(c.n, m, tuple(counts))


def dual_distance(c) -> int | float:
    """Smallest i > 0 with nonzero dual-side enumerator coefficient.

    For a linear code this is the minimum distance of the dual code.  When
    every coefficient beyond i = 0 vanishes (the code is the full space)
    there is no such i and ``math.inf`` is returned.
    """
    if isinstance(c, DistanceEnumerator):
        de = c
    else:
        de = distance_enumerator(c)
    n = de.n
    support = [j for j in range(n + 1) if de.counts[j]]
    counts = [de.counts[j] for j in support]
    # Krawtchouk rows only at occurring distances, stopping at the first
    # nonzero coefficient; avoids the full (n+1)^2 table at large n.
    rows = _krawtchouk_rows(n, support)
    next(rows)  # K_0: the i = 0 coefficient is |C|^2, never zero
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
