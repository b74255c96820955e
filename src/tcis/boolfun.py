"""Vectorial Boolean permutations, Walsh spectra, and masking analysis.

A permutation of F_2^k is a lookup table; a linear one carries its matrix
and builds the table only when asked.  The Walsh table W(a, b) =
sum_x (-1)^(a.x + b.F(x)) of a linear F(x) = x.M is filled from M: 2^k
at a = b.M^T, 0 elsewhere.  For a permutation without a matrix it is
H.S, where H is the Sylvester-Hadamard matrix and S the sign matrix
S[x, b] = (-1)^(F(x).b), whose row x is row F(x) of H: one cache-blocked
transform (``codes._fwht``), exact in int16.

The correlation-immunity strength of a function tuple is read off the
spectra: a triple (a, b, c) with all Walsh values nonzero defeats masking
at order w(a)+w(b)+w(c), and the strength is one less than the smallest
such order; for linear functions it is a code's minimum distance minus
one, so WALSH_K_CAP caps tables, convolutions and strengths of tuples
with a nonlinear member.  Exact rational leakages make constancy decidable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import (LinearCode, UnrestrictedCode, _check_dual_cap, _fwht, dual_distance,
                    min_distance)
from .gf2 import BitMatrix, CertificateError, Echelon, Infeasible, invert
from .partition import t_cis_partition

__all__ = [
    "BooleanPermutation",
    "WalshTable",
    "walsh_table",
    "cip_strength",
    "t_ci_strength",
    "build_masking_code",
    "verify_theorem1",
    "derive_bijections",
    "LeakageFunction",
    "hamming_weight_leakage",
    "point_mass_leakage",
    "group_convolution",
    "ConstancyResult",
    "leakage_constancy_check",
    "WALSH_K_CAP",
    "MASKING_BITS_CAP",
]

WALSH_K_CAP = 12
MASKING_BITS_CAP = 20


class BooleanPermutation:
    """A bijection of F_2^k held as a table, with an optional matrix.

    A linear permutation with matrix M acts on row vectors, table[x] = x.M,
    so the matrix read off a systematic generator block acts the same way
    the block does inside codewords.  One made from its matrix builds the
    table only when ``table`` is first read.
    """

    __slots__ = ("k", "matrix", "_table")

    def __init__(self, k: int, table, matrix: BitMatrix | None = None):
        if k < 1:
            raise ValueError("k must be at least 1")
        table = tuple(table)
        if len(table) != 1 << k:
            raise ValueError(f"table must have 2^{k} entries")
        if sorted(table) != list(range(1 << k)):
            raise ValueError("table is not a bijection")
        if matrix is not None:
            if matrix.nrows != k or matrix.ncols != k:
                raise ValueError("matrix shape disagrees with k")
            if matrix.vec_mul_table() != list(table):
                raise ValueError("matrix does not reproduce the table")
        self.k = k
        self.matrix = matrix
        self._table = table

    @classmethod
    def identity(cls, k: int) -> "BooleanPermutation":
        return cls.from_matrix(BitMatrix.identity(k))

    @classmethod
    def from_matrix(cls, m: BitMatrix) -> "BooleanPermutation":
        if m.nrows != m.ncols:
            raise ValueError("matrix must be square")
        if Echelon(m.rows).rank < m.nrows:
            raise ValueError("matrix is singular")
        f = cls.__new__(cls)
        f.k, f.matrix, f._table = m.nrows, m, None
        return f

    @property
    def table(self) -> tuple[int, ...]:
        if self._table is None:
            self._table = tuple(self.matrix.vec_mul_table())
        return self._table

    def __call__(self, x: int) -> int:
        if self._table is None:
            return self.matrix.vec_mul(x)
        return self._table[x]

    def inverse(self) -> "BooleanPermutation":
        if self.matrix is not None:
            return BooleanPermutation.from_matrix(invert(self.matrix))
        inv = [0] * len(self.table)
        for x, y in enumerate(self.table):
            inv[y] = x
        return BooleanPermutation(self.k, inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanPermutation):
            return NotImplemented
        if self.matrix is not None and other.matrix is not None:
            return self.matrix == other.matrix
        return self.table == other.table

    def __hash__(self) -> int:
        # the images of the unit vectors, which are the rows of a matrix
        return hash(tuple(self(1 << i) for i in range(self.k)))

    def __repr__(self) -> str:
        return f"BooleanPermutation(k={self.k})"


@dataclass(frozen=True)
class WalshTable:
    """All 4^k Walsh values of one permutation, values[a, b] exact."""

    k: int
    values: np.ndarray

    def value(self, a: int, b: int) -> int:
        return int(self.values[a, b])


def _spectrum(f: BooleanPermutation, masks: np.ndarray) -> np.ndarray:
    """Exact int16 Walsh values W(a, masks[j]) at [a, j], masks in any order."""
    if f.k > WALSH_K_CAP:
        raise Infeasible(f"k={f.k} exceeds Walsh cap {WALSH_K_CAP}")
    if f.matrix is not None:
        # F(x).b = x.(b.M^T), so W(a, b) is 2^k at a = b.M^T and 0 elsewhere
        values = np.zeros((1 << f.k, len(masks)), dtype=np.int16)
        a_of_b = np.array(f.matrix.transpose().vec_mul_table())
        values[a_of_b[masks], np.arange(len(masks))] = 1 << f.k
        return values
    # int16 is exact: every entry, partial sums included, is a signed sum
    # of at most 2^k ones, and 2^k <= 2^WALSH_K_CAP = 4096 < 2^15.
    # S[x, j] = (-1)^(F(x).masks[j]), built in place: the parity of the AND.
    s = np.array(f.table, dtype=np.int16)[:, None] & masks.astype(np.int16)
    np.bitwise_count(s, out=s)
    s &= 1
    s *= -2
    s += 1
    return _fwht(s)


def walsh_table(f: BooleanPermutation) -> WalshTable:
    """Exact int16 Walsh spectrum, values[a, b].

    A permutation with a matrix M has 2^k at a = b.M^T and 0 elsewhere,
    filled in directly; the sign matrix and its transform W = H.S serve
    permutations without one.
    """
    return WalshTable(f.k, _spectrum(f, np.arange(1 << f.k)))


def _min_outmask_weights(f: BooleanPermutation) -> np.ndarray:
    # per input mask a, the least weight of b with W(a, b) != 0: the first
    # nonzero of row a, output masks sorted by weight.  A permutation's
    # spectrum has one in every row (Parseval), so a row without one fails.
    masks = np.arange(1 << f.k)
    order = np.argsort(np.bitwise_count(masks), kind="stable")
    nz = _spectrum(f, order) != 0
    first = nz.argmax(axis=1)
    if not nz[masks, first].all():
        raise CertificateError(f"k={f.k} Walsh table has an all-zero row")
    return np.bitwise_count(order[first])


def cip_strength(f1: BooleanPermutation, f2: BooleanPermutation) -> int:
    """Strength of the pair (f1, f2): ``t_ci_strength`` at t = 2."""
    return t_ci_strength((f1, f2))


def t_ci_strength(fs) -> int:
    """Largest d with no all-nonzero Walsh tuple of weight sum <= d.

    A tuple (a, b_1, .., b_t), a != 0, with every W_i(a, b_i) nonzero
    breaks the functions at order w(a)+w(b_1)+..+w(b_t); the strength is
    the smallest such order minus one.  For a fixed a the cheapest b_i is
    the least-weight output mask with W_i(a, b_i) nonzero, and every Walsh
    row has one, so the value is always exact.

    For linear F_i(x) = x.M_i, W_i(a, b) is nonzero only at b = M_i^-1 a,
    so the strength is d(I | (M_1^-1)^T | .. ) - 1 from ``min_distance``
    (Carlet, Gaborit, Kim and Sole, IEEE Trans. IT 2012).
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one permutation")
    k = fs[0].k
    if any(f.k != k for f in fs):
        raise ValueError("permutations act on different sizes")
    if all(f.matrix is not None for f in fs):
        # row j of (M^-1)^T is column j of M^-1
        blocks = [invert(f.matrix).columns() for f in fs]
        rows = [1 << j | sum(b[j] << i * k for i, b in enumerate(blocks, 1))
                for j in range(k)]
        return min_distance(LinearCode(BitMatrix(rows, (len(fs) + 1) * k))) - 1
    total = np.bitwise_count(np.arange(1, 1 << k)).astype(np.int64)
    for f in fs:
        total = total + _min_outmask_weights(f)[1:]
    return int(total.min()) - 1


def build_masking_code(fs) -> UnrestrictedCode:
    """Words (x1 ^ .. ^ xt, F1(x1), .., Ft(xt)) over all share tuples."""
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one permutation")
    k = fs[0].k
    t = len(fs)
    if any(f.k != k for f in fs):
        raise ValueError("permutations act on different sizes")
    if t * k > MASKING_BITS_CAP:
        raise Infeasible(f"t*k={t * k} exceeds masking cap {MASKING_BITS_CAP}")
    total = 1 << (t * k)
    idx = np.arange(total, dtype=np.int64)
    mask = (1 << k) - 1
    xor = np.zeros(total, dtype=np.int64)
    word = np.zeros(total, dtype=np.int64)
    for i, f in enumerate(fs):
        xi = (idx >> (i * k)) & mask
        xor ^= xi
        word |= np.fromiter(f.table, dtype=np.int64, count=1 << k)[xi] << ((i + 1) * k)
    word |= xor
    return UnrestrictedCode((t + 1) * k, word.tolist())


def verify_theorem1(f1: BooleanPermutation, f2: BooleanPermutation) -> dict:
    """Check dual distance of the pair's masking code against strength + 1."""
    if f1.k != f2.k:
        raise ValueError("permutations act on different sizes")
    # the masking code takes the indicator route of length 2^(3k); refuse
    # it before its words are built
    _check_dual_cap(1 << 3 * f1.k, translate=False)
    dd = dual_distance(build_masking_code([f1, f2]))
    s = cip_strength(f1, f2)
    return {"dual_distance": dd, "cip_strength": s, "consistent": dd == s + 1}


def derive_bijections(c: LinearCode, t: int) -> list[BooleanPermutation]:
    """Extract the t-1 linear masking bijections of a t-CIS code.

    Rewrites the generator as (I_k | L_1 | .. | L_{t-1}) along the
    information sets of the partition walk and returns the permutations
    with matrices (L_i^T)^-1.  A singular block fails the re-check of the
    walk's sets and raises CertificateError.
    """
    if c.n != t * c.k:
        raise ValueError(f"length {c.n} is not t*k = {t}*{c.k}")
    outcome = t_cis_partition(c, t)
    if not outcome.is_partition:
        raise ValueError("code is not t-CIS; no bijections to derive")
    first, *rest = outcome.sets
    u = invert(c.gen.take_columns(first))
    if u is None:
        raise CertificateError("first set of the walk is not an information set")
    out = []
    for s in rest:
        li = u.mul(c.gen.take_columns(s))
        m = invert(li.transpose())
        if m is None:
            raise CertificateError("a block of the walk's partition is singular")
        out.append(BooleanPermutation.from_matrix(m))
    return out


class LeakageFunction:
    """An exact rational-valued function on F_2^k."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values):
        if k < 1:
            raise ValueError("k must be at least 1")
        values = tuple(Fraction(v) for v in values)
        if len(values) != 1 << k:
            raise ValueError(f"need 2^{k} values")
        self.k = k
        self.values = values

    def __call__(self, x: int) -> Fraction:
        return self.values[x]

    def compose(self, f: BooleanPermutation) -> "LeakageFunction":
        """Pointwise composition with a permutation: x maps to self(f(x))."""
        if f.k != self.k:
            raise ValueError("sizes disagree")
        return LeakageFunction(self.k, (self.values[y] for y in f.table))

    def power(self, p: int) -> "LeakageFunction":
        if p < 0:
            raise ValueError("exponent must be nonnegative")
        return LeakageFunction(self.k, (v**p for v in self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeakageFunction):
            return NotImplemented
        return self.k == other.k and self.values == other.values

    def __repr__(self) -> str:
        return f"LeakageFunction(k={self.k})"


def hamming_weight_leakage(k: int) -> LeakageFunction:
    return LeakageFunction(k, (x.bit_count() for x in range(1 << k)))


def point_mass_leakage(k: int, at: int = 0) -> LeakageFunction:
    return LeakageFunction(k, (1 if x == at else 0 for x in range(1 << k)))


def group_convolution(f: LeakageFunction, g: LeakageFunction) -> LeakageFunction:
    """(f*g)(z) = sum_x f(x) g(z^x), exactly, via the transform domain."""
    if f.k != g.k:
        raise ValueError("sizes disagree")
    if f.k > WALSH_K_CAP:
        raise Infeasible(f"k={f.k} exceeds convolution cap {WALSH_K_CAP}")
    (fh, df), (gh, dg) = (_integer_transform(h) for h in (f, g))
    den = (df * dg) << f.k
    return LeakageFunction(f.k, (Fraction(v, den) for v in _fwht(fh * gh)))


def _integer_transform(h: LeakageFunction) -> tuple[np.ndarray, int]:
    # the transform of d*h over Python ints, d the least common denominator
    d = math.lcm(*(v.denominator for v in h.values))
    ints = [v.numerator * (d // v.denominator) for v in h.values]
    return _fwht(np.array(ints, dtype=object)), d


@dataclass(frozen=True)
class ConstancyResult:
    constant: bool
    witness: tuple[int, int] | None
    convolution: LeakageFunction


def leakage_constancy_check(ls, fs=None) -> ConstancyResult:
    """Convolve the per-share leakages through their encodings.

    The masking attack fails exactly when the convolution of the composed
    leakages is constant in the masked value.  Returns the convolution and,
    when non-constant, a witness pair of points with differing values.
    """
    ls = list(ls)
    if not ls:
        raise ValueError("need at least one leakage function")
    k = ls[0].k
    if any(l.k != k for l in ls):
        raise ValueError("leakages act on different sizes")
    if fs is None:
        fs = [BooleanPermutation.identity(k)] * len(ls)
    else:
        fs = list(fs)
    if len(fs) != len(ls):
        raise ValueError("need one encoding per leakage")
    composed = [l.compose(f) for l, f in zip(ls, fs)]
    conv = composed[0]
    for nxt in composed[1:]:
        conv = group_convolution(conv, nxt)
    for z in range(1, 1 << k):
        if conv.values[z] != conv.values[0]:
            return ConstancyResult(False, (0, z), conv)
    return ConstancyResult(True, None, conv)
