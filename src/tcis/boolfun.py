"""Vectorial Boolean permutations, Walsh spectra, and masking analysis.

A permutation of F_2^k is a lookup table; linear permutations carry their
matrix alongside.  Walsh values W(a, b) = sum_x (-1)^(a.x + b.F(x)) are
exact int64 tables computed by a fast transform per output mask b.

The correlation-immunity strength of a function tuple is read off the
spectra: a triple (a, b, c) with all Walsh values nonzero defeats masking
at order w(a)+w(b)+w(c), and the strength is one less than the smallest
such order.  Leakage bookkeeping sticks to exact rationals so constancy
of a convolution is decidable, not approximate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import LinearCode, UnrestrictedCode, dual, dual_distance
from .gf2 import BitMatrix, CertificateError, Infeasible, invert

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
    "CIP_K_CAP",
    "TUPLE_K_CAP",
    "TUPLE_T_CAP",
    "MASKING_BITS_CAP",
]

WALSH_K_CAP = 12
CIP_K_CAP = 10
TUPLE_K_CAP = 8
TUPLE_T_CAP = 4
MASKING_BITS_CAP = 20


class BooleanPermutation:
    """A bijection of F_2^k held as a table, with an optional matrix.

    A linear permutation with matrix M acts on row vectors, table[x] = x.M,
    so the matrix read off a systematic generator block acts the same way
    the block does inside codewords.
    """

    __slots__ = ("k", "table", "matrix")

    def __init__(self, k: int, table, matrix: BitMatrix | None = None):
        table = tuple(table)
        if len(table) != 1 << k:
            raise ValueError(f"table must have 2^{k} entries")
        if sorted(table) != list(range(1 << k)):
            raise ValueError("table is not a bijection")
        if matrix is not None:
            if matrix.nrows != k or matrix.ncols != k:
                raise ValueError("matrix shape disagrees with k")
            for x in range(1 << k):
                if matrix.vec_mul(x) != table[x]:
                    raise ValueError("matrix does not reproduce the table")
        self.k = k
        self.table = table
        self.matrix = matrix

    @classmethod
    def identity(cls, k: int) -> "BooleanPermutation":
        return cls(k, range(1 << k), BitMatrix.identity(k))

    @classmethod
    def from_matrix(cls, m: BitMatrix) -> "BooleanPermutation":
        if m.nrows != m.ncols:
            raise ValueError("matrix must be square")
        if invert(m) is None:
            raise ValueError("matrix is singular")
        k = m.nrows
        return cls(k, [m.vec_mul(x) for x in range(1 << k)], m)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def inverse(self) -> "BooleanPermutation":
        inv = [0] * len(self.table)
        for x, y in enumerate(self.table):
            inv[y] = x
        m = invert(self.matrix) if self.matrix is not None else None
        return BooleanPermutation(self.k, inv, m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanPermutation):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"BooleanPermutation(k={self.k})"


@dataclass(frozen=True)
class WalshTable:
    """All 4^k Walsh values of one permutation, values[a, b] exact."""

    k: int
    values: np.ndarray

    def value(self, a: int, b: int) -> int:
        return int(self.values[a, b])


def _parity_rows(k: int) -> np.ndarray:
    # P[v, b] = parity(v & b), built by one XOR per v from its low-bit parent.
    n = 1 << k
    p = np.zeros((n, n), dtype=np.int8)
    bit = [((np.arange(n) >> i) & 1).astype(np.int8) for i in range(k)]
    for v in range(1, n):
        p[v] = p[v & (v - 1)] ^ bit[(v & -v).bit_length() - 1]
    return p


def walsh_table(f: BooleanPermutation) -> WalshTable:
    """Exact Walsh spectrum, fast-transformed over the input index."""
    if f.k > WALSH_K_CAP:
        raise Infeasible(f"k={f.k} exceeds Walsh cap {WALSH_K_CAP}")
    n = 1 << f.k
    par = _parity_rows(f.k)
    # sign[x, b] = (-1)^(b.F(x)); transform over x turns row a into W(a, b).
    signs = 1 - 2 * par[np.fromiter(f.table, dtype=np.int64, count=n)].astype(np.int64)
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            top = signs[start : start + h, :]
            bot = signs[start + h : start + 2 * h, :]
            s, d = top + bot, top - bot
            signs[start : start + h, :] = s
            signs[start + h : start + 2 * h, :] = d
        h *= 2
    return WalshTable(f.k, signs)


def _min_outmask_weights(f: BooleanPermutation) -> np.ndarray:
    # per input mask a: the least weight of b with W(a, b) != 0
    n = 1 << f.k
    w = np.fromiter((b.bit_count() for b in range(n)), dtype=np.int64, count=n)
    nz = walsh_table(f).values != 0
    # every row has a nonzero entry (rows of a scaled Hadamard-like table)
    if not nz.any(axis=1).all():
        raise CertificateError(f"k={f.k} Walsh table has an all-zero row")
    big = np.where(nz, w[None, :], n + 1)
    return big.min(axis=1)


def cip_strength(f1: BooleanPermutation, f2: BooleanPermutation) -> int:
    """Largest d with no doubly-nonzero Walsh triple of weight sum <= d.

    A triple (a, b, c), a != 0, with W1(a, b) and W2(a, c) both nonzero
    breaks the pair at order w(a)+w(b)+w(c); the strength is the smallest
    such order minus one.  Balancedness guarantees a violating triple
    exists, so the value is always exact.
    """
    if f1.k != f2.k:
        raise ValueError("permutations act on different sizes")
    if f1.k > CIP_K_CAP:
        raise Infeasible(f"k={f1.k} exceeds pair-strength cap {CIP_K_CAP}")
    n = 1 << f1.k
    w = np.fromiter((a.bit_count() for a in range(n)), dtype=np.int64, count=n)
    m1 = _min_outmask_weights(f1)
    m2 = _min_outmask_weights(f2)
    sums = w[1:] + m1[1:] + m2[1:]
    return int(sums.min()) - 1


def t_ci_strength(fs) -> int:
    """Strength of a function tuple; the t = 2 case matches cip_strength.

    Uses per-function minimal output-mask weights: the cheapest violation
    over a fixed a != 0 picks each b_i of least weight with W_i(a, b_i)
    nonzero.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one permutation")
    k = fs[0].k
    if any(f.k != k for f in fs):
        raise ValueError("permutations act on different sizes")
    if k > TUPLE_K_CAP or len(fs) > TUPLE_T_CAP:
        raise Infeasible(
            f"k={k}, t={len(fs)} exceeds tuple caps ({TUPLE_K_CAP}, {TUPLE_T_CAP})"
        )
    n = 1 << k
    w = np.fromiter((a.bit_count() for a in range(n)), dtype=np.int64, count=n)
    total = w[1:].copy()
    for f in fs:
        total += _min_outmask_weights(f)[1:]
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
    if f1.k > 4:
        raise Infeasible(f"k={f1.k} exceeds verification cap 4")
    dd = dual_distance(build_masking_code([f1, f2]))
    s = cip_strength(f1, f2)
    return {"dual_distance": dd, "cip_strength": s, "consistent": dd == s + 1}


def derive_bijections(c: LinearCode, t: int, partition_sets=None) -> list[BooleanPermutation]:
    """Extract the t-1 linear masking bijections of a t-CIS code.

    Rewrites the generator as (I_k | L_1 | .. | L_{t-1}) along the given
    information sets (found automatically when omitted) and returns the
    permutations with matrices (L_i^T)^-1.  A singular block means the
    sets were not information sets and raises ValueError.
    """
    if c.n != t * c.k:
        raise ValueError(f"length {c.n} is not t*k = {t}*{c.k}")
    if partition_sets is None:
        from .partition import t_cis_partition

        outcome = t_cis_partition(c, t)
        if not outcome.is_partition:
            raise ValueError("code is not t-CIS; no bijections to derive")
        partition_sets = outcome.sets
    sets = [tuple(sorted(s)) for s in partition_sets]
    if len(sets) != t or any(len(s) != c.k for s in sets):
        raise ValueError("partition shape disagrees with (t, k)")
    a1 = c.gen.take_columns(sets[0])
    u = invert(a1)
    if u is None:
        raise ValueError("inconsistent partition: first set is not an information set")
    out = []
    for s in sets[1:]:
        li = u.mul(c.gen.take_columns(s))
        m = invert(li.transpose())
        if m is None:
            raise ValueError("inconsistent partition: block is singular")
        out.append(BooleanPermutation.from_matrix(m))
    return out


class LeakageFunction:
    """An exact rational-valued function on F_2^k."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values):
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

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

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


def _fwht_exact(values: list[Fraction]) -> list[Fraction]:
    out = list(values)
    n = len(out)
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            for i in range(start, start + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def group_convolution(f: LeakageFunction, g: LeakageFunction) -> LeakageFunction:
    """(f*g)(z) = sum_x f(x) g(z^x), exactly, via the transform domain."""
    if f.k != g.k:
        raise ValueError("sizes disagree")
    if f.k > WALSH_K_CAP:
        raise Infeasible(f"k={f.k} exceeds convolution cap {WALSH_K_CAP}")
    n = 1 << f.k
    fh = _fwht_exact(list(f.values))
    gh = _fwht_exact(list(g.values))
    prod = _fwht_exact([a * b for a, b in zip(fh, gh)])
    return LeakageFunction(f.k, (v / n for v in prod))


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
