"""Code constructions and bound calculators.

Covers one-generator quasi-cyclic codes from circulant blocks, the
building-up step from [tk, k] to [t(k+1), k+1], its subtracting inverse,
the mass-formula certificate of the class lists, and the small
closed-form bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classify import cat_classes
from .codes import LinearCode
from .gf2 import (
    BitMatrix,
    CertificateError,
    gl2_size,
    invert,
    parity_dot,
    poly_gcd,
    x_pow_minus_one,
)

__all__ = [
    "QcSpec",
    "QcReport",
    "qc_build",
    "poly_from_octal",
    "BuildUpChoice",
    "build_up",
    "subtract",
    "MassReport",
    "mass_formula_check",
    "gl2_size",
    "Bounds",
    "bounds",
    "m_count",
]


def poly_from_octal(token: str) -> int:
    """Octal polynomial token; leftmost digit holds the top coefficients."""
    return int(token, 8)


@dataclass(frozen=True)
class QcSpec:
    """One-generator quasi-cyclic shape: t circulant blocks of size m."""

    t: int
    m: int
    polys: tuple[int, ...]

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("need at least two blocks")
        if self.m < 1:
            raise ValueError("circulant size must be positive")
        if len(self.polys) != self.t:
            raise ValueError(f"need exactly {self.t} polynomials")
        for p in self.polys:
            if p < 0 or p >> self.m:
                raise ValueError(f"polynomial {p:#o} has degree >= {self.m}")


@dataclass(frozen=True)
class QcReport:
    """Coprimality data for a quasi-cyclic build.

    The construction guarantees t-CIS-ness when every block polynomial is
    coprime with x^m - 1; gcds against x^(t*m) - 1 are reported alongside
    since the two moduli share factors and sources differ on which one
    they quote.
    """

    block_gcds: tuple[int, ...]
    length_gcds: tuple[int, ...]

    @property
    def all_coprime(self) -> bool:
        return all(g == 1 for g in self.block_gcds)


def qc_build(spec: QcSpec) -> tuple[LinearCode, QcReport]:
    """Generator of m rows of rotated blocks, plus the coprimality report.

    Row r of block i holds the coefficients of x^r * a_i mod x^m - 1,
    ascending degree left to right.
    """
    if all(p == 0 for p in spec.polys):
        raise ValueError("degenerate: all block polynomials are zero")
    m, t = spec.m, spec.t
    mask = (1 << m) - 1
    rows = []
    for r in range(m):
        row = 0
        for i, a in enumerate(spec.polys):
            rot = ((a << r) | (a >> (m - r))) & mask if r else a
            row |= rot << (i * m)
        rows.append(row)
    code = LinearCode(BitMatrix(rows, t * m))
    mod_block = x_pow_minus_one(m)
    mod_length = x_pow_minus_one(t * m)
    report = QcReport(
        tuple(poly_gcd(a, mod_block) for a in spec.polys),
        tuple(poly_gcd(a, mod_length) for a in spec.polys),
    )
    return code, report


@dataclass(frozen=True)
class BuildUpChoice:
    """Inputs of one building-up step.

    base: a t-CIS [tk, k] code whose consecutive k-column blocks are
    invertible.  xs[j] is the extra row vector appended to block j, and
    ys[j] packs the new-column bits of block j (bit i = row i's bit).
    """

    base: LinearCode
    t: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self):
        k, n = self.base.k, self.base.n
        if n != self.t * k:
            raise ValueError(f"base length {n} is not t*k = {self.t}*{k}")
        if len(self.xs) != self.t or len(self.ys) != self.t:
            raise ValueError("need one x vector and one y column per block")
        for v in self.xs + self.ys:
            if v < 0 or v >> k:
                raise ValueError(f"vector {v} does not fit in {k} bits")


def build_up(choice: BuildUpChoice) -> LinearCode:
    """Extend a t-CIS [tk, k] base to a [t(k+1), k+1] code.

    Each block grows by the column (z_j, ys[j]) on its left and the row
    (z_j | xs[j]) on top, where z_j = 1 + <c_j, ys[j]> and c_j solves
    c_j A_j = x_j.  The choice of z_j forces the new blocks invertible,
    so the result is again t-CIS.
    """
    base, t = choice.base, choice.t
    k, kk = base.k, base.k + 1
    blocks = []
    for j in range(t):
        a = base.gen.take_columns(range(j * k, (j + 1) * k))
        ainv = invert(a)
        if ainv is None:
            raise ValueError(f"base block {j} is not invertible")
        blocks.append((a, ainv))
    rows = [0] * kk
    for j in range(t):
        a, ainv = blocks[j]
        cj = ainv.vec_mul(choice.xs[j])
        zj = 1 ^ parity_dot(cj, choice.ys[j])
        off = j * kk
        rows[0] |= (zj << off) | (choice.xs[j] << (off + 1))
        for i in range(k):
            rows[i + 1] |= (((choice.ys[j] >> i) & 1) << off) | (a.row(i) << (off + 1))
    return LinearCode(BitMatrix(rows, t * kk))


def subtract(c: LinearCode, t: int, row: int) -> LinearCode:
    """Inverse of building-up: drop one row and one column per block.

    In each block the deleted column is the smallest-index one dependent
    on the block's remaining columns after the row removal; the resulting
    (k-1)-column blocks are checked invertible.
    """
    k, n = c.k, c.n
    if n != t * k:
        raise ValueError(f"length {n} is not t*k = {t}*{k}")
    if k < 2:
        raise ValueError("nothing left after subtracting from k = 1")
    if not 0 <= row < k:
        raise ValueError(f"row index {row} out of range")
    kept_rows = [c.gen.row(i) for i in range(k) if i != row]
    trimmed = BitMatrix(kept_rows, n)
    keep: list[int] = []
    for j in range(t):
        block_cols = list(range(j * k, (j + 1) * k))
        chosen = None
        for drop in block_cols:
            others = [col for col in block_cols if col != drop]
            if invert(trimmed.take_columns(others)) is not None:
                chosen = drop
                break
        if chosen is None:
            raise RuntimeError(
                "no deletable column in a block; the input was not a "
                "t-CIS code in invertible block form"
            )
        keep.extend(col for col in block_cols if col != chosen)
    return LinearCode(trimmed.take_columns(keep))


def _splittings(c: LinearCode, t: int) -> int:
    """Ordered splittings of the columns of c into t information sets.

    A k-subset is one iff none of its 2^k - 1 nonzero column sums, built
    at once by XOR doubling, is zero.  ways[S] counts the splittings of
    the column mask S; each layer of masks grows by every disjoint set."""
    n, k = c.n, c.k
    subsets = np.array(list(combinations(range(n), k)), dtype=np.int64)
    cols = np.array(c.gen.columns(), dtype=np.int64)[subsets]
    sums = np.zeros((len(subsets), 1), dtype=np.int64)
    for j in range(k):
        sums = np.hstack([sums, sums ^ cols[:, j : j + 1]])
    info = (1 << subsets).sum(axis=1)[(sums[:, 1:] != 0).all(axis=1)]
    ways = np.zeros(1 << n, dtype=np.int64)
    ways[0] = 1
    layer = np.zeros(1, dtype=np.int64)
    for _ in range(t):
        grown = layer[:, None] | info
        fits = (layer[:, None] & info) == 0
        np.add.at(ways, grown[fits], np.broadcast_to(ways[layer, None], grown.shape)[fits])
        layer = np.unique(grown[fits])
    return int(ways[-1])


@dataclass(frozen=True)
class MassReport:
    k: int
    t: int
    group_power: int
    class_sizes: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return sum(self.class_sizes) == self.group_power


def mass_formula_check(k: int, t: int) -> MassReport:
    """Size every class of t-CIS [tk, k] codes among the systematic ones.

    Counting pairs (labelled code, ordered splitting into t information
    sets) two ways, class C holds p(C) (k!)^t / |PAut(C)| of the
    |GL(k,2)|^(t-1) codes (I | A_1 | .. | A_{t-1}), p(C) its splittings.
    The sizes of the classes cat_classes lists must be whole and sum to
    that total, else CertificateError.  Bad k or t and sizes past the
    length or multiset cap are refused by cat_classes, before the total
    is worked out.
    """
    classes = cat_classes(k, t)
    total = gl2_size(k) ** (t - 1)
    sizes = []
    for cf, code in classes:
        size, rest = divmod(_splittings(code, t) * math.factorial(k) ** t, cf.aut_order)
        if rest:
            raise CertificateError(f"class size of {cf.form} is not whole")
        sizes.append(size)
    report = MassReport(k, t, total, tuple(sorted(sizes, reverse=True)))
    if not report.consistent:
        raise CertificateError(f"class sizes sum to {sum(sizes)}, not {total}")
    return report


@dataclass(frozen=True)
class Bounds:
    trivial_lower: int
    singleton_upper: int
    plotkin_upper: int
    gv_rate_delta: float


def bounds(k: int, t: int) -> Bounds:
    """Distance bounds for a [tk, k] code split into t information sets.

    The partition forces d >= t; Singleton gives d <= (t-1)k + 1, which
    sharpens to (t-1)k once tk > 3; Plotkin caps d at kt 2^(k-1)/(2^k -1)
    rounded down.  The reported delta solves H(delta) = 1/t, the
    asymptotic rate point, to 1e-12.
    """
    if k < 1 or t < 2:
        raise ValueError("need k >= 1 and t >= 2")
    singleton = (t - 1) * k if t * k > 3 else (t - 1) * k + 1
    plotkin = (k * t * (1 << (k - 1))) // ((1 << k) - 1)
    target = 1.0 / t

    def entropy(x: float) -> float:
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    lo, hi = 1e-15, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return Bounds(t, singleton, plotkin, (lo + hi) / 2)


def m_count(k: int, d: int) -> int:
    """The classification-step overcount bound, as printed.

    M(k,d) = sum_{j=2}^{d} sum_{1 <= r+s <= j} C(k, j-r-s) C(k,r) C(k,s)
             (r+s) 2^(k(2k-2)), exact.
    """
    if not 0 <= d <= 3 * k:
        raise ValueError(f"d = {d} outside [0, {3 * k}]")
    scale = 1 << (k * (2 * k - 2))
    total = 0
    for j in range(2, d + 1):
        for r in range(0, j + 1):
            for s in range(0, j + 1 - r):
                if 1 <= r + s <= j and j - r - s <= k:
                    total += math.comb(k, j - r - s) * math.comb(k, r) * math.comb(k, s) * (r + s)
    return total * scale
