"""Free codes over Z4, the Gray map, and Lee-metric machinery.

Symbols live in {0,1,2,3}.  The Gray map sends 0,1,2,3 to the bit pairs
00, 01, 11, 10; a length-n Z4 word becomes a length-2n binary word with
symbol j occupying bits 2j and 2j+1.  Gray images inherit the translation
invariance of the Lee metric, so their dual distances can use the
one-pass translate route.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

import numpy as np

from .boolfun import BooleanPermutation
from .codes import LinearCode, UnrestrictedCode
from .gf2 import BitMatrix, CertificateError, Infeasible, invert, rank
from .partition import t_cis_partition

__all__ = [
    "Z4Matrix",
    "Z4Code",
    "z4_invert",
    "gray_symbol",
    "gray_word",
    "ungray_word",
    "gray_image",
    "lee_min_distance",
    "z4_t_cis_partition",
    "z4_derive_bijections",
    "LEE_WEIGHTS",
    "GRAY_SIZE_CAP",
]

LEE_WEIGHTS = (0, 1, 2, 1)
GRAY_SIZE_CAP = 1 << 20


class Z4Matrix:
    """Dense matrix over Z4, rows stored as tuples of symbols."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = tuple(tuple(int(e) for e in r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("rows have unequal lengths")
            if any(e < 0 or e > 3 for e in r):
                raise ValueError("entries must lie in {0,1,2,3}")
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def identity(cls, k: int) -> "Z4Matrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "Z4Matrix":
        rows = []
        for s in lines:
            digits = s.replace(" ", "").replace("\t", "")
            if not all(ch in "0123" for ch in digits):
                raise ValueError(f"invalid Z4 digit in {s!r}")
            rows.append([int(ch) for ch in digits])
        return cls(rows)

    def to_strings(self) -> list[str]:
        return ["".join(str(e) for e in r) for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def transpose(self) -> "Z4Matrix":
        return Z4Matrix(zip(*self.rows))

    def mul(self, other: "Z4Matrix") -> "Z4Matrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        cols = tuple(zip(*other.rows))
        return Z4Matrix(
            [[sum(map(operator.mul, r, col)) % 4 for col in cols] for r in self.rows]
        )

    def vec_mul(self, u: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix, mod 4."""
        if len(u) != self.nrows:
            raise ValueError("vector length disagrees")
        return tuple(
            sum(u[i] * self.rows[i][j] for i in range(self.nrows)) % 4
            for j in range(self.ncols)
        )

    def take_columns(self, idx: Sequence[int]) -> "Z4Matrix":
        return Z4Matrix([[r[j] for j in idx] for r in self.rows])

    def residue(self) -> BitMatrix:
        """Mod-2 reduction under the packed-bit convention."""
        return BitMatrix(
            [sum((e & 1) << j for j, e in enumerate(r)) for r in self.rows],
            self.ncols,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Z4Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Z4Matrix({self.nrows}x{self.ncols})"


def z4_invert(m: Z4Matrix) -> Z4Matrix | None:
    """Exact inverse over Z4, or None when the determinant is even.

    m is invertible iff its mod-2 residue is, and the GF(2) inverse lifts
    by one Newton step: with x its 0/1 lift, m.x = I + 2E, so
    x.(2I - m.x) = 2x - x.m.x is the inverse mod 4.
    """
    if m.nrows != m.ncols:
        raise ValueError("matrix is not square")
    k = m.nrows
    inv = invert(m.residue())
    if inv is None:
        return None
    x = np.array([[r >> j & 1 for j in range(k)] for r in inv.rows])
    out = Z4Matrix(((2 * x - x @ np.array(m.rows) @ x) % 4).tolist())
    if m.mul(out) != Z4Matrix.identity(k):
        raise CertificateError("Z4 inverse fails m * inverse = I")
    return out


class Z4Code:
    """A Z4 code presented by a generator matrix; free iff rank stays k mod 2."""

    __slots__ = ("gen", "free")

    def __init__(self, gen: Z4Matrix):
        self.gen = gen
        self.free = rank(gen.residue()) == gen.nrows

    @property
    def n(self) -> int:
        return self.gen.ncols

    @property
    def k(self) -> int:
        return self.gen.nrows

    def __repr__(self) -> str:
        return f"Z4Code(n={self.n}, k={self.k}, free={self.free})"


def gray_symbol(v: int) -> tuple[int, int]:
    """Bit pair of one symbol, first bit = bit 0 of the image."""
    return (v >> 1, (v & 1) ^ (v >> 1))


def gray_word(symbols: Sequence[int]) -> int:
    w = 0
    for j, v in enumerate(symbols):
        b0, b1 = gray_symbol(v)
        w |= (b0 << (2 * j)) | (b1 << (2 * j + 1))
    return w


def ungray_word(w: int, n: int) -> tuple[int, ...]:
    out = []
    for j in range(n):
        b0 = (w >> (2 * j)) & 1
        b1 = (w >> (2 * j + 1)) & 1
        out.append(2 * b0 + (b0 ^ b1))
    return tuple(out)


def _codeword_symbol_arrays(gen: Z4Matrix):
    # yields the codewords u.gen of all messages u, message index
    # sum(u_i 4^i) ascending, in int64 chunks shaped (chunk, ncols)
    k = gen.nrows
    total = 4**k
    if total > GRAY_SIZE_CAP:
        raise Infeasible(f"4^{k} messages exceed cap {GRAY_SIZE_CAP}")
    g = np.array(gen.rows, dtype=np.int64)
    chunk = min(total, 1 << 16)
    radix = 4 ** np.arange(k, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // radix[None, :]) % 4
        yield (digits @ g) % 4


def _pack_gray(symbols: np.ndarray) -> list[int]:
    n = symbols.shape[1]
    b0 = symbols >> 1
    b1 = (symbols & 1) ^ b0
    if 2 * n <= 62:
        pw0 = (np.int64(1) << (2 * np.arange(n, dtype=np.int64)))
        pw1 = pw0 << 1
        return (b0 @ pw0 + b1 @ pw1).tolist()
    out = []
    for r0, r1 in zip(b0, b1):
        w = 0
        for j in range(n):
            w |= (int(r0[j]) << (2 * j)) | (int(r1[j]) << (2 * j + 1))
        out.append(w)
    return out


def _gray_words(gen: Z4Matrix) -> np.ndarray:
    # Gray images of all codewords in message order; 2 * ncols <= 62 bits
    return np.concatenate([_pack_gray(s) for s in _codeword_symbol_arrays(gen)])


def gray_image(c: Z4Code) -> UnrestrictedCode:
    """Binary image of the code; size 4^k exactly when the code is free."""
    words: set[int] = set()
    for symbols in _codeword_symbol_arrays(c.gen):
        words.update(_pack_gray(symbols))
    return UnrestrictedCode(2 * c.n, words, distance_invariant=True)


def lee_min_distance(c: Z4Code) -> int:
    """Least positive Lee weight, the least weight of a nonzero Gray image."""
    lee = np.array(LEE_WEIGHTS)
    least = []
    for symbols in _codeword_symbol_arrays(c.gen):
        weights = lee[symbols].sum(axis=1)
        if weights.any():
            least.append(int(weights[weights > 0].min()))
    if not least:
        raise ValueError("code has no nonzero codeword")
    return min(least)


def z4_t_cis_partition(c: Z4Code, t: int):
    """Information-set splitting over Z4, via the mod-2 residue.

    A size-k column set is a Z4 information set iff its submatrix is
    invertible over Z4 iff its residue is invertible over GF(2), so the
    binary walk decides; each positive set is re-checked by Z4 inversion.
    """
    if not c.free:
        raise ValueError("unsupported: code is not free, residue rank below k")
    outcome = t_cis_partition(LinearCode(c.gen.residue()), t)
    if outcome.is_partition:
        for s in outcome.sets:
            if z4_invert(c.gen.take_columns(s)) is None:
                raise CertificateError(f"set {s} is singular over Z4")
    return outcome


def z4_derive_bijections(c: Z4Code, t: int):
    """Masking bijections of F_2^(2k) from a systematic free t-CIS code.

    The generator must be (I_k | M_1 | .. | M_{t-1}) with each block
    invertible over Z4; block i yields the nonlinear permutation
    x -> gray(ungray(x) . (M_i^T)^-1).
    """
    k, n = c.k, c.n
    if n != t * k:
        raise ValueError(f"length {n} is not t*k = {t}*{k}")
    if not c.free:
        raise ValueError("unsupported: code is not free")
    if c.gen.take_columns(range(k)) != Z4Matrix.identity(k):
        raise ValueError("generator is not in systematic (I | M...) form")
    # the inputs x are the Gray images of all messages u, and x maps to
    # the Gray image of u . M^-1, with u in the same order on both sides
    inputs = _gray_words(Z4Matrix.identity(k))
    out = []
    for b in range(1, t):
        block = c.gen.take_columns(range(b * k, (b + 1) * k))
        minv = z4_invert(block.transpose())
        if minv is None:
            raise ValueError("inconsistent partition: block is singular over Z4")
        table = np.empty_like(inputs)
        table[inputs] = _gray_words(minv)
        out.append(BooleanPermutation(2 * k, table.tolist()))
    return out
