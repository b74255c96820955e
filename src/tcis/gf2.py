"""Linear algebra and polynomial arithmetic over GF(2).

Vectors are plain Python ints: bit j holds coordinate j, so the leftmost
character of a printed vector string is bit 0.  Matrices store one int per
row under the same convention.  Polynomials are ints with bit j holding the
coefficient of x**j.

Every rank, span, solve, basis and inverse question is answered by one
elimination kernel, :class:`Echelon`: a table holding one reduced row per
leading bit, each carrying the combination of inputs that sums to it, so it
expresses vectors over its inputs; an inverse expresses the unit vectors.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "Infeasible",
    "CertificateError",
    "BitMatrix",
    "Echelon",
    "parity_dot",
    "vec_from_str",
    "vec_to_str",
    "rank",
    "invert",
    "gl2_size",
    "poly_divmod",
    "poly_mod",
    "poly_gcd",
    "x_pow_minus_one",
    "POLY_DEGREE_CAP",
]

POLY_DEGREE_CAP = 4096


class Infeasible(RuntimeError):
    """An operation refused to start because it would blow its size guard."""


class CertificateError(RuntimeError):
    """A computed result failed its own re-verification; this is a bug."""


def parity_dot(a: int, b: int) -> int:
    """Inner product of two bit vectors, i.e. parity of the AND."""
    return (a & b).bit_count() & 1


def vec_from_str(s: str) -> int:
    """Parse a 0/1 string, leftmost character becoming bit 0."""
    v = 0
    for j, ch in enumerate(s):
        if ch == "1":
            v |= 1 << j
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r} in {s!r}")
    return v


def vec_to_str(v: int, n: int) -> str:
    if v < 0 or v >> n:
        raise ValueError(f"vector {v} does not fit in {n} bits")
    return "".join("1" if (v >> j) & 1 else "0" for j in range(n))


class BitMatrix:
    """Dense matrix over GF(2) with int-packed rows."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows: Iterable[int], ncols: int):
        rows = tuple(rows)
        if not rows or ncols <= 0:
            raise ValueError("matrix must have at least one row and one column")
        for r in rows:
            if r < 0 or r >> ncols:
                raise ValueError(f"row {r} does not fit in {ncols} columns")
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = rows

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls([1 << i for i in range(k)], k)

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BitMatrix":
        if not lines:
            raise ValueError("no rows given")
        n = len(lines[0])
        if any(len(s) != n for s in lines):
            raise ValueError("rows have unequal lengths")
        return cls([vec_from_str(s) for s in lines], n)

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    def row(self, i: int) -> int:
        return self._rows[i]

    def entry(self, i: int, j: int) -> int:
        return (self._rows[i] >> j) & 1

    def column(self, j: int) -> int:
        """Column j packed into an int, bit i holding the entry of row i."""
        c = 0
        for i, r in enumerate(self._rows):
            c |= ((r >> j) & 1) << i
        return c

    def columns(self) -> list[int]:
        """Every column as by ``column``, in one pass over the set bits."""
        cols = [0] * self.ncols
        for i, r in enumerate(self._rows):
            bit = 1 << i
            while r:
                j = r.bit_length() - 1
                cols[j] |= bit
                r ^= 1 << j
        return cols

    def to_strings(self) -> list[str]:
        return [vec_to_str(r, self.ncols) for r in self._rows]

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.columns(), self.nrows)

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        return BitMatrix(map(other.vec_mul, self._rows), other.ncols)

    def vec_mul(self, v: int) -> int:
        """Row vector times matrix."""
        acc = 0
        x = v
        while x:
            i = (x & -x).bit_length() - 1
            acc ^= self._rows[i]
            x &= x - 1
        return acc

    def vec_mul_table(self) -> list[int]:
        """vec_mul of every x in 0 .. 2^nrows - 1, in order, by XOR doubling:
        the entries with bit i set are the first 2^i entries XOR row i."""
        tab = [0]
        for r in self._rows:
            tab += [v ^ r for v in tab]
        return tab

    def take_columns(self, idx: Sequence[int]) -> "BitMatrix":
        out = []
        for r in self._rows:
            v = 0
            for pos, j in enumerate(idx):
                v |= ((r >> j) & 1) << pos
            out.append(v)
        return BitMatrix(out, len(idx))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"BitMatrix({list(self._rows)!r}, ncols={self.ncols})"


class Echelon:
    """Row-echelon table over GF(2): one stored row per leading bit.

    Built from a sequence of vectors (insert appends one more), it stores
    each vector that is independent of those before it; pivots lists their
    positions.  Every stored row carries its combination, the mask of the
    inserted positions that sum to it, set by the reduction that stores
    the row, so express(v) is one more reduction that XORs those masks.
    """

    __slots__ = ("_rows", "_masks", "_size", "pivots")

    def __init__(self, vectors: Iterable[int] = ()):
        self._rows: dict[int, int] = {}
        self._masks: dict[int, int] = {}
        self._size = 0
        self.pivots: list[int] = []
        self._store(vectors)

    def _store(self, vectors: Iterable[int]) -> bool:
        # one loop over the whole sequence; a nonzero remainder becomes the
        # row of its leading bit, its mask the positions that sum to it.
        # True when some vector was stored.
        rows, masks, pivots = self._rows, self._masks, self.pivots
        rank = len(rows)
        j = self._size
        for v in vectors:
            m = 1 << j
            while v:
                b = v.bit_length() - 1
                r = rows.get(b)
                if r is None:
                    rows[b] = v
                    masks[b] = m
                    pivots.append(j)
                    break
                v ^= r
                m ^= masks[b]
            j += 1
        self._size = j
        return len(rows) > rank

    def insert(self, v: int) -> bool:
        """Append v; True when it was independent and is now stored."""
        return self._store((v,))

    def reduce(self, v: int) -> int:
        """Remainder of v after elimination; zero exactly on the span."""
        rows = self._rows
        while v and (r := rows.get(v.bit_length() - 1)) is not None:
            v ^= r
        return v

    def __contains__(self, v: int) -> bool:
        return not self.reduce(v)

    def express(self, v: int) -> int | None:
        """Mask of the pivots summing to v, bit i for position i; None off the span."""
        rows, masks = self._rows, self._masks
        m = 0
        while v:
            b = v.bit_length() - 1
            r = rows.get(b)
            if r is None:
                return None
            v ^= r
            m ^= masks[b]
        return m

    @property
    def rank(self) -> int:
        return len(self._rows)


def rank(m: BitMatrix) -> int:
    return Echelon(m.rows).rank


def invert(m: BitMatrix) -> BitMatrix | None:
    """Inverse of a square matrix, or None when singular; row i expresses e_i."""
    if m.nrows != m.ncols:
        raise ValueError("matrix is not square")
    span = Echelon(m.rows)
    if span.rank < m.nrows:
        return None
    return BitMatrix([span.express(1 << i) for i in range(m.ncols)], m.ncols)


def gl2_size(k: int) -> int:
    """Order of the group of invertible k x k matrices over GF(2)."""
    out = 1
    for i in range(k):
        out *= (1 << k) - (1 << i)
    return out


def _check_poly(p: int) -> None:
    if p < 0:
        raise ValueError("negative polynomial encoding")
    if p.bit_length() - 1 > POLY_DEGREE_CAP:
        raise Infeasible(f"polynomial degree exceeds cap {POLY_DEGREE_CAP}")


def poly_divmod(p: int, q: int) -> tuple[int, int]:
    _check_poly(p)
    _check_poly(q)
    if q == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dq = q.bit_length() - 1
    quo, rem = 0, p
    while rem.bit_length() - 1 >= dq and rem:
        shift = rem.bit_length() - 1 - dq
        quo |= 1 << shift
        rem ^= q << shift
    return quo, rem


def poly_mod(p: int, q: int) -> int:
    return poly_divmod(p, q)[1]


def poly_gcd(p: int, q: int) -> int:
    """Monic gcd of two GF(2) polynomials; gcd(p, 0) = p, gcd(0, 0) errors."""
    _check_poly(p)
    _check_poly(q)
    if p == 0 and q == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while q:
        p, q = q, poly_mod(p, q)
    return p


def x_pow_minus_one(m: int) -> int:
    """The polynomial x**m + 1 (same as x**m - 1 over GF(2))."""
    if m <= 0:
        raise ValueError("exponent must be positive")
    if m > POLY_DEGREE_CAP:
        raise Infeasible(f"polynomial degree exceeds cap {POLY_DEGREE_CAP}")
    return (1 << m) | 1
