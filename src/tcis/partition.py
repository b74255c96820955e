"""Splitting code coordinates into pairwise disjoint information sets.

The positive branch returns t index sets, each of size k with an invertible
generator submatrix.  The negative branch returns a column set S whose size
exceeds t times its rank, which certifies that no such splitting can exist:
any valid splitting would have to place the columns of S into t independent
pieces, impossible once |S| > t * rank(S).

The walk is matroid partitioning by augmenting exchange chains (Edmonds,
"Minimum partition of a matroid into independent subsets", 1965; Knuth,
"Matroid partitioning", 1973).  It holds every column set as an int bit
mask, bit j for column j, and keeps every closure it computes, since its
span chain asks for the same ones again and again.

Column j lies in the span of the columns S iff every codeword that vanishes
on S vanishes at j too, so the closure of S is where the residual rows of
S, a basis of that subcode, are all zero; the residual rows of the empty
set are the rows of G.  Almost every set the walk closes is one it closed
before plus a column j, which costs one elimination step: the first
residual row with bit j is added to every other row with bit j and dropped.

A full set spans all columns, so a chain step over a leading full set can
neither place, swap nor find a violation, and full sets only ever swap: each
chain starts past them.  An insertion that needs no swap costs O(1) chain
steps, not O(t), and one elimination step on at most k residual rows.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import LinearCode
from .gf2 import CertificateError, Echelon, Infeasible

__all__ = [
    "Partition",
    "Violation",
    "t_cis_partition",
    "exhaustive_partition_oracle",
    "EXHAUSTIVE_N_CAP",
]

EXHAUSTIVE_N_CAP = 18


@dataclass(frozen=True)
class Partition:
    """Positive certificate: disjoint information sets covering all columns."""

    sets: tuple[tuple[int, ...], ...]

    @property
    def is_partition(self) -> bool:
        return True


@dataclass(frozen=True)
class Violation:
    """Negative certificate: a column set with |S| > t * rank(S)."""

    columns: tuple[int, ...]
    rank: int
    t: int

    @property
    def is_partition(self) -> bool:
        return False


def _check_partition(cols: list[int], k: int, sets) -> None:
    """Raise unless sets are disjoint information sets covering all columns."""
    seen: set[int] = set()
    for s in sets:
        if len(s) != k or seen & set(s) or Echelon(cols[j] for j in s).rank != k:
            raise CertificateError(f"set {s} is not a fresh information set")
        seen |= set(s)
    if len(seen) != len(cols):
        raise CertificateError(f"sets cover {len(seen)} of {len(cols)} columns")


def _members(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _eliminate(rows: list[int], j: int) -> list[int]:
    """One elimination step: the residual rows that also vanish at column j."""
    for i, p in enumerate(rows):
        if p >> j & 1:
            return rows[:i] + [r ^ p if r >> j & 1 else r for r in rows[i + 1:]]
    return rows


def t_cis_partition(c: LinearCode, t: int) -> Partition | Violation:
    """Split the n = t*k columns into t information sets, or certify failure.

    Runs the matroid base-partition exchange walk: each unassigned column
    is pushed into the partial sets along an augmenting chain of swaps.
    The span chain S_0 = all, S_j = closure(I_{j'} ∩ S_{j-1}) shrinks while
    the walk runs; if some S_j has |S_j| > t * rank(S_j) that set is a
    proof of impossibility and is returned as a Violation.

    Either certificate is re-verified before being returned.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if c.n != t * c.k:
        raise ValueError(f"length {c.n} is not t*k = {t}*{c.k}")
    n, k = c.n, c.k
    cols = c.gen.columns()
    sets = [0] * t
    full = 0  # sets[:full] hold k columns each, so they span everything
    assigned = 0
    everything = (1 << n) - 1
    # the matroid is fixed, so a closure, once computed, holds for the
    # whole walk; the same intersections recur across chain steps and swaps
    closures: dict[int, int] = {}
    resid: dict[int, list[int]] = {0: list(c.gen.rows)}

    def closure(s: int) -> int:
        # one step from a cached set with one column fewer, else from G;
        # highest column first, as the walk places columns in ascending order
        rest = s
        while rest:
            j = rest.bit_length() - 1
            rows = resid.get(s ^ (1 << j))
            if rows is not None:
                rows = _eliminate(rows, j)
                break
            rest ^= 1 << j
        else:
            rows = resid[0]
            for j in _members(s):
                rows = _eliminate(rows, j)
        resid[s] = rows
        support = 0
        for r in rows:
            support |= r
        return everything & ~support

    def violation(s: int, r: int) -> Violation:
        v = Violation(tuple(_members(s)), r, t)
        size = len(v.columns)
        if Echelon(cols[j] for j in v.columns).rank != r or size <= t * r:
            raise CertificateError(f"{size} columns of rank {r} are no violation")
        return v

    while assigned != everything:
        x = (~assigned & (assigned + 1)).bit_length() - 1
        while sets[full].bit_count() == k:  # some set has room for x
            full += 1
        for _ in range(n * k):  # swaps per insertion; cycling would be a bug
            # Walk the span chain S_0 = all, S_j = closure(I_idx ∩ S_{j-1}),
            # counting the leading full sets as steps that left S_j = all.
            # The chain only shrinks; a full round without shrinking while
            # x stays inside forces the violation branch, so it terminates.
            prev, stable, j = everything, full, full
            while True:
                idx = j % t
                j += 1
                inter = prev & sets[idx]
                cur = closures.get(inter)
                if cur is None:
                    cur = closures[inter] = closure(inter)
                cur_rank = inter.bit_count()  # inter is independent, hence a basis
                if cur.bit_count() > t * cur_rank:
                    return violation(cur, cur_rank)
                if not (cur >> x) & 1:
                    # x extends sets[idx] or closes a circuit with the basis
                    # columns named by comb; outside span(inter) it can only
                    # do the latter when inter is not all of sets[idx]
                    comb = None
                    if inter != sets[idx]:
                        basis = _members(sets[idx])
                        comb = Echelon(cols[i] for i in basis).express(cols[x])
                    if comb is None:
                        sets[idx] |= 1 << x
                        assigned |= 1 << x
                    else:
                        # bump the smallest circuit column outside the
                        # previous span and re-run the walk for that column
                        circuit = sum(1 << basis[i] for i in _members(comb))
                        cand = circuit & ~prev
                        if not cand:
                            raise RuntimeError(
                                "exchange walk found no swappable circuit "
                                "column; this contradicts the walk invariant"
                            )
                        y = (cand & -cand).bit_length() - 1
                        swap = (1 << x) | (1 << y)
                        sets[idx] ^= swap
                        assigned ^= swap
                        x = y
                    break
                stable = stable + 1 if cur == prev else 0
                if stable >= t:
                    raise RuntimeError(
                        "span chain stabilized with x inside and no "
                        "violation; this contradicts the walk invariant"
                    )
                prev = cur
            if assigned >> x & 1:  # placed; a swap leaves the new x out
                break
        else:
            raise RuntimeError("exchange walk exceeded its swap guard")
    result = Partition(tuple(tuple(_members(s)) for s in sets))
    _check_partition(cols, k, result.sets)
    return result


def exhaustive_partition_oracle(c: LinearCode, t: int) -> Partition | None:
    """Backtracking search over all block choices; correctness oracle only.

    Exponential in n, so refuses beyond n = 18.  Returns one partition or
    None when none exists.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if c.n != t * c.k:
        raise ValueError(f"length {c.n} is not t*k = {t}*{c.k}")
    if c.n > EXHAUSTIVE_N_CAP:
        raise Infeasible(f"length {c.n} exceeds oracle cap {EXHAUSTIVE_N_CAP}")
    cols = c.gen.columns()
    k = c.k

    def blocks_from(avail: list[int]):
        # All independent k-subsets of avail that contain avail[0], to
        # kill the ordering symmetry between blocks.  Each depth carries
        # the span of its chosen columns as a set of vectors, so a column
        # is independent of them iff it lies outside that set.
        first = avail[0]
        chosen = [first]

        def grow(start: int, span: set[int]):
            if len(chosen) == k:
                yield list(chosen)
                return
            for pos in range(start, len(avail)):
                v = cols[avail[pos]]
                if v not in span:
                    chosen.append(avail[pos])
                    yield from grow(pos + 1, span | {u ^ v for u in span})
                    chosen.pop()

        if cols[first]:  # a zero first column starts none
            yield from grow(1, {0, cols[first]})

    solution: list[tuple[int, ...]] = []

    def search(avail: list[int]) -> bool:
        if not avail:
            return True
        for block in blocks_from(avail):
            solution.append(tuple(block))
            rest = [j for j in avail if j not in block]
            if search(rest):
                return True
            solution.pop()
        return False

    if search(list(range(c.n))):
        result = Partition(tuple(solution))
        _check_partition(cols, k, result.sets)
        return result
    return None
