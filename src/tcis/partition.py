"""Splitting code coordinates into pairwise disjoint information sets.

The positive branch returns t index sets, each of size k with an invertible
generator submatrix.  The negative branch returns a column set S whose size
exceeds t times its rank, which certifies that no such splitting can exist:
any valid splitting would have to place the columns of S into t independent
pieces, impossible once |S| > t * rank(S).

The walk is matroid partitioning by augmenting exchange chains (Edmonds,
"Minimum partition of a matroid into independent subsets", 1965; Knuth,
"Matroid partitioning", 1973).  Its span chain asks for the closures of
the same column sets again and again across chain steps and swaps, so each
walk computes the closure of each distinct set once and keeps it until
the walk returns.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import LinearCode
from .gf2 import BitMatrix, CertificateError, Echelon, Infeasible, invert

__all__ = [
    "ColumnMatroid",
    "Partition",
    "Violation",
    "t_cis_partition",
    "span_closure",
    "exhaustive_partition_oracle",
    "EXHAUSTIVE_N_CAP",
]

EXHAUSTIVE_N_CAP = 18


class ColumnMatroid:
    """Rank and span queries over the columns of a generator matrix."""

    __slots__ = ("ncols", "cols")

    def __init__(self, m: BitMatrix):
        self.ncols = m.ncols
        self.cols = m.columns()

    def rank_of(self, idx) -> int:
        return Echelon(self.cols[j] for j in idx).rank


def span_closure(m: ColumnMatroid, s) -> frozenset[int]:
    """All column indices lying in the column space spanned by s.

    The empty set spans only zero, so its closure is the zero columns.
    Closure is idempotent and always contains s.
    """
    return frozenset(Echelon([m.cols[j] for j in s]).spanned(m.cols))


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


def _check_partition(c: LinearCode, t: int, sets) -> None:
    seen: set[int] = set()
    for s in sets:
        if len(s) != c.k or seen & set(s) or invert(c.gen.take_columns(s)) is None:
            raise CertificateError(f"set {s} is not a fresh information set")
        seen |= set(s)
    if len(seen) != c.n:
        raise CertificateError(f"sets cover {len(seen)} of {c.n} columns")


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
    matroid = ColumnMatroid(c.gen)
    cols = matroid.cols
    sets: list[set[int]] = [set() for _ in range(t)]
    assigned: set[int] = set()
    everything = frozenset(range(n))
    # the matroid is fixed, so a closure, once computed, holds for the
    # whole walk; the same intersections recur across chain steps and swaps
    closures: dict[frozenset[int], frozenset[int]] = {}

    def violation(s: frozenset[int], r: int) -> Violation:
        v = Violation(tuple(sorted(s)), r, t)
        if matroid.rank_of(v.columns) != r or len(s) <= t * r:
            raise CertificateError(f"{len(s)} columns of rank {r} are no violation")
        return v

    while len(assigned) < n:
        x = min(everything - assigned)
        placed = False
        for _ in range(n * k):  # swaps per insertion; cycling would be a bug
            # Walk the span chain S_0 = all, S_j = closure(I_idx ∩ S_{j-1}).
            # The chain only shrinks; a full round without shrinking while
            # x stays inside forces the violation branch, so it terminates.
            prev, stable = everything, 0
            j = 0
            while True:
                idx = j % t
                j += 1
                inter = prev & sets[idx]
                cur = closures.get(inter)
                if cur is None:
                    cur = closures[inter] = span_closure(matroid, inter)
                cur_rank = len(inter)  # inter is independent, hence a basis
                if len(cur) > t * cur_rank:
                    return violation(cur, cur_rank)
                if x not in cur:
                    # x extends sets[idx] or closes a circuit with the basis
                    # columns named by comb; outside span(inter) it can only
                    # do the latter when inter is not all of sets[idx]
                    basis = list(sets[idx])
                    comb = None
                    if len(inter) < len(basis):
                        comb = Echelon([cols[i] for i in basis]).express(cols[x])
                    if comb is None:
                        sets[idx].add(x)
                        assigned.add(x)
                        placed = True
                    else:
                        # bump the smallest circuit column outside the
                        # previous span and re-run the walk for that column
                        circuit = {
                            basis[i] for i in range(len(basis)) if (comb >> i) & 1
                        }
                        cand = sorted(circuit - prev)
                        if not cand:
                            raise RuntimeError(
                                "exchange walk found no swappable circuit "
                                "column; this contradicts the walk invariant"
                            )
                        y = cand[0]
                        sets[idx].remove(y)
                        sets[idx].add(x)
                        assigned.add(x)
                        assigned.discard(y)
                        x = y
                    break
                stable = stable + 1 if cur == prev else 0
                if stable >= t:
                    raise RuntimeError(
                        "span chain stabilized with x inside and no "
                        "violation; this contradicts the walk invariant"
                    )
                prev = cur
            if placed:
                break
        else:
            raise RuntimeError("exchange walk exceeded its swap guard")
    result = Partition(tuple(tuple(sorted(s)) for s in sets))
    _check_partition(c, t, result.sets)
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
        _check_partition(c, t, result.sets)
        return result
    return None
