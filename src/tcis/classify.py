"""Column-permutation equivalence, canonical forms, and classification.

The canonical form of a code is the lexicographically least level
sequence: scanning canonical columns left to right, level l compares the
sorted multiset of codeword prefixes on the first l columns.  The result
is the sorted codeword tuple in canonical column order, which two codes
share exactly when one is a column permutation of the other.

The search reads level sequences off count vectors.  Take an ordered
basis B = (b_1 .. b_k) of column values and let m_B(x) count the columns
whose coordinates in B are x, b_1 in bit 0.  Sorting the columns by
(coordinate, index) gives a column order whose level sequence depends on
m_B alone: at rank r a column in the span of the first r basis columns
splits no refinement block, and its signature is set by its coordinates,
whose order is signature order, while a column outside that span halves
every block and sorts after all of them.  So sequences compare as their
count vectors do, read from x = 0 upward with more copies first, and the
canonical form is that of the greatest count vector over ordered bases.

The digits x with top bit r are the counts of b_(r+1) + span(b_1 .. b_r),
so they are fixed once b_1 .. b_(r+1) are.  Of two bases that agree up to
b_r, the one with the greater such digits has the greater count vector,
whatever follows, so the depth-first search packs those 2^r digits of
each candidate b_(r+1) into one integer and prunes every branch that
scores below the best at its rank.  The witness order is that of the
first leaf tying the best, candidates taken by first index; the tying
leaves are the automorphisms up to swaps of equal columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import (chain, combinations, combinations_with_replacement, islice,
                       permutations)
from math import comb, factorial, prod

import numpy as np

from .codes import LinearCode, is_self_orthogonal, min_distance, weight_distribution
from .gf2 import BitMatrix, CertificateError, Echelon, Infeasible, gl2_size
from .partition import _check_partition

__all__ = [
    "CanonicalCode",
    "canonical_form",
    "equivalent",
    "enumerate_cat",
    "cat_classes",
    "ClassTableRow",
    "classify_tcis",
    "class_table_text",
    "CANONICAL_N_CAP",
    "CANONICAL_WORDS_CAP",
    "CAT_MULTISET_CAP",
]

CANONICAL_N_CAP = 15
CANONICAL_WORDS_CAP = 64
# (3, 7) keys 1,107,568 multisets in 0.49 s on a 2-core Xeon; (3, 8) would key 5,379,616
CAT_MULTISET_CAP = 1 << 21


@dataclass(frozen=True)
class CanonicalCode:
    """Canonical sorted-codeword tuple plus one witnessing column order.

    form[i] packs codeword i with canonical column 0 as the most
    significant bit; perm[j] is the source column at canonical position j.
    aut_order is |PAut|, the number of column permutations fixing the code.
    """

    n: int
    k: int
    form: tuple[int, ...]
    perm: tuple[int, ...]
    aut_order: int


def canonical_form(c: LinearCode) -> CanonicalCode:
    """The greatest count vector's form, witness order and |PAut|, by a
    depth-first search that scores one rank at a time (module docstring)."""
    n, k = c.n, c.k
    if n > CANONICAL_N_CAP or (1 << k) > CANONICAL_WORDS_CAP:
        raise Infeasible(
            f"[{n},{k}] outside canonicalization caps "
            f"(n <= {CANONICAL_N_CAP}, 2^k <= {CANONICAL_WORDS_CAP})"
        )
    gcol = c.gen.columns()
    mult = [0] * (1 << k)
    for g in gcol:
        mult[g] += 1
    width = n.bit_length()  # a digit holds any count up to n
    best = [-1] * k  # best score per rank on the current best path
    # vecs of the first leaf tying the best, and the leaves tying it
    leaf: list = [[0], 1]

    def rec(vecs: list[int], free: list[int]):
        # vecs[x] is the vector with coordinates x in the chosen basis, first
        # vector in bit 0; free lists the column values outside their span,
        # by first index
        r = len(vecs).bit_length() - 1
        scores = []
        for g in free:
            s = 0
            for v in vecs:
                s = s << width | mult[v ^ g]
            scores.append(s)
        top = max(scores)
        if top < best[r]:
            return
        if top > best[r]:
            best[r] = top
            best[r + 1 :] = [-1] * (k - r - 1)
            leaf[:] = None, 0
        ties = [g for g, s in zip(free, scores) if s == top]
        if r + 1 == k:  # each tie completes a basis
            if leaf[0] is None:
                leaf[0] = vecs + [v ^ ties[0] for v in vecs]
            leaf[1] += len(ties)
            return
        for g in ties:
            ext = [v ^ g for v in vecs]
            out = set(ext)
            rec(vecs + ext, [h for h in free if h not in out])

    free = [g for g in dict.fromkeys(gcol) if g]
    if free:
        rec([0], free)
    vecs, leaves = leaf
    coords = {v: x for x, v in enumerate(vecs)}
    perm = tuple(sorted(range(n), key=lambda j: (coords[gcol[j]], j)))
    # canonical column 0 is the most significant bit of each packed word
    form = c.gen.take_columns(perm[::-1]).vec_mul_table()
    # tying leaves are the automorphisms up to swaps of identical columns
    aut_order = leaves * prod(map(factorial, mult))
    return CanonicalCode(n, k, tuple(sorted(form)), perm, aut_order)


def equivalent(a: LinearCode, b: LinearCode) -> bool:
    """Column-permutation equivalence, with a weight-distribution fast path."""
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError(f"shape mismatch: [{a.n},{a.k}] vs [{b.n},{b.k}]")
    if weight_distribution(a) != weight_distribution(b):
        return False
    return canonical_form(a).form == canonical_form(b).form


def _basis_sets(k: int) -> list[tuple[int, ...]]:
    # all unordered bases of F_2^k, columns as ints, sorted ascending
    return [c for c in combinations(range(1, 1 << k), k) if Echelon(c).rank == k]


@cache
def _cat_images(k: int) -> tuple:
    """The unordered bases of F_2^k and images[p, x], vector x with its
    coordinates moved by the p-th permutation; one read-only copy per k."""
    bases = tuple(_basis_sets(k))
    perms = np.array(list(permutations(range(k))))
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    images = (bits[None] << perms[:, None, :]).sum(axis=2).astype(np.uint8)
    images.flags.writeable = False
    return bases, images


@cache
def _basis_arrays(k: int) -> tuple:
    """columns[b], the columns of basis b as in _cat_images, and
    inverse[b, x], the coordinates of x in basis b; read-only."""
    bases, _ = _cat_images(k)
    columns = np.array(bases, dtype=np.uint8)
    # fwd[b, y] = B_b y, the combination of the columns picked by y
    fwd = np.zeros((len(bases), 1), dtype=np.uint8)
    for i in range(k):
        fwd = np.concatenate([fwd, fwd ^ columns[:, i : i + 1]], axis=1)
    inverse = np.argsort(fwd, axis=1).astype(np.uint8)
    columns.flags.writeable = inverse.flags.writeable = False
    return columns, inverse


@cache
def _cat_weights(k: int, digits: int) -> np.ndarray:
    """weights[p, x]: the digit of x, moved by the p-th permutation of
    _cat_images, in count vectors packed `digits` bits per nonzero vector,
    vector 1 the most significant; 0 for x = 0.  Read-only."""
    width = digits * ((1 << k) - 1)
    if width > 64:
        raise Infeasible(f"k={k}: Cat keys of {digits}-bit counts need {width} > 64 bits")
    images = _cat_images(k)[1].astype(np.uint64)
    weights = (np.uint64(1) << width - digits * images) * (images > 0)
    weights.flags.writeable = False
    return weights


@cache
def _basis_sums(k: int, digits: int) -> np.ndarray:
    """sums[p, b]: the _cat_weights count vector of basis b, its columns
    moved by the p-th permutation; read-only."""
    sums = _cat_weights(k, digits)[:, _basis_arrays(k)[0]].sum(axis=2)
    sums.flags.writeable = False
    return sums


_KEY_BYTES = 1 << 18  # bound on the k! x batch x width x 8 bytes of keying scratch


def _multiset_keys(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cat key of each row of rows, an (M, w) array indexing the last axis
    of table: _cat_weights for rows of columns, _basis_sums for rows of bases.

    The key is the greatest over the k! coordinate permutations of the row's
    packed count vector, carry-free while no column occurs more often than a
    digit holds.  Of two multisets of one size, the one with more copies of
    the first vector their counts differ on has the smaller sorted column
    sequence, so keys descend where least sorted sequences ascend.
    """
    keys = np.empty(len(rows), dtype=np.uint64)
    step = max(1, _KEY_BYTES // (table.shape[0] * rows.shape[1] * 8))
    for lo in range(0, len(rows), step):
        table[:, rows[lo : lo + step].T].sum(axis=1).max(axis=0, out=keys[lo : lo + step])
    return keys


def _cat_refusal(k: int, t: int, forms: bool) -> None:
    """Refuse what the Cat route cannot answer, before any table is built:
    k < 1 or t < 2 as domain errors; when canonical forms are to be taken,
    lengths tk past CANONICAL_N_CAP; and more than CAT_MULTISET_CAP
    multisets of t-1 of the b = |GL(k,2)|/k! unordered bases of F_2^k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if t < 2:
        raise ValueError("t must be at least 2")
    if forms and t * k > CANONICAL_N_CAP:
        raise Infeasible(f"length {t * k} exceeds canonicalization cap {CANONICAL_N_CAP}")
    multisets = comb(gl2_size(k) // factorial(k) + t - 2, t - 1)
    if multisets > CAT_MULTISET_CAP:
        raise Infeasible(
            f"k={k}, t={t}: {multisets} multisets of bases exceed cap {CAT_MULTISET_CAP}"
        )


def _cat_first(k: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, combos): each Cat key of t-1 bases of F_2^k, greatest first, and
    its first multiset in combinations_with_replacement order, as basis
    indices; behind _cat_refusal."""
    bases, _ = _cat_images(k)
    multisets = comb(len(bases) + t - 2, t - 1)
    if t == 2:  # key the columns: a k! x bases sums table is 80 MB at k = 5
        keys, first = np.unique(
            _multiset_keys(_cat_weights(k, 1), _basis_arrays(k)[0]), return_index=True
        )
        return keys[::-1], first[::-1, None]
    # a column occurs at most once per basis, so t-1 times in a multiset
    sums = _basis_sums(k, (t - 1).bit_length())
    step = max(1, _KEY_BYTES // (sums.shape[0] * (t - 1) * 8))
    walk = combinations_with_replacement(range(len(bases)), t - 1)
    keys = first = None
    for _ in range(0, multisets, step):
        combos = np.fromiter(
            chain.from_iterable(islice(walk, step)), dtype=np.intp
        ).reshape(-1, t - 1)
        new, at = np.unique(_multiset_keys(sums, combos), return_index=True)
        if keys is None:
            keys, first = new, combos[at]
            continue
        # only keys no earlier batch had join, in key order
        pos = np.searchsorted(keys, new)
        fresh = keys[np.minimum(pos, len(keys) - 1)] != new
        if fresh.any():
            keys = np.insert(keys, pos[fresh], new[fresh])
            first = np.insert(first, pos[fresh], combos[at[fresh]], axis=0)
    return keys[::-1], first[::-1]


def enumerate_cat(k: int, t: int = 3):
    """Invertible-block concatenations up to row and column permutation.

    A class is determined by the multiset of the k(t-1) columns up to
    permuting the k coordinates, so classes are enumerated as multisets
    of unordered bases and deduplicated by their Cat key, the greatest
    over the k! coordinate permutations of the multiset's count vector
    (copies of each nonzero vector, vector 1 first) packed into one
    integer; the first multiset seen with a key represents it.  Returns
    (count, representatives) greatest key first, the order of their least
    sorted column sequences (see _multiset_keys); each representative is
    a tuple of t-1 bases whose concatenation realizes the class.  Refuses
    more than CAT_MULTISET_CAP multisets, and with it every k >= 6.
    """
    _cat_refusal(k, t, forms=False)
    _, first = _cat_first(k, t)
    bases, _ = _cat_images(k)
    reps = [tuple(bases[bi] for bi in combo) for combo in first.tolist()]
    return len(reps), reps


@dataclass(frozen=True)
class ClassTableRow:
    """One classification summary line: per-d (self-orthogonal, other) counts."""

    length: int
    by_d: tuple[tuple[int, tuple[int, int]], ...]

    @property
    def total(self) -> int:
        return sum(so + nso for _, (so, nso) in self.by_d)

    def cell(self, d: int) -> str:
        for dd, (so, nso) in self.by_d:
            if dd == d:
                return f"{so + nso} ({so}+{nso})"
        return "0"


def _blocks_code(k: int, blocks) -> LinearCode:
    cols = [1 << i for i in range(k)] + [col for basis in blocks for col in basis]
    return LinearCode(BitMatrix(cols, k).transpose())


def _basis_tables(k: int, bases):
    """Per-basis appended-block encodings, as numpy arrays.

    enc[b, u] packs the appended bits of message u under basis b, bwt is
    its weight, vbits[b, u, i] the single bit of appended column i, and
    vpairs[b, u, p] the product of appended columns p = (i, i2), i <= i2,
    in upper-triangle order.
    """
    enc = np.array(
        [BitMatrix(basis, k).transpose().vec_mul_table() for basis in bases],
        dtype=np.int64,
    )
    vbits = ((enc[:, :, None] >> np.arange(k)) & 1).astype(np.uint8)  # (Nb, kk, k)
    bwt = vbits.sum(axis=2, dtype=np.uint8)  # (Nb, kk)
    iu, ju = np.triu_indices(k)
    vpairs = vbits[:, :, iu] * vbits[:, :, ju]  # (Nb, kk, k(k+1)/2)
    return enc, bwt, vbits, vpairs


_MIX = np.int64(-7046029254386353131)  # odd 64-bit mixing constant
_MIX2 = np.int64(-4417276706812531889)


def _stage2_keys(wt, p_lo, p_hi):
    """Column-profile keys from packed pair-count matrices, batched.

    wt is the (C, nw) codeword-weight table and p_lo/p_hi the (C, n, n)
    symmetric matrices whose entry (j, i) encodes, base 64, how many
    codewords of each weight contain both columns; shells 0..7 sit in
    p_lo, 8..15 in p_hi.  Each column's diagonal entry plus its sorted
    off-diagonal profile is hash-mixed into one int64, the mixed values
    are sorted (a deterministic stand-in for sorting the profiles
    themselves), and the result lands next to the sorted weight table in
    one key row per candidate.
    """
    c, n, _ = p_lo.shape
    # int64 products wrap around; that is fine, the mixes only need to be
    # deterministic
    h = p_lo.astype(np.int64) * _MIX + p_hi.astype(np.int64)
    off = np.arange(n)
    offidx = np.array([[j2 for j2 in range(n) if j2 != j] for j in off])
    rows = np.take_along_axis(h, np.broadcast_to(offidx, (c, n, n - 1)), axis=2)
    rows = np.sort(rows, axis=2)
    sig = h[:, off, off].copy()  # diagonal = per-shell column counts
    for t in range(n - 1):
        sig = sig * _MIX2 + rows[:, :, t]
    sig = np.sort(sig, axis=1)
    wts = np.sort(wt, axis=1).astype(np.uint8)
    return np.concatenate(
        [wts, sig.view(np.uint8).reshape(c, 8 * n)], axis=1
    )


def _classify_fast_t3(k: int):
    """Two-stage growth with invariant-key deduplication (t = 3).

    Appends one invertible block per stage to the identity and
    deduplicates.  Stage 1 classifies the (I | B) prefixes exactly: bases
    in one Cat orbit give equivalent codes, so one canonical form per
    orbit, taken on its first basis, classes every basis.  Stage 2
    recognizes duplicates by a permutation-invariant key instead of full
    canonicalization.  The key combines the codeword-weight multiset
    with, for every column pair, the number of codewords of each weight
    containing both columns; everything is preserved by column
    permutation and basis change, so members of one class always
    collide, and key collisions could only merge inequivalent classes
    and lower the count, never inflate it.
    Block order is normalized by requiring the second block's stage-1
    class index to be at least the first's: a class whose least
    first-slot index over all its systematic forms is i has a form
    (I | R_i | B) built on the chosen stage-1 representative R_i, and
    swapping the blocks shows cls(B) >= i, so the restriction loses
    nothing.
    """
    kk = 1 << k
    n0, n = 2 * k, 3 * k
    bases, _ = _cat_images(k)
    enc, bwt, vbits, vpairs = _basis_tables(k, bases)

    # stage 1: classes of (I | B), numbered by their first basis, one
    # canonical form per Cat key
    keys = _multiset_keys(_cat_weights(k, 1), _basis_arrays(k)[0]).tolist()
    stage1: dict[tuple, int] = {}
    orbit_cls: dict[int, int] = {}
    reps1: list[int] = []
    cls_of = np.zeros(len(bases), dtype=np.int64)
    for bi, key in enumerate(keys):
        if key not in orbit_cls:
            form = canonical_form(_blocks_code(k, (bases[bi],))).form
            orbit_cls[key] = stage1.setdefault(form, len(reps1))
            if orbit_cls[key] == len(reps1):
                reps1.append(bi)
        cls_of[bi] = orbit_cls[key]

    pow64 = np.float64(64.0) ** np.arange(8)
    iu, ju = np.triu_indices(k)
    seen: dict[bytes, tuple[int, int]] = {}
    for i, ai in enumerate(reps1):
        words = [int(u | (enc[ai, u] << k)) for u in range(kk)]
        wt0 = np.array([w.bit_count() for w in words], dtype=np.int64)
        mf = np.array(
            [[(w >> j) & 1 for j in range(n0)] for w in words], dtype=np.float64
        )
        ff = (mf[:, :, None] * mf[:, None, :]).reshape(kk, n0 * n0)
        cand = np.nonzero(cls_of >= i)[0]
        for lo in range(0, len(cand), 8192):
            idx = cand[lo : lo + 8192]
            c = len(idx)
            wt = wt0[None, :] + bwt[idx].astype(np.int64)  # (C, kk)
            val_lo = np.where(wt < 8, pow64[np.minimum(wt, 7)], 0.0)
            val_hi = np.where(wt >= 8, pow64[np.maximum(wt - 8, 0)], 0.0)
            vb = vbits[idx].astype(np.float64)  # (C, kk, k)
            vp = vpairs[idx].astype(np.float64)  # (C, kk, pairs)
            p = [np.empty((c, n, n)), np.empty((c, n, n))]
            for h, val in enumerate((val_lo, val_hi)):
                p[h][:, :n0, :n0] = (val @ ff).reshape(c, n0, n0)
                fa = np.tensordot(val[:, :, None] * vb, mf, axes=([1], [0]))
                p[h][:, n0:, :n0] = fa  # (C, k, n0)
                p[h][:, :n0, n0:] = fa.transpose(0, 2, 1)
                aa = (val[:, :, None] * vp).sum(axis=1)  # (C, pairs)
                p[h][:, n0 + iu, n0 + ju] = aa
                p[h][:, n0 + ju, n0 + iu] = aa
            keys = _stage2_keys(wt, p[0], p[1])
            for row, bi in zip(keys, idx):
                kb = row.tobytes()
                if kb not in seen:
                    seen[kb] = (ai, int(bi))
    return [
        _blocks_code(k, (bases[ai], bases[bi]))
        for _, (ai, bi) in sorted(seen.items())
    ]


def _rebased_keys(k: int, combos: np.ndarray) -> np.ndarray:
    """keys[i, a]: the Cat key of (I | B_a^-1 | B_a^-1 B_b for b != a) for
    each row i of combos, the bases B_1 .. B_{t-1} of one Cat class, and
    each block a."""
    columns, inverse = _basis_arrays(k)
    m, r = combos.shape
    # moved[:, a, b] is B_b, and I where b = a; through B_a^-1 these give
    # B_a^-1 B_b, and B_a^-1 itself, the image of the identity block
    diag = np.eye(r, dtype=bool)[:, :, None]
    unit = np.uint8(1) << np.arange(k, dtype=np.uint8)
    moved = np.where(diag, unit, columns[combos][:, None])  # (M, a, b, k)
    rebased = inverse[combos[:, :, None], moved.reshape(m, r, -1)]
    keys = _multiset_keys(_cat_weights(k, r.bit_length()), rebased.reshape(m * r, -1))
    return keys.reshape(m, r)


def _orbit_roots(k: int, t: int) -> list[list[int]]:
    """The combo of the least Cat class, in key order, of each orbit that
    rebasing joins, roots in key order; behind _cat_refusal."""
    keys, combos = _cat_first(k, t)
    root = list(range(len(keys)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    if len(keys) > 1:
        # keys descend: count positions back from the end
        at = len(keys) - 1 - np.searchsorted(keys[::-1], _rebased_keys(k, combos))
        for i, j in enumerate(at.ravel().tolist()):
            a, b = find(i // (t - 1)), find(j)
            root[max(a, b)] = min(a, b)
    return [combos[i].tolist() for i in range(len(keys)) if root[i] == i]


def cat_classes(k: int, t: int) -> list[tuple[CanonicalCode, LinearCode]]:
    """(canonical form, code) of every class of t-CIS [tk, k] codes, in form order.

    Row operations by B_a^-1 show (I | B_1 | .. | B_{t-1}) equivalent to
    (I | B_a^-1 | B_a^-1 B_b for b != a), itself a concatenation of
    invertible blocks.  So each Cat class is first joined with the Cat
    classes of its rebasings, the root of each joined orbit being its
    least class in key order.  One concatenation per orbit root is then
    appended to the identity and the results deduplicated by canonical
    form.  The representative of a class is its first Cat class in key
    order, as without the joining: every joined class is equivalent to
    its root, and the root precedes it.  Refuses lengths past
    CANONICAL_N_CAP and more than CAT_MULTISET_CAP multisets of bases.
    """
    _cat_refusal(k, t, forms=True)
    roots = _orbit_roots(k, t)
    bases, _ = _cat_images(k)
    forms: dict[tuple, tuple[CanonicalCode, LinearCode]] = {}
    for combo in roots:
        code = _blocks_code(k, [bases[bi] for bi in combo])
        cf = canonical_form(code)
        forms.setdefault(cf.form, (cf, code))
    return [forms[f] for f in sorted(forms)]


def classify_tcis(k: int, t: int = 3, allow_slow: bool = False):
    """All inequivalent t-CIS codes of length tk, plus the summary row.

    The classes are those of cat_classes, with its refusals.  At k = 5,
    t = 3, past its multiset cap, allow_slow runs the two-stage growth of
    _classify_fast_t3 instead, which takes minutes.
    """
    if allow_slow and (k, t) == (5, 3):
        reps = _classify_fast_t3(k)
    else:
        reps = [code for _, code in cat_classes(k, t)]

    counts: dict[int, list[int]] = {}
    blocks = [tuple(range(a * k, (a + 1) * k)) for a in range(t)]
    for i, code in enumerate(reps):
        try:
            _check_partition(code.gen.columns(), k, blocks)
        except CertificateError as err:
            raise CertificateError(
                f"class {i} of [{t * k},{k}] has no {t}-CIS partition: {err}"
            ) from err
        d = min_distance(code)
        if d < t:
            raise CertificateError(f"class {i} of [{t * k},{k}] has distance {d} < {t}")
        so = is_self_orthogonal(code)
        cell = counts.setdefault(d, [0, 0])
        cell[0 if so else 1] += 1
    row = ClassTableRow(
        t * k, tuple((d, (so, nso)) for d, (so, nso) in sorted(counts.items()))
    )
    return reps, row


def class_table_text(rows) -> str:
    """Render summary rows in the length / per-d cells / total layout."""
    rows = list(rows)
    dvals = sorted({d for r in rows for d, _ in r.by_d})
    header = ["n"] + [f"d={d}" for d in dvals] + ["total"]
    table = [header]
    for r in rows:
        table.append([str(r.length)] + [r.cell(d) for d in dvals] + [str(r.total)])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines)
