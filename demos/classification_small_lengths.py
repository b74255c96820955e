"""
Classifying the 3-CIS codes of lengths 3 through 12
===================================================

Two codes that differ only by permuting coordinates and re-choosing the
basis are the same object; classification means listing one
representative per equivalence class.  A canonical form decides
equivalence outright, a two-layer enumeration produces the classes, and
a printed table summarizes them by minimum distance and
self-orthogonality.
"""

import random

from tcis.classify import (
    canonical_form,
    class_table_text,
    classify_tcis,
    enumerate_cat,
    equivalent,
)
from tcis.codes import LinearCode, min_distance
from tcis.gf2 import BitMatrix

# Equivalence is invisible to the naked eye.  Shuffle the columns of a
# [9,3] code and mix its rows; the canonical form sees through both.
rng = random.Random(7)
code = LinearCode(BitMatrix.from_strings(["100110101", "010101011", "001011110"]))
perm = list(range(9))
rng.shuffle(perm)
shuffled = LinearCode(code.gen.take_columns(perm))
print("same canonical form after shuffling:",
      canonical_form(code).form == canonical_form(shuffled).form)
print("equivalent():", equivalent(code, shuffled))

# A different [9,3] code is told apart just as quickly.
other = LinearCode(BitMatrix.from_strings(["100100100", "010010010", "001001001"]))
print("repetition-style code equivalent to it:", equivalent(code, other))

# Layer one of the enumeration: concatenations of two invertible blocks
# up to row/column permutation ("Cat" classes).  The counts grow fast.
for k in (1, 2, 3):
    count, _ = enumerate_cat(k, 3)
    print(f"Cat classes for k={k}: {count}")

# Layer two prepends the identity block and deduplicates under full
# equivalence, keeping per-class data: every representative is checked
# 3-CIS, and its distance and self-orthogonality feed the summary row.
rows = []
for k in (1, 2, 3):
    reps, row = classify_tcis(k)
    rows.append(row)
    print(f"\nlength {3 * k}: {len(reps)} classes")
    best = max(reps, key=min_distance)
    print(f"  best distance {min_distance(best)}, e.g. generator:")
    for line in best.gen.to_strings():
        print("   ", line)

# The summary table: counts split as "total (self-orthogonal+other)"
# per minimum distance.
print()
print(class_table_text(rows))

# Length 12 follows the same two layers: classify_tcis(4) gives 361
# classes in about a second, and classify_tcis(k, t) takes any t up to
# length 15, e.g. 136 classes at k = 3, t = 5.  At k = 5, t = 3 the
# multisets of bases are too many for the Cat layer, and
# classify_tcis(5, allow_slow=True) gives 29372 classes in about four
# minutes: the Cat layer classifies the first block only, one canonical
# form per orbit of bases, and the second block is deduplicated by
# invariant keys.
