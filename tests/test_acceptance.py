"""Release gate: the must-hold results, one test and verdict line each.

Every test prints "criterion NN: PASS/FAIL — detail" before asserting, so
a -s run shows the full scorecard and -v shows one verdict per criterion.
The all-coprime clause of criterion 06 is expected to fail: see
test_criterion_06_qc_all_blocks_coprime for why no token set with these
parameters can satisfy it.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_code
from tcis.boolfun import (
    BooleanPermutation,
    build_masking_code,
    cip_strength,
    derive_bijections,
    group_convolution,
    hamming_weight_leakage,
    walsh_table,
)
from tcis.classify import canonical_form, classify_tcis, enumerate_cat
from tcis.codes import LinearCode, dual_distance, min_distance
from tcis.construct import BuildUpChoice, build_up, gl2_size, mass_formula_check, qc_build
from tcis.gf2 import BitMatrix, Infeasible, rank
from tcis.partition import exhaustive_partition_oracle, t_cis_partition
from tcis.z4 import gray_image, lee_min_distance, z4_t_cis_partition

# the two derived masking matrices, row i = string, leftmost char = column 0
DERIVED_F1 = (
    "01111011", "10000011", "11001001", "01111101",
    "11001100", "01011000", "01101000", "01110000",
)
DERIVED_F2 = (
    "00101111", "01111111", "00100101", "00011001",
    "01111001", "11001011", "11111000", "11110110",
)

LENGTH_12_ROW = ((3, (0, 170)), (4, (6, 172)), (5, (0, 12)), (6, (0, 1)))
# frozen from a verified run: the 29372 length-15 representatives were all
# canonicalized afterwards and have pairwise distinct canonical forms
LENGTH_15_ROW = ((3, (0, 10904)), (4, (15, 15827)), (5, (0, 2534)), (6, (1, 90)), (7, (0, 1)))


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_masking_pipeline_end_to_end(bk_24_8):
    t0 = time.time()
    d = min_distance(bk_24_8)
    part = t_cis_partition(bk_24_8, 3)
    blocks = tuple(tuple(range(b, b + 8)) for b in (0, 8, 16))
    fs = derive_bijections(bk_24_8, 3)
    rows = [tuple(f.matrix.to_strings()) for f in fs]
    strength = cip_strength(fs[0], fs[1])
    elapsed = time.time() - t0
    ok = (
        d == 8
        and part.is_partition
        and part.sets == blocks
        and rows == [DERIVED_F1, DERIVED_F2]
        and strength == 7
        and elapsed < 30
    )
    verdict(1, ok, f"d={d}, block partition, bit-exact bijections, "
                   f"strength={strength}, {elapsed:.2f}s")


def test_criterion_02_classification_table(classification):
    rows = {}
    for k in (1, 2, 3):
        reps, row = classify_tcis(k)
        rows[3 * k] = (len(reps), row.by_d)
    reps12, row12 = classification(4, 3)
    rows[12] = (len(reps12), row12.by_d)
    ok = (
        rows[3] == (1, ((3, (0, 1)),))
        and rows[6] == (3, ((3, (0, 2)), (4, (1, 0))))
        and rows[9] == (19, ((3, (0, 11)), (4, (1, 7))))
        and rows[12] == (361, LENGTH_12_ROW)
    )
    totals = {n: rows[n][0] for n in sorted(rows)}
    verdict(2, ok, f"class totals {totals} with exact distance and "
                   f"self-orthogonality splits")


@pytest.mark.slow
def test_criterion_02_length_15_table(classification):
    reps, row = classification(5, 3)
    ok = len(reps) == 29372 and row.by_d == LENGTH_15_ROW
    verdict(2, ok, f"length 15 total {len(reps)} (opt-in)")


def test_criterion_03_cat_counts():
    counts = [enumerate_cat(k)[0] for k in (1, 2, 3)]
    ok = counts == [1, 4, 58]
    verdict(3, ok, f"invertible-block class counts k=1..3: {counts}")


def test_criterion_03_cat_k4():
    count, _ = enumerate_cat(4)
    ok = count == 4822
    verdict(3, ok, f"invertible-block class count k=4: {count}")


def test_criterion_04_optimal_class_uniqueness(classification):
    _, row6 = classify_tcis(2)
    reps9, row9 = classify_tcis(3)
    _, row12 = classification(4, 3)
    best6 = dict(row6.by_d).get(4, (0, 0))
    best9 = dict(row9.by_d).get(4, (0, 0))
    best12 = dict(row12.by_d).get(6, (0, 0))
    n_opt9 = sum(1 for c in reps9 if min_distance(c) == 4)
    ok = (
        sum(best6) == 1
        and sum(best9) == 8 == n_opt9
        and sum(best12) == 1
        and max(d for d, _ in row6.by_d) == 4
        and max(d for d, _ in row9.by_d) == 4
        and max(d for d, _ in row12.by_d) == 6
    )
    verdict(4, ok, f"one [6,2,4], eight [9,3,4], one [12,4,6] "
                   f"(counts {sum(best6)}/{sum(best9)}/{sum(best12)})")


def test_criterion_05_z4_examples(octacode, z4_24_6):
    t0 = time.time()
    img = gray_image(octacode)
    img_d = min(
        (a ^ b).bit_count() for a, b in combinations(img.words, 2)
    )
    lee = lee_min_distance(z4_24_6)
    part = z4_t_cis_partition(z4_24_6, 4)
    blocks = tuple(tuple(range(b, b + 6)) for b in (0, 6, 12, 18))
    elapsed = time.time() - t0
    ok = (
        (img.n, img.size, img_d) == (16, 256, 6)
        and lee == 18
        and part.is_partition
        and part.sets == blocks
        and elapsed < 10
    )
    verdict(5, ok, f"octacode image (16,256,{img_d}), quaternary [24,6] "
                   f"Lee {lee} with 4-block partition, {elapsed:.2f}s")


def test_criterion_06_qc_code(qc_243_9):
    t0 = time.time()
    code, rep = qc_build(qc_243_9)
    d = min_distance(code)
    part = t_cis_partition(code, 27)
    elapsed = time.time() - t0
    ok = (
        (code.n, code.k) == (243, 9)
        and d == 118
        and part.is_partition
        and elapsed < 10
    )
    verdict(6, ok, f"[243,9,{d}] 27-block code, 27-CIS, {elapsed:.2f}s")


def test_criterion_06_qc_all_blocks_coprime(qc_243_9):
    # Expected failure, kept red on purpose.  Every even-weight
    # polynomial is divisible by x+1, which also divides x^9 - 1, and 15
    # of the 27 tokens have even weight; no report over these tokens can
    # be all-coprime.  The code is still 27-CIS (previous test), showing
    # coprimality is sufficient but not necessary.
    _, rep = qc_build(qc_243_9)
    non = sum(1 for g in rep.block_gcds if g != 1)
    verdict(6, rep.all_coprime,
            f"all-coprime clause: {non} of 27 blocks share a factor with x^9-1")


def test_criterion_07_buildup_reproduction():
    base = LinearCode(BitMatrix([0b111], 3))
    g1 = build_up(BuildUpChoice(base, 3, xs=(0, 1, 0), ys=(0, 0, 1)))
    rows = tuple(g1.gen.to_strings())
    d = min_distance(g1)
    part = t_cis_partition(g1, 3)
    ok = rows == ("101110", "010111") and d == 4 and part.is_partition
    verdict(7, ok, f"grown rows {rows}, [6,2,{d}], 3-CIS")


def test_criterion_08_mass_formula():
    # the class sizes p(C) (k!)^t / |PAut(C)| of the classified codes must
    # add up to the number of systematic codes, |GL(k,2)|^(t-1)
    results = {}
    for k, t in ((1, 3), (2, 3), (2, 2), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3)):
        rep = mass_formula_check(k, t)
        results[(k, t)] = (len(rep.class_sizes), sum(rep.class_sizes), gl2_size(k) ** (t - 1))
    ok = all(total == power for _, total, power in results.values())
    verdict(8, ok, f"class sizes sum to |GL(k,2)|^(t-1) for {sorted(results)}")


def test_criterion_09_pair_duality_sweep():
    rng = random.Random(0xACC9)
    checked = 0
    ok = True
    for k in (2, 3):
        for _ in range(100):
            fs = []
            for _ in range(2):
                tab = list(range(1 << k))
                rng.shuffle(tab)
                fs.append(BooleanPermutation(k, tab))
            mc = build_masking_code(fs)
            if dual_distance(mc) != cip_strength(fs[0], fs[1]) + 1:
                ok = False
            checked += 1
    verdict(9, ok, f"dual distance = pair strength + 1 on {checked} random pairs")


def test_criterion_10_partition_vs_oracle():
    rng = random.Random(0xED40)
    agreed = 0
    ok = True

    def check(c, t):
        nonlocal agreed, ok
        got = t_cis_partition(c, t)
        want = exhaustive_partition_oracle(c, t)
        if got.is_partition != (want is not None):
            ok = False
            return
        if got.is_partition:
            for s in got.sets:
                if rank(c.gen.take_columns(list(s))) != c.k:
                    ok = False
        elif len(got.columns) <= t * got.rank:
            ok = False
        agreed += 1

    for r0 in range(1, 64):
        for r1 in range(1, 64):
            m = BitMatrix([r0, r1], 6)
            if rank(m) == 2:
                check(LinearCode(m), 3)
    for _ in range(1000):
        check(random_code(rng, 9, 3), 3)
    for _ in range(1000):
        check(random_code(rng, 12, 4), 3)
    verdict(10, ok, f"partition test vs exhaustive oracle on {agreed} codes "
                    f"with witness validity both ways")


def test_criterion_11_convolution_identities():
    ok = True
    k = 4
    w = hamming_weight_leakage(k)
    triple = group_convolution(group_convolution(w, w), w)
    for z in range(1 << k):
        lhs = triple.values[z] / Fraction(1 << (2 * k))
        if lhs != w.values[z] / 4 + Fraction((k - 1) * k * (k + 1), 8):
            ok = False
    for t in (2, 3):
        for k in (3, 4):
            w = hamming_weight_leakage(k)
            acc = w
            for _ in range(t - 1):
                acc = group_convolution(acc, w)
            for z in range(1 << k):
                lhs = acc.values[z] / Fraction(1 << (k * (t - 1)))
                rhs = Fraction(-1, 2) ** (t - 1) * (
                    w.values[z] + Fraction(k, 2) * ((-k) ** (t - 1) - 1)
                )
                if lhs != rhs:
                    ok = False
    verdict(11, ok, "triple-convolution identity at k=4 and the iterated "
                    "closed form at t=2,3, k=3,4, all in exact rationals")


def test_criterion_12_scale_guards():
    checks = []
    for fn in (
        lambda: min_distance(LinearCode(BitMatrix.identity(29))),
        lambda: walsh_table(BooleanPermutation.identity(13)),
        lambda: canonical_form(LinearCode(BitMatrix([(1 << 16) - 1], 16))),
        lambda: enumerate_cat(5),
        lambda: classify_tcis(6),
    ):
        try:
            fn()
            checks.append(False)
        except Infeasible:
            checks.append(True)
    ok = all(checks)
    verdict(12, ok, f"{sum(checks)}/5 out-of-scope computations refused "
                    f"by explicit guards")
