import hashlib
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tcis.codes
from conftest import (
    DATA,
    encode,
    krawtchouk_table,
    macwilliams,
    macwilliams_dual_distance,
    pair_counts,
    planted_code,
    random_code,
    random_perm,
    scrambled_cis_code,
)
from tcis import formats
from tcis.boolfun import build_masking_code, verify_theorem1
from tcis.codes import (
    LinearCode,
    UnrestrictedCode,
    ZeroCode,
    dual,
    dual_distance,
    is_self_orthogonal,
    min_distance,
    star_fill_zero_columns,
    systematic_form,
    weight_distribution,
)
from tcis.gf2 import BitMatrix, Infeasible, parity_dot, rank
from tcis.z4 import gray_image


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearCode(BitMatrix([0b11, 0b11], 2))
    c = LinearCode(BitMatrix.from_strings(["111"]))
    assert (c.n, c.k) == (3, 1)


def test_codewords_group_structure(rng):
    for _ in range(20):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        c = random_code(rng, n, k)
        words = c.codewords()
        assert len(words) == 1 << k
        assert len(set(words)) == 1 << k
        ws = set(words)
        assert 0 in ws
        sample = rng.sample(words, min(8, len(words)))
        for a in sample:
            for b in sample:
                assert a ^ b in ws


def test_encode_matches_row_combination(rng):
    c = random_code(rng, 7, 3)
    for msg in range(8):
        want = 0
        for i in range(3):
            if (msg >> i) & 1:
                want ^= c.gen.row(i)
        assert encode(c, msg) == want
        assert c.codewords()[msg] == want


def test_zero_code():
    z = ZeroCode(5)
    assert z.k == 0
    assert list(z.codewords()) == [0]


def test_unrestricted_validation():
    with pytest.raises(ValueError):
        UnrestrictedCode(3, [1, 1])
    with pytest.raises(ValueError):
        UnrestrictedCode(2, [5])
    u = UnrestrictedCode(3, [0, 3, 5])
    assert u.size == 3


def test_systematic_form_identity_case(bk_24_8):
    sys_c, perm = systematic_form(bk_24_8)
    assert perm == tuple(range(24))
    assert sys_c.gen == bk_24_8.gen


def test_systematic_form_pivot_move(rng):
    for _ in range(25):
        n = rng.randrange(3, 10)
        k = rng.randrange(1, n)
        c = random_code(rng, n, k)
        sys_c, perm = systematic_form(c)
        assert sorted(perm) == list(range(n))
        assert sys_c.gen.take_columns(range(k)) == BitMatrix.identity(k)
        # same code up to the returned column permutation
        orig = set(c.codewords())
        moved = {
            sum(((w >> perm[j]) & 1) << j for j in range(n)) for w in orig
        }
        assert moved == set(sys_c.codewords())


def brute_min_distance(c: LinearCode) -> int:
    return min(w.bit_count() for w in c.codewords() if w)


def test_min_distance_small(rng):
    for _ in range(30):
        n = rng.randrange(2, 10)
        k = rng.randrange(1, n + 1)
        c = random_code(rng, n, k)
        assert min_distance(c) == brute_min_distance(c)


def test_min_distance_cap():
    c = LinearCode(BitMatrix.identity(8))
    with pytest.raises(Infeasible):
        min_distance(c, cap=16)


MIN_DISTANCE_CASES = {
    "random": lambda rng, k: random_code(rng, rng.randrange(k, 25), k),
    # fewer than 2k columns: at most one information set
    "high_rate": lambda rng, k: random_code(rng, rng.randrange(k, min(2 * k, 25)), k),
    # zero and repeated leading columns
    "front_dependent": lambda rng, k: _front_dependent_code(rng, rng.randrange(k, 25), k),
    "planted": lambda rng, k: planted_code(rng, k, rng.randrange(2, 24 // k + 1)),
    "cis": lambda rng, k: scrambled_cis_code(rng, k, rng.randrange(2, 24 // k + 1)),
}


@settings(max_examples=300)
@given(
    st.integers(1, 12),
    st.sampled_from(sorted(MIN_DISTANCE_CASES)),
    st.integers(-1, 1),
    st.integers(0, 2**32),
)
# codes whose lightest words first appear past information weight 1, so a
# stopping bound that is one too high or ignores rank defects returns more
@example(9, "cis", 0, 21)
@example(8, "cis", 0, 295)
@example(9, "random", 0, 61)
@example(8, "front_dependent", 0, 320)
@example(8, "planted", 0, 1470)
def test_min_distance_matches_brute_force(k, case, shift, seed):
    # the crossover moves to k - 1, k or k + 1, so small codes take either
    # method right at its edge
    code = MIN_DISTANCE_CASES[case](random.Random(seed), k)
    with mock.patch.object(tcis.codes, "BZ_MIN_K", max(1, k + shift)):
        assert min_distance(code) == brute_min_distance(code)


def test_min_distance_past_crossover():
    # above the real crossover, on scrambled t-CIS codes of length up to 88,
    # then on more scrambled 2-CIS codes, whose columns left after the first
    # greedy information set are often rank-deficient
    rng = random.Random(0xB2)
    codes = [scrambled_cis_code(rng, k, t) for k in range(13, 23) for t in (2, 3, 4)]
    pairs = [scrambled_cis_code(rng, k, 2) for k in range(13, 19) for _ in range(6)]
    # splits such as ranks (13, 12, 1) hold a single full-rank set
    assert any(
        sum(r == code.k for r, _ in tcis.codes._information_forms(code)) == 1
        for code in pairs
    )
    for code in codes + pairs:
        wd = weight_distribution(code)
        assert min_distance(code) == next(i for i in range(1, code.n + 1) if wd[i])


def test_min_distance_cap_counts_listed_words():
    # Brouwer-Zimmermann lists far fewer than 2^20 words on a [60, 20] 3-CIS code
    code = scrambled_cis_code(random.Random(0x3C15), 20, 3)
    wd = weight_distribution(code)
    assert min_distance(code, cap=1 << 16) == next(i for i in range(1, 61) if wd[i])
    with pytest.raises(Infeasible, match="exceed cap 60"):
        min_distance(code, cap=60)


WITNESS_RECHECK = """
import tcis.codes
from tcis.codes import LinearCode, min_distance
from tcis.gf2 import BitMatrix, CertificateError

if __debug__:
    raise SystemExit("assertions are still on")
real = tcis.codes._information_forms

def corrupted(c):
    # a weight-1 word outside the code replaces the first row of the first form
    (r, rows), *rest = real(c)
    return [(r, (1,) + rows[1:]), *rest]

tcis.codes._information_forms = corrupted
i13 = BitMatrix.identity(13)
try:
    min_distance(LinearCode(BitMatrix([r | r << 13 | r << 26 for r in i13.rows], 39)))
except CertificateError:
    print("CertificateError")
"""


def test_min_distance_witness_recheck_survives_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", WITNESS_RECHECK],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.split() == ["CertificateError"]


def test_weight_distribution(rng):
    c = LinearCode(BitMatrix.from_strings(["1100", "0011"]))
    assert weight_distribution(c) == [1, 0, 2, 0, 1]
    for _ in range(10):
        c = random_code(rng, rng.randrange(2, 9), 2)
        wd = weight_distribution(c)
        assert sum(wd) == 4
        assert wd[0] == 1


def test_distance_enumerator_paths_agree(rng):
    # a linear code, its word list and a coset flagged distance invariant
    # take the translate, transform and translate routes; the coset has
    # the code's distances but, unlike the code, need not contain 0
    for _ in range(20):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n + 1)
        c = random_code(rng, n, k)
        words = c.codewords()
        assert pair_counts(n, words) == [(1 << k) * a for a in weight_distribution(c)]
        want = macwilliams_dual_distance(n, words)
        v = rng.randrange(1, 1 << n)
        coset = [w ^ v for w in words]
        assert macwilliams_dual_distance(n, coset) == want
        assert dual_distance(c) == want
        assert dual_distance(UnrestrictedCode(n, words)) == want
        assert dual_distance(UnrestrictedCode(n, coset, distance_invariant=True)) == want


def test_distance_enumerator_nonlinear():
    words = [0b0000, 0b0111, 0b1011, 0b1101]
    assert pair_counts(4, words) == [4, 0, 6, 6, 0]
    # u = 0001 sums the signs -1 three times and +1 once
    assert macwilliams(4, words) == [16, 4, 12, 28, 4]
    assert dual_distance(UnrestrictedCode(4, words)) == 1


def test_enumerator_cap_before_listing(monkeypatch, rng):
    # an oversized code must be refused before its codewords are listed;
    # a code with no proven invariance is refused by its length, whatever
    # its size
    def refuse(self):
        raise AssertionError("codewords listed before the size cap check")

    monkeypatch.setattr(LinearCode, "codewords", refuse)
    with pytest.raises(Infeasible, match="code size 2097152 exceeds cap 1048576"):
        dual_distance(random_code(rng, 48, 21))
    with pytest.raises(Infeasible, match="indicator length 2097152 exceeds cap 1048576"):
        dual_distance(UnrestrictedCode(21, [0, 1, 6]))


def test_macwilliams_exact(rng):
    # transform equals |C|^2 times the dual weight distribution
    for _ in range(25):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n)
        c = random_code(rng, n, k)
        t = macwilliams(n, c.codewords())
        dwd = weight_distribution(dual(c))
        size = 1 << k
        assert t == [size * size * a for a in dwd]
        assert all(v >= 0 for v in t)


def test_krawtchouk_orthogonality():
    n = 6
    kt = krawtchouk_table(n)
    # sum_j C(n,j) K_i(j) K_l(j) = 2^n C(n,i) delta_il
    for i in range(n + 1):
        for l in range(n + 1):
            s = sum(math.comb(n, j) * kt[i][j] * kt[l][j] for j in range(n + 1))
            want = (1 << n) * math.comb(n, i) if i == l else 0
            assert s == want


@given(st.integers(0, 2**32))
def test_dual_distance_matches_macwilliams(seed):
    # every case from one drawn seed, so that the derandomized profile
    # still spreads over lengths, sizes and densities
    rng = random.Random(seed)
    n = rng.randrange(1, 11)
    if rng.random() < 0.5:
        words = rng.sample(range(1 << n), rng.randrange(1, (1 << n) + 1))
        c = UnrestrictedCode(n, words)
    else:
        c = random_code(rng, n, rng.randrange(1, n + 1))
        words = c.codewords()
    assert dual_distance(c) == macwilliams_dual_distance(n, words)


def test_dual_distance_even_weight_17():
    # the [17,16] even-weight code as a word list: its indicator transform
    # is 2^16 at 0 and at the all-ones vector, beyond int16
    words = [w for w in range(1 << 17) if w.bit_count() % 2 == 0]
    assert dual_distance(UnrestrictedCode(17, words)) == 17
    assert dual_distance(LinearCode(BitMatrix([1 | 1 << j for j in range(1, 17)], 17))) == 17


def dual_distance_outputs():
    rng = random.Random(0xDD)
    out = []
    for n in range(1, 14):
        for k in range(1, n + 1):
            out.append(("lin", n, k, dual_distance(random_code(rng, n, k))))
    for n in range(1, 12):
        for _ in range(12):
            m = rng.randrange(1, min(1 << n, 160) + 1)
            words = rng.sample(range(1 << n), m)
            out.append(("nonlin", n, m, dual_distance(UnrestrictedCode(n, words))))
        if n <= 9:
            words = rng.sample(range(1 << n), rng.randrange(1 << n - 1, 1 << n))
            out.append(("dense", n, dual_distance(UnrestrictedCode(n, words))))
        out.append(("full", n, dual_distance(UnrestrictedCode(n, range(1 << n)))))
        out.append(("zero", n, dual_distance(ZeroCode(n))))
    for n in range(16, 21):
        words = rng.sample(range(1 << n), 40)
        out.append(("long", n, dual_distance(UnrestrictedCode(n, words))))
    for k in range(1, 5):
        for _ in range(6):
            res = verify_theorem1(random_perm(rng, k), random_perm(rng, k))
            out.append(("thm1", k, sorted(res.items())))
    for k, t in [(1, 3), (2, 3), (3, 3), (2, 4), (1, 6)]:
        mc = build_masking_code([random_perm(rng, k) for _ in range(t)])
        out.append(("mask", k, t, dual_distance(mc)))
    for name in ("octacode", "z4_24_6"):
        img = gray_image(formats.load(DATA / f"{name}.z4"))
        out.append(("gray", name, dual_distance(img)))
    return out


# SHA-256 of dual_distance and verify_theorem1 outputs, recorded while
# dual distances came from the Krawtchouk transform of ordered-pair counts
# (all pairs compared for codes without a distance-invariance flag).
DUAL_DISTANCE_DIGEST = "bda35b6d9979c6ac226c4eedb1e375e48db01cae74a244db7c7046cc5b1d2136"


def test_dual_distance_digest():
    out = dual_distance_outputs()
    assert len(out) == 290
    assert hashlib.sha256(repr(out).encode()).hexdigest() == DUAL_DISTANCE_DIGEST


def test_dual_properties(rng):
    for _ in range(30):
        n = rng.randrange(2, 10)
        k = rng.randrange(1, n)
        c = random_code(rng, n, k)
        d = dual(c)
        assert d.k == n - k
        for a in c.gen.rows:
            for b in d.gen.rows:
                assert parity_dot(a, b) == 0
        back = dual(d)
        assert set(back.codewords()) == set(c.codewords())


def test_dual_full_space():
    c = LinearCode(BitMatrix.identity(4))
    d = dual(c)
    assert isinstance(d, ZeroCode)
    assert dual_distance(c) == math.inf


def test_dual_distance_matches_dual_code(rng):
    for _ in range(25):
        n = rng.randrange(2, 10)
        k = rng.randrange(1, n)
        c = random_code(rng, n, k)
        assert dual_distance(c) == min_distance(dual(c))


def test_self_orthogonality(buildup_6_2):
    assert is_self_orthogonal(LinearCode(BitMatrix.from_strings(["1111"])))
    assert not is_self_orthogonal(LinearCode(BitMatrix.from_strings(["111"])))
    assert is_self_orthogonal(buildup_6_2)


def test_self_orthogonal_iff_in_own_dual(rng):
    for _ in range(20):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n)
        c = random_code(rng, n, k)
        want = set(c.codewords()) <= set(dual(c).codewords())
        assert is_self_orthogonal(c) == want


def test_star_fill_zero_columns():
    c = LinearCode(BitMatrix.from_strings(["0110", "0011"]))
    filled = star_fill_zero_columns(c)
    assert filled.gen.to_strings() == ["1110", "0011"]
    # untouched when no zero columns
    c2 = LinearCode(BitMatrix.from_strings(["11"]))
    assert star_fill_zero_columns(c2).gen == c2.gen
    # two zero columns, k = 3: uses e1 then e2 in column order
    c3 = LinearCode(BitMatrix.from_strings(["01000", "00100", "00010"]))
    f3 = star_fill_zero_columns(c3)
    assert f3.gen.to_strings() == ["11000", "00101", "00010"]
    # as many zero columns as rows: cannot fill
    with pytest.raises(ValueError):
        star_fill_zero_columns(LinearCode(BitMatrix.from_strings(["010"])))


def _front_dependent_code(rng, n, k):
    """Full-rank [n, k] code whose leading columns are often zero or repeated.

    The first k columns are then dependent and systematic_form has to move
    pivots forward.
    """
    while True:
        cols = [rng.randrange(1 << k) for _ in range(n)]
        for j in range(1, min(k, n - k + 1)):
            if rng.random() < 0.5:
                cols[j] = rng.choice((0, cols[j - 1]))
        rows = [sum(((col >> i) & 1) << j for j, col in enumerate(cols)) for i in range(k)]
        m = BitMatrix(rows, n)
        if rank(m) == k:
            return LinearCode(m)


def systematic_and_dual_outputs(seed):
    rng = random.Random(seed)
    out = []
    for _ in range(120):
        n = rng.randrange(1, 21)
        k = rng.randrange(1, n + 1)
        c = _front_dependent_code(rng, n, k) if rng.random() < 0.5 else random_code(rng, n, k)
        s, perm = systematic_form(c)
        d = dual(c)
        out.append((s.gen.rows, perm, "zero" if isinstance(d, ZeroCode) else d.gen.rows))
    return out


# SHA-256 of systematic_form's rows and permutation and of dual's rows,
# recorded before their pivot scans were folded into gf2.Echelon.
SYSTEMATIC_DUAL_DIGEST = "aef91d5c02dac47370b39319d8826b22c2081040aad82907b5bb997389930beb"


def test_systematic_form_and_dual_pinned():
    outputs = systematic_and_dual_outputs(0x5E7)
    moved = sum(perm != tuple(range(len(perm))) for _, perm, _ in outputs)
    assert moved > 20 and sum(d == "zero" for *_, d in outputs) > 0
    text = repr(outputs)
    assert hashlib.sha256(text.encode()).hexdigest() == SYSTEMATIC_DUAL_DIGEST
