import dataclasses
import math
from collections import Counter
from itertools import product

import pytest

import tcis.construct
from conftest import systematic_cis_code
from tcis.classify import canonical_form, cat_classes, equivalent
from tcis.codes import LinearCode, min_distance
from tcis.construct import (
    Bounds,
    BuildUpChoice,
    QcSpec,
    bounds,
    build_up,
    gl2_size,
    m_count,
    mass_formula_check,
    poly_from_octal,
    qc_build,
    subtract,
)
from tcis.gf2 import BitMatrix, CertificateError, Echelon, invert, poly_mod, x_pow_minus_one
from tcis.partition import t_cis_partition


def gl2_matrices(k):
    """All invertible k x k matrices, as row tuples, in DFS order."""

    def grow(rows):
        if len(rows) == k:
            yield rows
            return
        span = Echelon(rows)
        for r in range(1, 1 << k):
            if r not in span:
                yield from grow(rows + (r,))

    yield from grow(())


def brute_class_sizes(k, t):
    """Orbit sizes in the systematic family, largest first: every code
    (I | A_1 | .. | A_{t-1}) listed and grouped by canonical form."""
    counts = Counter()
    for combo in product(list(gl2_matrices(k)), repeat=t - 1):
        rows = [
            (1 << i) | sum(a[i] << ((b + 1) * k) for b, a in enumerate(combo))
            for i in range(k)
        ]
        counts[canonical_form(LinearCode(BitMatrix(rows, t * k))).form] += 1
    return tuple(sorted(counts.values(), reverse=True))


def test_poly_from_octal():
    assert poly_from_octal("13") == 0o13
    assert poly_from_octal("7") == 7
    with pytest.raises(ValueError):
        poly_from_octal("9")


def test_qc_spec_validation():
    with pytest.raises(ValueError):
        QcSpec(1, 3, (1,))
    with pytest.raises(ValueError):
        QcSpec(2, 3, (1,))
    with pytest.raises(ValueError):
        QcSpec(2, 3, (1, 0b1000))  # degree 3 not < 3


def test_qc_build_small():
    spec = QcSpec(2, 3, (0b011, 0b111))
    code, rep = qc_build(spec)
    assert (code.n, code.k) == (6, 3)
    # row r of each block is the polynomial cyclically shifted by r
    assert code.gen.row(0) == 0b011 | (0b111 << 3)
    # 0b111 = 1 + x + x^2 is fixed by multiplication by x mod x^3 - 1
    assert code.gen.row(1) == 0b110 | (0b111 << 3)
    assert code.gen.row(2) == 0b101 | (0b111 << 3)
    m = 3
    for p, g in zip(spec.polys, rep.block_gcds):
        from tcis.gf2 import poly_gcd

        assert g == poly_gcd(p, x_pow_minus_one(m))


def test_qc_coprime_blocks_are_cis(rng):
    # coprimality with x^m - 1 makes every circulant block invertible
    from tcis.gf2 import poly_gcd

    m = 5
    modulus = x_pow_minus_one(m)
    coprime = [p for p in range(1, 1 << m) if poly_gcd(p, modulus) == 1]
    for _ in range(15):
        polys = tuple(rng.choice(coprime) for _ in range(3))
        code, rep = qc_build(QcSpec(3, m, polys))
        assert rep.all_coprime
        assert t_cis_partition(code, 3).is_partition


def test_qc_degenerate():
    with pytest.raises(ValueError):
        qc_build(QcSpec(2, 3, (0, 0)))


def test_qc_243_9(qc_243_9):
    code, rep = qc_build(qc_243_9)
    assert (code.n, code.k) == (243, 9)
    assert min_distance(code) == 118
    # 15 of the 27 block polynomials share a factor with x^9 - 1, so the
    # sufficient coprimality condition does not certify this example
    assert sum(1 for g in rep.block_gcds if g != 1) == 15
    assert not rep.all_coprime
    assert t_cis_partition(code, 27).is_partition


def test_build_up_worked_example():
    base = LinearCode(BitMatrix.from_strings(["111"]))
    c = build_up(BuildUpChoice(base, 3, xs=(0, 1, 0), ys=(0, 0, 1)))
    assert c.gen.to_strings() == ["101110", "010111"]
    assert (c.n, c.k, min_distance(c)) == (6, 2, 4)
    assert t_cis_partition(c, 3).is_partition


def test_build_up_preserves_cis(rng):
    for _ in range(15):
        k = rng.randrange(1, 4)
        t = rng.randrange(2, 4)
        base = systematic_cis_code(rng, k, t)
        choice = BuildUpChoice(
            base,
            t,
            xs=tuple(rng.randrange(1 << k) for _ in range(t)),
            ys=tuple(rng.randrange(1 << k) for _ in range(t)),
        )
        c = build_up(choice)
        assert (c.n, c.k) == (t * (k + 1), k + 1)
        assert t_cis_partition(c, t).is_partition


def test_build_up_shape_error():
    base = LinearCode(BitMatrix.from_strings(["111"]))
    with pytest.raises(ValueError):
        BuildUpChoice(base, 2, xs=(1,), ys=(1,))
    with pytest.raises(ValueError):
        BuildUpChoice(base, 3, xs=(1,), ys=(1, 1, 1))


def test_subtract_inverts_build_up(rng):
    base = LinearCode(BitMatrix.from_strings(["111"]))
    c = build_up(BuildUpChoice(base, 3, xs=(0, 1, 0), ys=(0, 0, 1)))
    for row in (0, 1):
        back = subtract(c, 3, row)
        assert (back.n, back.k) == (3, 1)
        assert equivalent(back, base)


def test_subtract_random(rng):
    for _ in range(15):
        k = rng.randrange(2, 5)
        t = rng.randrange(2, 4)
        c = systematic_cis_code(rng, k, t)
        back = subtract(c, t, rng.randrange(k))
        assert (back.n, back.k) == (t * (k - 1), k - 1)
        assert t_cis_partition(back, t).is_partition


def test_gl2_sizes():
    assert gl2_size(1) == 1
    assert gl2_size(2) == 6
    assert gl2_size(3) == 168
    assert gl2_size(4) == 20160
    assert sum(1 for _ in gl2_matrices(2)) == 6
    assert sum(1 for _ in gl2_matrices(3)) == 168
    for rows in gl2_matrices(2):
        assert invert(BitMatrix(rows, 2)) is not None


def test_mass_formula_anchors():
    for k, t in [(1, 3), (2, 3), (2, 2), (3, 2)]:
        rep = mass_formula_check(k, t)
        assert rep.consistent
        assert rep.group_power == gl2_size(k) ** (t - 1)
        assert sum(rep.class_sizes) == rep.group_power


def test_mass_formula_domain_errors():
    for k, t, message in [
        (0, 3, "k must be at least 1"),
        (-1, 2, "k must be at least 1"),
        (2, 0, "t must be at least 2"),
        (2, 1, "t must be at least 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            mass_formula_check(k, t)


def test_mass_class_count_matches_classification():
    # class count over systematic codes equals the classification total
    rep = mass_formula_check(2, 3)
    assert len(rep.class_sizes) == 3


@pytest.mark.parametrize("k,t", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (2, 5)])
def test_mass_class_sizes_match_systematic_enumeration(k, t):
    assert mass_formula_check(k, t).class_sizes == brute_class_sizes(k, t)


def test_mass_check_catches_a_missing_class(monkeypatch):
    classes = cat_classes(3, 2)
    monkeypatch.setattr(tcis.construct, "cat_classes", lambda k, t: classes[1:])
    with pytest.raises(CertificateError):
        mass_formula_check(3, 2)


def test_mass_check_catches_a_wrong_automorphism_order(monkeypatch):
    (cf, code), *rest = cat_classes(3, 2)
    doubled = dataclasses.replace(cf, aut_order=2 * cf.aut_order)
    monkeypatch.setattr(
        tcis.construct, "cat_classes", lambda k, t: [(doubled, code), *rest]
    )
    with pytest.raises(CertificateError):
        mass_formula_check(3, 2)


def test_bounds_values():
    b = bounds(1, 3)
    assert b.trivial_lower == 3
    assert min(b.singleton_upper, b.plotkin_upper) == 3
    b2 = bounds(2, 3)
    assert b2.trivial_lower == 3
    assert b2.singleton_upper == 4  # tk = 6 > 3 so the bound is (t-1)k
    assert bounds(1, 2).singleton_upper == 2  # tk = 2: falls back to (t-1)k+1 bound not tight case
    b3 = bounds(3, 3)
    assert b3.singleton_upper == 6
    assert b3.plotkin_upper == 5
    assert 0 < b3.gv_rate_delta < 0.5


def test_gv_rate_delta_entropy():
    # H(delta) = 1/t at the returned delta
    for k, t in [(2, 2), (3, 3), (4, 2)]:
        b = bounds(k, t)
        d = b.gv_rate_delta
        h = -d * math.log2(d) - (1 - d) * math.log2(1 - d)
        assert abs(h - 1 / t) < 1e-9


def test_m_count_anchors():
    assert m_count(1, 2) == 4
    assert m_count(2, 2) == 320
    assert m_count(2, 3) == 960
    with pytest.raises(ValueError):
        m_count(2, 7)
    with pytest.raises(ValueError):
        m_count(2, -1)


def brute_m_count(k, d):
    total = 0
    for j in range(2, d + 1):
        for r in range(k + 1):
            for s in range(k + 1):
                if 1 <= r + s <= j:
                    total += (
                        math.comb(k, j - r - s)
                        * math.comb(k, r)
                        * math.comb(k, s)
                        * (r + s)
                    )
    return total * (1 << (k * (2 * k - 2)))


def test_m_count_matches_direct_sum():
    for k in (1, 2, 3):
        for d in range(0, 3 * k + 1):
            assert m_count(k, d) == brute_m_count(k, d)


