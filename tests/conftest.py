import functools
import math
import operator
import random
from pathlib import Path

import pytest
from hypothesis import settings

from tcis import formats
from tcis.boolfun import BooleanPermutation
from tcis.classify import classify_tcis
from tcis.codes import LinearCode
from tcis.gf2 import BitMatrix, Echelon, parity_dot, rank

DATA = Path(__file__).resolve().parent.parent / "src" / "tcis" / "data"

# Property tests draw the same examples on every run and stay short.
settings.register_profile("tcis", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("tcis")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def bk_24_8() -> LinearCode:
    return formats.load(DATA / "bk_24_8.code")


@pytest.fixture(scope="session")
def buildup_6_2() -> LinearCode:
    return formats.load(DATA / "buildup_6_2.code")


@pytest.fixture(scope="session")
def octacode():
    return formats.load(DATA / "octacode.z4")


@pytest.fixture(scope="session")
def z4_24_6():
    return formats.load(DATA / "z4_24_6.z4")


@pytest.fixture(scope="session")
def qc_243_9():
    return formats.load(DATA / "qc_243_9.qc")


@functools.cache
def _classify(k: int, t: int):
    return classify_tcis(k, t, allow_slow=True)


@pytest.fixture(scope="session")
def classification():
    """classify_tcis(k, t, allow_slow=True), run at most once a session per
    (k, t): the length-12 and length-15 censuses take seconds to minutes."""
    return _classify


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """[a | b]: the columns of b after those of a."""
    return BitMatrix([x | y << a.ncols for x, y in zip(a.rows, b.rows)], a.ncols + b.ncols)


def mul_vec(m: BitMatrix, v: int) -> int:
    """m times the column vector v, packed."""
    return sum(parity_dot(r, v) << i for i, r in enumerate(m.rows))


def encode(c: LinearCode, message: int) -> int:
    """The codeword of message, bit i choosing generator row i."""
    return c.gen.vec_mul(message)


def is_constant(f) -> bool:
    """Whether the leakage function f takes one value everywhere."""
    return all(v == f.values[0] for v in f.values)


def poly_degree(p: int) -> int | None:
    """Degree of a GF(2) polynomial, None for the zero polynomial."""
    return p.bit_length() - 1 if p else None


def poly_mul(p: int, q: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    acc = 0
    while q:
        i = (q & -q).bit_length() - 1
        acc ^= p << i
        q &= q - 1
    return acc


def solve_in_span(basis: BitMatrix, target: int) -> int | None:
    """Coefficient mask of target over the columns of basis, bit j for
    column j, or None outside their span; dependent columns raise
    ValueError."""
    cols = basis.columns()
    span = Echelon(cols)
    if span.rank < len(cols):
        raise ValueError("basis columns are linearly dependent")
    return span.express(target)


def krawtchouk_table(n: int) -> list[list[int]]:
    """K[i][j] = sum_l (-1)^l C(j,l) C(n-j, i-l), for 0 <= i, j <= n."""
    return [
        [sum((-1) ** l * math.comb(j, l) * math.comb(n - j, i - l) for l in range(i + 1))
         for j in range(n + 1)]
        for i in range(n + 1)
    ]


def pair_counts(n: int, words) -> list[int]:
    """Ordered pairs of words at each Hamming distance 0..n: |C|^2 B_i."""
    counts = [0] * (n + 1)
    for a in words:
        for b in words:
            counts[(a ^ b).bit_count()] += 1
    return counts


def macwilliams(n: int, words) -> list[int]:
    """|C|^2 B'_i: the Krawtchouk transform of the ordered-pair counts."""
    counts = pair_counts(n, words)
    return [sum(map(operator.mul, row, counts)) for row in krawtchouk_table(n)]


def macwilliams_dual_distance(n: int, words) -> int | float:
    """Least i > 0 with B'_i != 0, or inf when the words fill the space."""
    return next((i for i, b in enumerate(macwilliams(n, words)) if i and b), math.inf)


def random_full_rank(rng: random.Random, n: int, k: int) -> BitMatrix:
    while True:
        m = BitMatrix([rng.randrange(1, 1 << n) for _ in range(k)], n)
        if rank(m) == k:
            return m


def random_invertible(rng: random.Random, k: int) -> BitMatrix:
    return random_full_rank(rng, k, k)


def random_perm(rng: random.Random, k: int) -> BooleanPermutation:
    table = list(range(1 << k))
    rng.shuffle(table)
    return BooleanPermutation(k, table)


def random_code(rng: random.Random, n: int, k: int) -> LinearCode:
    return LinearCode(random_full_rank(rng, n, k))


def systematic_cis_code(rng: random.Random, k: int, t: int) -> LinearCode:
    """Random (I | A_1 | ... | A_{t-1}) code with invertible blocks."""
    rows = [1 << i for i in range(k)]
    for b in range(1, t):
        a = random_invertible(rng, k)
        for i in range(k):
            rows[i] |= a.row(i) << (b * k)
    return LinearCode(BitMatrix(rows, t * k))


def planted_code(rng, k, t):
    """Random [tk, k] code with t*r + 1 columns squeezed into r coordinates.

    Those columns span at most r dimensions, so the code has no t-CIS
    partition and the walk must return a violation.
    """
    n = t * k
    while True:
        r = rng.randrange(0, k)
        cols = [rng.randrange(1 << k) for _ in range(n)]
        for j in rng.sample(range(n), t * r + 1):
            cols[j] = rng.randrange(1 << r)
        rows = [sum(((col >> i) & 1) << j for j, col in enumerate(cols)) for i in range(k)]
        m = BitMatrix(rows, n)
        if rank(m) == k:
            return LinearCode(m)


def scrambled_cis_code(rng, k, t):
    c = systematic_cis_code(rng, k, t)
    perm = list(range(c.n))
    rng.shuffle(perm)
    u = random_invertible(rng, k)
    return LinearCode(u.mul(c.gen.take_columns(perm)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC15)
