"""
Quaternary codes, the Gray map, and nonlinear masking
=====================================================

Working over Z4 = {0,1,2,3} instead of bits buys something real: the
Gray map sends a Z4-linear code to a binary code that keeps its distance
profile but need not be linear, and the masking bijections read off such
a code are genuinely nonlinear permutations.  This script exercises the
octacode and a length-24 quaternary 3-CIS code.
"""

from importlib import resources

from tcis import formats
from tcis.boolfun import t_ci_strength
from tcis.z4 import (
    Z4Code,
    gray_image,
    gray_symbol,
    lee_min_distance,
    z4_derive_bijections,
    z4_t_cis_partition,
)


def load(name: str) -> Z4Code:
    return formats.parse(
        resources.files("tcis").joinpath(f"data/{name}").read_text()
    )


# The Gray map per symbol: 0 -> 00, 1 -> 01, 2 -> 11, 3 -> 10.  Adjacent
# symbols differ in one bit, which is what transfers Lee distance to
# Hamming distance.
print("Gray map:", {v: gray_symbol(v) for v in range(4)})

# The octacode: a self-dual [8, 4] code over Z4 with Lee distance 6.
# Its Gray image is the (16, 256, 6) Nordstrom-Robinson code, a binary
# code better than any linear code of its length and size.
octa = load("octacode.z4")
print(f"\noctacode: length {octa.n}, {4 ** octa.k} words over Z4")
print("Lee minimum distance:", lee_min_distance(octa))

nr = gray_image(octa)
dists = {
    (a ^ b).bit_count() for i, a in enumerate(nr.words) for b in nr.words[i + 1 :]
}
print(f"Gray image: ({nr.n}, {nr.size}) binary code, min distance {min(dists)}")

# Linearity test: a linear code is closed under XOR.  The image is not.
wordset = set(nr.words)
closed = all(a ^ b in wordset for a in nr.words[:16] for b in nr.words[:16])
print("Gray image closed under xor (first 16 words):", closed)

# A [24, 6] quaternary code that is 4-CIS over Z4: the matroid walk runs
# on the mod-2 residue, and each returned set is re-verified by actual
# Z4 inversion.
z24 = load("z4_24_6.z4")
res = z4_t_cis_partition(z24, 4)
print(f"\n[24,6] over Z4: 4-CIS = {res.is_partition}")
print("Lee minimum distance:", lee_min_distance(z24))
for s in res.sets:
    print("  information set:", [j + 1 for j in s])

# Because the generator is systematic, the three masking bijections
# exist; the Gray map makes them nonlinear permutations of 12-bit
# values.  Nonlinearity shows up immediately as a failed xor identity.
f1, f2, f3 = z4_derive_bijections(z24, 4)
lin1 = all(f1(x ^ y) == f1(x) ^ f1(y) for x in range(64) for y in range(64))
print(f"\nF1 linear over GF(2): {lin1}")

# Their correlation-immunity order comes from the Walsh spectra: three
# 4096 x 4096 tables, one at a time, each read with its output masks in
# order of weight.
print("strength of the three 12-bit bijections:", t_ci_strength([f1, f2, f3]))

# The octacode's own 8-bit bijection, analyzed the same way.
fo, = z4_derive_bijections(octa, 2)
lino = all(fo(x ^ y) == fo(x) ^ fo(y) for x in range(32) for y in range(32))
print(f"\noctacode bijection linear: {lino}")
print("octacode bijection strength:", t_ci_strength([fo]))
