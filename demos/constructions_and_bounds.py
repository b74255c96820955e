"""
Building codes: circulant blocks, induction, and distance bounds
================================================================

Three ways to get new CIS codes from old ones or from scratch: the
quasi-cyclic construction stacks rotated copies of block polynomials,
the building-up step grows a [tk, k] code to [t(k+1), k+1] while
keeping every block invertible, and subtraction undoes it.  Bounds and
the mass formula then say how good a code can be and whether the
classification accounted for every class.
"""

from importlib import resources

from tcis import formats
from tcis.codes import dual_distance, is_self_orthogonal, min_distance
from tcis.construct import (
    BuildUpChoice,
    QcSpec,
    bounds,
    build_up,
    mass_formula_check,
    qc_build,
    subtract,
)
from tcis.partition import t_cis_partition

# A tiny quasi-cyclic example: two circulant blocks of size 3 with
# polynomials 1 + x and 1.  Row r of each block is the polynomial times
# x^r, reduced mod x^3 - 1.
code, report = qc_build(QcSpec(t=2, m=3, polys=(0b011, 0b001)))
print("quasi-cyclic [6,3] generator:")
for line in code.gen.to_strings():
    print(" ", line)
print("block gcds with x^3 - 1:", [f"{g:b}" for g in report.block_gcds])

# All blocks coprime with x^3 - 1 would *guarantee* CIS-ness, but the
# condition only works one way: here the first block shares the factor
# x + 1, and the partition test still finds disjoint information sets.
print("all blocks coprime:", report.all_coprime)
print("2-CIS anyway:", t_cis_partition(code, 2).is_partition)

# The bundled 27-block specification builds a [243, 9] code the same
# way; parsing the .qc format and constructing it is one call each.
# The same one-way behavior shows at scale: many of its 27 blocks share
# a factor with x^9 - 1, yet the code is 27-CIS.
spec = formats.parse(
    resources.files("tcis").joinpath("data/qc_243_9.qc").read_text()
)
big, rep = qc_build(spec)
shared = sum(1 for g in rep.block_gcds if g != 1)
print(f"\nbundled spec: [{big.n},{big.k}] code, 27 blocks of size 9")
print(f"blocks sharing a factor with x^9 - 1: {shared} of 27")
print("27-CIS:", t_cis_partition(big, 27).is_partition)

# Building-up: start from the 3-CIS [6,2] code and append one row and
# three columns, one per block.  Free choices: the x vectors; the z
# bits are forced so the new blocks stay invertible.
base = formats.parse(
    resources.files("tcis").joinpath("data/buildup_6_2.code").read_text()
)
grown = build_up(BuildUpChoice(base=base, t=3, xs=(1, 2, 3), ys=(0, 1, 2)))
print(f"\nbuild-up: [{base.n},{base.k}] -> [{grown.n},{grown.k}], "
      f"3-CIS = {t_cis_partition(grown, 3).is_partition}")
print("grown generator:")
for line in grown.gen.to_strings():
    print(" ", line)

# Subtracting a row reverses the step: back to a 3-CIS [6,2] code.
shrunk = subtract(grown, 3, row=0)
print(f"subtract: [{grown.n},{grown.k}] -> [{shrunk.n},{shrunk.k}], "
      f"3-CIS = {t_cis_partition(shrunk, 3).is_partition}")

# What distance can a [3k, k] 3-CIS code reach?  The partition itself
# forces d >= 3; Singleton and Plotkin push from above.
print("\nbounds for t = 3:")
print(f"  {'k':>2} {'lower':>5} {'singleton':>9} {'plotkin':>7}")
for k in range(1, 7):
    b = bounds(k, 3)
    print(f"  {k:>2} {b.trivial_lower:>5} {b.singleton_upper:>9} "
          f"{b.plotkin_upper:>7}")
b = bounds(4, 3)
print(f"asymptotic GV rate point for t=3: delta = {b.gv_rate_delta:.6f}")

# The mass formula: systematic (I | A | B) codes number |GL(k,2)|^2.  A
# class C of 3-CIS codes holds p(C) (k!)^3 / |PAut(C)| of them, where p(C)
# counts the ordered splittings of its columns into information sets, so
# the sizes of the classified codes add up to |GL(k,2)|^2 only when no
# class is missing or doubled.
rep = mass_formula_check(2, 3)
print(f"\nmass check k=2, t=3: {rep.group_power} systematic codes, "
      f"{len(rep.class_sizes)} classes")
print("class sizes:", rep.class_sizes)
print("sizes sum to |GL(2,2)|^2:", rep.consistent)

# The bundled [243,9] code has a large minimum distance for its rate;
# computing it takes a moment but stays well within reach.
print(f"\n[243,9] minimum distance: {min_distance(big)}")
print("dual distance:", dual_distance(big))
print("self-orthogonal:", is_self_orthogonal(big))
