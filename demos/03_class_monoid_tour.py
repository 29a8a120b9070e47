#!/usr/bin/env python3
"""The class monoid of a non-maximal order, assembled and audited.

Fractional ideals of an order form a commutative monoid under multiplication
once you pass to equivalence classes; the invertible ones are the Picard
group.  The monoid decomposes as Pic times the classes squeezed between the
conductor and the maximal order, and a brute-force census of stable
sublattices confirms nothing was missed.  Two ideals share a class when one
is a scaling of the other, and is_equivalent returns that scaling.
"""

from orderkit.ideals import (
    FractionalIdeal,
    class_monoid,
    intermediate_classes,
    is_equivalent,
    is_invertible,
    picard_group,
    unit_ideal,
)
from orderkit.intmat import Lattice
from orderkit.numberfield import make_field
from orderkit.orders import is_order, maximal_order


def tour(coeffs, basis, name):
    field = make_field(coeffs)
    gamma = is_order(field, basis) if basis else maximal_order(field)
    print(f"=== {name} (disc {gamma.disc()}) ===")
    pic = picard_group(gamma)
    print(f"Pic: order {pic.order}  (index formula agrees: {pic.h_formula})")
    inter = intermediate_classes(gamma)
    print(f"classes between conductor and maximal order: {len(inter)}")
    monoid = class_monoid(gamma)
    print(f"class monoid size {monoid.size}; conductor norm "
          f"{monoid.conductor_norm}; census audited {monoid.census_checked} "
          f"stable sublattices")
    for idx, c in enumerate(monoid.classes):
        tag = "invertible" if c.invertible else "NOT invertible"
        print(f"  class {idx}: rep basis {c.representative.lattice.basis.entries}"
              f" / {c.representative.lattice.den}  ({tag})")
    print("multiplication table:")
    for row in monoid.table:
        print("   ", list(row))
    print()


# Z[sqrt -3]: index 2 inside the maximal order; the conductor-type ideal
# 2Z + (1 + sqrt-3)Z is the classic non-invertible example.
tour([3, 0, 1], [[1, 0], [0, 1]], "Z[sqrt -3]")

# Z[3i]: Picard group of order 2 and a non-invertible class on top.
tour([1, 0, 1], [[1, 0], [0, 3]], "Z[3i]")

# A maximal order for contrast: the monoid IS the class group.
tour([5, 0, 1], None, "Z[sqrt -5] (maximal, h = 2)")

# And a real quadratic suborder.
tour([-2, 0, 1], [[1, 0], [0, 3]], "Z[3 sqrt 2]")

# Two ideals of Z[sqrt -5] in the non-principal class: is_equivalent returns
# the scaling element x with (3, 1 + sqrt-5) = x (2, 1 + sqrt-5), and None
# against the unit ideal, whose class is the other one.
z5 = maximal_order(make_field([5, 0, 1]))
p2 = FractionalIdeal(z5, Lattice.from_rows([[2, 0], [1, 1]], 2))
p3 = FractionalIdeal(z5, Lattice.from_rows([[3, 0], [1, 1]], 2))
x0, x1 = is_equivalent(p2, p3).coords
print("=== equivalence in Z[sqrt -5] ===")
print(f"(3, 1+sqrt-5) = x (2, 1+sqrt-5) with "
      f"x = {x0} {'-' if x1 < 0 else '+'} {abs(x1)} sqrt-5")
print("(2, 1+sqrt-5) ~ (1):", is_equivalent(p2, unit_ideal(z5)))
