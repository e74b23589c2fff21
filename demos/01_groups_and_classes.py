"""Build permutation groups and inspect their conjugacy structure.

Every group in this package is a fully enumerated permutation group:
a complete element table with deterministic ids, conjugacy classes,
power maps, derived subgroups and coset quotients.
"""

from charfield import (
    build,
    conjugacy_classes,
    derived_subgroup,
    element_order_spectrum,
    quotient_group,
)

# The spec grammar covers all the families the verifier needs.
for spec in ("C6", "D18", "F20", "A5", "PSL(2,8)", "Sz(8)"):
    g = build(spec)
    cd = conjugacy_classes(g)
    print(f"{spec:10s} order {g.order:6d}  degree {g.degree:3d}  "
          f"classes {cd.k:2d}  sizes {cd.sizes}")
    print(f"{'':10s} element orders per class: {cd.element_orders}")

# Element-order spectra: Sz(8) has orders {2, 4, 5, 7, 13} and exponent 1820.
sz = build("Sz(8)")
print("\nSz(8) spectrum:", element_order_spectrum(sz))

# Derived subgroups and quotients: F20 = C5 : C4 has derived subgroup C5
# and abelianization C4.
f20 = build("F20")
d = derived_subgroup(f20)
q = quotient_group(f20, d)
print(f"\nF20: |G'| = {d.order}, G/G' has order {q.order} "
      f"and spectrum {element_order_spectrum(q)}")

# Power maps answer "which class does g^k land in" without touching
# individual elements.
cd = conjugacy_classes(build("D10"))
print("\nD10 class squaring:", [cd.power_map(i, 2) for i in range(cd.k)])
print("D10 class inversion:", [cd.power_map(i, -1) for i in range(cd.k)])
