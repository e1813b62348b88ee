"""Compare disc/sphere pair homology for the two line bundles over the
circle.

The cylinder (orientable) shifts the circle's homology up by one
degree, exactly as the Thom isomorphism promises.  The Moebius band
(twisted) does not: its pair homology carries a Z/2 in degree 1, which
is the reduced homology of the projective plane, the band's Thom space.
"""

from mbaudit import (
    BundleDescriptor,
    OrientationCharacter,
    Sphere,
    catalog_complex,
    homology,
    space_dim,
    thom_iso_check,
)


def show(bundle: BundleDescriptor) -> None:
    report = thom_iso_check(bundle)
    kind = "cylinder" if bundle.character is OrientationCharacter.TRIVIAL else "Moebius band"
    print(f"\n{kind} over the circle (rank {bundle.rank}, {bundle.character.value}):")
    for k in range(bundle.rank + space_dim(bundle.base) + 1):
        print(f"  H_{k}(disc bundle, sphere bundle) = {report.pair.group(k)}")
    print(f"  shift of base homology: {'reproduced' if report.holds else 'NOT reproduced'}")


def main() -> None:
    base = Sphere(1)
    print(f"base homology: {homology(catalog_complex(base)).poincare_polynomial()} in t")
    show(BundleDescriptor(base, 1, OrientationCharacter.TRIVIAL))
    show(BundleDescriptor(base, 1, OrientationCharacter.NONTRIVIAL))
    print(
        "\nThe degree-1 torsion class on the Moebius side is what the "
        "untwisted count in the ambient audit silently miscounts."
    )


if __name__ == "__main__":
    main()
