#!/usr/bin/env python3
"""Print the structure of the finite quotients: monomial dimensions, the
character groups with the double-cover restriction map, and the generator
images of the faithful matrix representation."""

import argparse

from slq2.algebra import AlgebraMode, all_monomials, generator
from slq2.hopf import FRepresentation, characters, evaluate_character, restrict_character


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ell", type=int, default=3)
    args = parser.parse_args()
    ell = args.ell

    fmode = AlgebraMode.quotient_f(ell)
    fhat = AlgebraMode.quotient_fhat(ell)
    print(f"dim A(F) = {len(all_monomials(fmode))} (= ell^3)")
    print(f"dim A(Fhat) = {len(all_monomials(fhat))} (= 2 ell^3)")

    a_el = generator(fmode, "a")
    print("\ncharacters of the quotient F (cyclic of order ell):")
    for chi in characters(fmode):
        print(f"  chi_{chi.index}(a) = {evaluate_character(chi, a_el)}")

    print("\ncharacters of the double cover Fhat and their restriction to F:")
    ah = generator(fhat, "a")
    for chi in characters(fhat):
        res = restrict_character(chi)
        print(f"  chi_{chi.index}(a) = {str(evaluate_character(chi, ah)):>12s}   ->   chi_{res.index} of F")

    if ell <= 3:
        rep = FRepresentation(ell)
        print("\nfaithful representation building blocks (J cyclic, Q charge, N nilpotent):")
        for name, mat in [("J", rep.j_matrix), ("Q", rep.q_matrix), ("N", rep.n_matrix)]:
            print(f"  {name}:")
            for row in mat.dense().data:
                print("    [" + ", ".join(str(x) for x in row) + "]")


if __name__ == "__main__":
    main()
