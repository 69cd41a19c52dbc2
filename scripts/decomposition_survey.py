#!/usr/bin/env python3
"""Survey the ell = 3 tensor product decompositions: all pairs from the
fractional series, the classical ladder, and the spinor-containment report
for triple products (can a fundamental spinor be built from three anyons?)."""

from slq2.corep import (
    build_v,
    build_w,
    build_y,
    decompose,
    hom_space,
    tensor,
    tree_layers,
)
from slq2.verify import _w1_embedding_into_y3_cube


def main():
    ell = 3
    v = {m: build_v(m, ell) for m in range(3)}
    w = {n: build_w(n, ell) for n in range(5)}

    print("pairs of the fractional series:")
    for m in range(3):
        for mp in range(3):
            tree = decompose(tensor(v[m], v[mp]))
            print(f"  V{m} (x) V{mp} = {tree.notation()}")

    print("\nclassical ladder (n + n' <= 4):")
    for n in range(5):
        for npr in range(5 - n):
            tree = decompose(tensor(w[n], w[npr]))
            print(f"  W{n} (x) W{npr} = {tree.notation()}")

    print("\nspinor containment in triple products:")
    w1 = w[1]
    for name, cube in [
        ("V1^3", tensor(tensor(v[1], v[1]), v[1])),
        ("V2^3", tensor(tensor(v[2], v[2]), v[2])),
    ]:
        embeds = bool(hom_space(w1, cube))
        layers = tree_layers(decompose(cube))
        occurs = any("W1" in layer for layer in layers)
        print(f"  {name}: W1 embeds: {embeds}; W1 among constituents: {occurs}; layers: {layers}")

    y3 = build_y(3, ell)
    cube = tensor(tensor(y3, y3), y3)
    t = _w1_embedding_into_y3_cube(y3, cube)
    print(f"  Y3^3: explicit W1 embedding found: {t is not None}")


if __name__ == "__main__":
    main()
