#!/usr/bin/env python3
"""Print the V-series braiding tables at ell = 3 under both extension
conventions, the eigenstructure of the V1-V1 braiding, and (exploratory)
the braiding spectra of the fractional series at ell = 5."""

import argparse

from slq2.braid import (
    ORDERED_CONVENTION,
    STRUCTURAL_CONVENTION,
    braiding_matrix,
    eigenstructure_check_v1v1,
)
from slq2.corep import build_v
from slq2.linalg import rank, ScalarMatrix, SparseMatrix
from slq2.cyclo import q_half_power


def show(bm, title):
    print(f"\n{title}")
    width = max(len(str(x)) for row in bm.matrix.data for x in row)
    for label, row in zip(bm.row_labels, bm.matrix.data):
        print(f"  {label:>12s} | " + "  ".join(str(x).rjust(width) for x in row))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ell", type=int, default=3)
    args = parser.parse_args()
    ell = args.ell

    v = {m: build_v(m, ell) for m in range(min(3, ell))}
    for convention in (ORDERED_CONVENTION, STRUCTURAL_CONVENTION):
        print(f"\n==== convention: {convention} ====")
        for left, right in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            bm = braiding_matrix(v[left], v[right], convention)
            show(bm, f"Psi: V{right} (x) V{left} -> V{left} (x) V{right}")

    if ell == 3:
        report = eigenstructure_check_v1v1(3)
        print("\nV1-V1 eigenstructure:")
        print("  a(x)c - q c(x)a fixed:", report.fixed_vector_ok)
        print("  q^-1/2 eigenspace spanned by a(x)a, q a(x)c + c(x)a, c(x)c:", report.eigenspace_ok)
        print("  eigenspace dimension exactly 3:", report.eigenspace_exact)
    else:
        # exploratory: eigenvalue structure of the V1-V1 braiding at other ell
        psi = braiding_matrix(v[1], v[1]).matrix
        s = q_half_power(ell, -1)
        shifted = SparseMatrix.from_dense(ScalarMatrix.from_rows(
            ell, [[x - s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(psi.data)]
        ))
        print(f"\nexploratory: rank(Psi_V1V1 - q^(-1/2)) = {rank(shifted)} of {psi.rows}")


if __name__ == "__main__":
    main()
