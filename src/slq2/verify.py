"""Machine verification suites for every headline claim of the library.

Each claim function takes ``ells``, the root orders it sweeps (its default
is the claim's own), and returns a ClaimResult with a stable id, a pass
flag and a witness payload.  ``CLAIMS`` groups them into suites (braid,
corep, hopf, props) and names the largest ell each supports; the CLI runs
the suites and the acceptance tests assert the claims one by one.
``VerificationReport.to_json`` is a report's JSON form without a schema
version, which the CLI's writer adds.

Conventions used by the braiding claims:

* the reference-table comparison runs under the ``ordered`` pairing
  convention, the one that reproduces the reference tables;
* the braid-relation/hexagon claim runs under the ``structural``
  convention, the well-defined coquasitriangular extension for which
  those identities provably hold (they fail for the table-reproducing
  convention, see ``slq2.braid``).

Two corner entries of the 9x9 V2-V2 reference table deserve a note: at
(a2 (x) c2 -> c2 (x) a2) and (c2 (x) c2 -> c2 (x) c2) the recursion
collapses to a single path, so every extension convention forces the
values q^2 and q there; the swapped assignment sometimes quoted for this
table is impossible.  The frozen table carries the forced values and the
claim witness records them.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from . import algebra, corep
from .algebra import (
    AlgebraMode,
    NormalMonomial,
    all_monomials,
    from_word,
    is_central,
    monomial_element,
    monomials_of_degree,
    multiply,
    unit,
)
from .braid import (
    ORDERED_CONVENTION,
    STRUCTURAL_CONVENTION,
    braiding_matrix,
    check_braid_relation,
    check_hexagon,
    check_naturality,
    eigenstructure_check_v1v1,
    statistics_sign,
)
from .corep import (
    _irr_corep,
    build_v,
    build_w,
    build_y,
    character_peel,
    hom_space,
    irreducibility_certificate,
    quotient_corep,
    restrict_corep,
    span_of_basis_indices,
    standard_y_subspace_indices,
    subcomodule_check,
    tensor,
    tree_flag,
    tree_layers,
    DirectSum,
    Extension,
    Irr,
    Leaf,
)
from .cyclo import CyclotomicScalar, q_binomial, q_half_power, q_power
from .hopf import (
    FRepresentation,
    character,
    characters,
    check_hopf_axioms,
    coinvariance_check,
    convolve,
    counit,
    evaluate_character,
    restrict_character,
)
from .linalg import ScalarMatrix, SparseMatrix, _add_multiple, is_invertible, rank


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    witness: dict = field(default_factory=dict)
    skipped: bool = False  # not run: a swept ell is above the claim's largest

    @property
    def status(self) -> str:
        return "skip" if self.skipped else "pass" if self.passed else "fail"


@dataclass
class VerificationReport:
    suite: str
    claims: list[ClaimResult]

    @property
    def all_passed(self) -> bool:
        """No claim failed; skipped claims ran nothing and fail nothing."""
        return all(c.passed or c.skipped for c in self.claims)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.all_passed,
            "claims": [
                {
                    "id": c.claim_id,
                    "description": c.description,
                    "status": c.status,
                    "witness": c.witness,
                }
                for c in self.claims
            ],
        }


# ---------------------------------------------------------------------------
# frozen reference braiding tables (ell = 3)
# ---------------------------------------------------------------------------

def reference_braiding_tables(ell: int = 3) -> dict[str, ScalarMatrix]:
    """The four frozen reference braiding tables of the V series.

    Keys "11", "12", "21", "22"; table "12" maps V2 (x) V1 -> V1 (x) V2 and
    "21" the reverse, matching braiding_matrix(V1, V2) resp. (V2, V1).
    The two recursion-forced corner entries of table "22" are listed in
    ``REFERENCE_22_CORRECTIONS``."""
    q = lambda k: q_power(ell, k)
    s = lambda j: q_half_power(ell, j)
    Z = CyclotomicScalar.zero(ell)
    O = CyclotomicScalar.one(ell)
    m = lambda rows: ScalarMatrix.from_rows(ell, rows)
    t11 = m([
        [s(-1), Z, Z, Z],
        [Z, Z, s(1), Z],
        [Z, s(1), O + s(-1), Z],
        [Z, Z, Z, s(-1)],
    ])
    t12 = m([
        [q(2), Z, Z, Z, Z, Z],
        [Z, Z, Z, q(1), Z, Z],
        [Z, O, Z, q(2) - q(1), Z, Z],
        [Z, Z, Z, Z, O, Z],
        [Z, Z, q(1), Z, O - q(1), Z],
        [Z, Z, Z, Z, Z, q(2)],
    ])
    t21 = m([
        [q(2), Z, Z, Z, Z, Z],
        [Z, Z, O, Z, Z, Z],
        [Z, Z, Z, Z, q(1), Z],
        [Z, q(1), q(1) - q(2), Z, Z, Z],
        [Z, Z, Z, O, O - q(2), Z],
        [Z, Z, Z, Z, Z, q(2)],
    ])
    t22 = m([
        [q(1), Z, Z, Z, Z, Z, Z, Z, Z],
        [Z, Z, Z, O, Z, Z, Z, Z, Z],
        [Z, Z, Z, Z, Z, Z, q(2), Z, Z],  # single recursion path forces q^2 here
        [Z, O, Z, O - q(1), Z, Z, Z, Z, Z],
        [Z, Z, Z, Z, O, Z, O - q(2), Z, Z],
        [Z, Z, Z, Z, Z, Z, Z, O, Z],
        [Z, Z, q(2), Z, q(1) - O, Z, -((q(1) - O) ** 2), Z, Z],
        [Z, Z, Z, Z, Z, O, Z, O - q(1), Z],
        [Z, Z, Z, Z, Z, Z, Z, Z, q(1)],  # single recursion path forces q here
    ])
    return {"11": t11, "12": t12, "21": t21, "22": t22}


REFERENCE_22_CORRECTIONS = [
    {"row": "a2(x)c2", "col": "c2(x)a2", "forced": "q^2", "rejected": "q"},
    {"row": "c2(x)c2", "col": "c2(x)c2", "forced": "q", "rejected": "q^2"},
]


# ---------------------------------------------------------------------------
# independent left-multiplication oracle for the rewriting engine
# ---------------------------------------------------------------------------

def _left_times_generator(ell: int, g: str, mono: NormalMonomial):
    """Normal form of g * mono, with rules derived from the left-hand side
    of the relations (the production engine multiplies on the right, so this
    is an independent reduction path)."""
    q = lambda k: q_power(ell, k)
    t, j, k = mono
    if g == "a":
        if t >= 0:
            return [(NormalMonomial(t + 1, j, k), q(0))]
        # a b^j c^k d^m = q^(j+k) b^j c^k d^(m-1) + q^(j+k+1) b^(j+1) c^(k+1) d^(m-1)
        return [
            (NormalMonomial(t + 1, j, k), q(j + k)),
            (NormalMonomial(t + 1, j + 1, k + 1), q(j + k + 1)),
        ]
    if g == "b":
        coeff = q(-t) if t > 0 else q(0)
        return [(NormalMonomial(t, j + 1, k), coeff)]
    if g == "c":
        coeff = q(-t) if t > 0 else q(0)
        return [(NormalMonomial(t, j, k + 1), coeff)]
    if g == "d":
        if t <= 0:
            return [(NormalMonomial(t - 1, j, k), q(-(j + k)))]
        # d a^t b^j c^k = a^(t-1) b^j c^k + q^(1-2t) a^(t-1) b^(j+1) c^(k+1)
        return [
            (NormalMonomial(t - 1, j, k), q(0)),
            (NormalMonomial(t - 1, j + 1, k + 1), q(1 - 2 * t)),
        ]
    raise ValueError(f"unknown generator {g!r}")


def reverse_fold_normal_form(ell: int, word: tuple[str, ...]) -> dict[NormalMonomial, CyclotomicScalar]:
    """Normalise a free word by folding right to left with the independent
    left-multiplication rules."""
    terms: dict[NormalMonomial, CyclotomicScalar] = {NormalMonomial(0, 0, 0): CyclotomicScalar.one(ell)}
    for g in reversed(word):
        nxt: dict[NormalMonomial, CyclotomicScalar] = {}
        for mono, coeff in terms.items():
            for m2, c2 in _left_times_generator(ell, g, mono):
                acc = nxt.get(m2)
                val = coeff * c2 if acc is None else acc + coeff * c2
                nxt[m2] = val
        terms = {m: c for m, c in nxt.items() if not c.is_zero()}
    return terms


def _random_bracketing(mode: AlgebraMode, word: tuple[str, ...], rng: random.Random):
    """Normalise a word by recursively splitting it at random positions and
    multiplying the normalised halves, exercising arbitrary reduction orders."""
    if len(word) == 0:
        return unit(mode)
    if len(word) == 1:
        return algebra.generator(mode, word[0])
    cut = rng.randint(1, len(word) - 1)
    return multiply(_random_bracketing(mode, word[:cut], rng), _random_bracketing(mode, word[cut:], rng))


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def _at(ells) -> str:
    """The swept root orders for a description: "ell=3", "ell in {3, 5}"."""
    return f"ell={ells[0]}" if len(ells) == 1 else f"ell in {{{', '.join(map(str, ells))}}}"


def claim_braiding_tables(ells=(3,)) -> ClaimResult:
    """The four V-series braiding matrices reproduce the reference tables
    entry for entry under the ordered convention and the chosen root branch.
    The reference tables exist at ell = 3 only."""
    matched = dict.fromkeys(("11", "12", "21", "22"), True)
    invertible = True
    for ell in ells:
        refs = reference_braiding_tables(ell)
        v1 = build_v(1, ell)
        v2 = build_v(2, ell)
        pairs = {"11": (v1, v1), "12": (v1, v2), "21": (v2, v1), "22": (v2, v2)}
        for key, (left, right) in pairs.items():
            got = braiding_matrix(left, right, ORDERED_CONVENTION).matrix
            matched[key] = matched[key] and got == refs[key]
            invertible = invertible and is_invertible(SparseMatrix.from_dense(got))
    passed = all(matched.values()) and invertible
    return ClaimResult(
        "braiding-tables",
        f"V-series braiding matrices at {_at(ells)} equal the reference tables exactly",
        passed,
        {
            "matched": matched,
            "invertible": invertible,
            "corrected_reference_entries": REFERENCE_22_CORRECTIONS,
        },
    )


def claim_braiding_eigenstructure(ells=(3,)) -> ClaimResult:
    """Fixed vector and exact q^-1/2 eigenspace of the V1-V1 braiding; this
    also pins the square root branch of q.  The vector is fixed at ell = 3
    only."""
    fixed = eigenspace = exact = branch_matters = True
    for ell in ells:
        report = eigenstructure_check_v1v1(ell, ORDERED_CONVENTION)
        fixed = fixed and report.fixed_vector_ok
        eigenspace = eigenspace and report.eigenspace_ok
        exact = exact and report.eigenspace_exact
        # R(b,c) = s^-1 - s^ell is 1 + q^-1/2 on the chosen branch s = -q^((ell+1)/2)
        # (s^ell = -1); the rejected branch +q^((ell+1)/2) would change it
        s_alt = q_power(ell, (ell + 1) // 2)
        w_alt = s_alt.inverse() - s_alt**ell
        branch_matters = branch_matters and w_alt != CyclotomicScalar.one(ell) + s_alt.inverse()
    return ClaimResult(
        "braiding-eigenstructure",
        "a(x)c - q c(x)a is fixed; span{a(x)a, q a(x)c + c(x)a, c(x)c} is the exact q^-1/2 eigenspace",
        fixed and eigenspace and exact and branch_matters,
        {
            "fixed_vector": fixed,
            "eigenspace": eigenspace,
            "eigenspace_exact_dimension": exact,
            "rejected_branch_fails": branch_matters,
        },
    )


def claim_spin_statistics(ells=(3, 5)) -> ClaimResult:
    """Psi is (-1)^(n n') times the flip on W_n (x) W_n' and (-1)^(m n) times
    the flip on V_m (x) W_n."""
    failures = []
    checked = 0
    for ell in ells:
        for n in range(4):
            for npr in range(4):
                got = statistics_sign(build_w(n, ell), build_w(npr, ell))
                checked += 1
                if got != (-1) ** (n * npr):
                    failures.append(("W", ell, n, npr, got))
        for m in range(ell):
            for n in range(4):
                got = statistics_sign(build_v(m, ell), build_w(n, ell))
                checked += 1
                if got != (-1) ** (m * n):
                    failures.append(("VW", ell, m, n, got))
    return ClaimResult(
        "spin-statistics",
        "braidings with the classical W series are signed flips with the spin-statistics signs",
        not failures,
        {"checked": checked, "failures": failures},
    )


def claim_braid_hexagon(ells=(3,)) -> ClaimResult:
    """Braid relation and both hexagons on all 27 triples from {V1, V2, W1},
    under the structural (well-defined) pairing convention."""
    braid_fail = []
    hex_fail = []
    nat_ok = True
    for ell in ells:
        v0, v1, v2, w1 = build_v(0, ell), build_v(1, ell), build_v(2, ell), build_w(1, ell)
        fam = [v1, v2, w1]
        for a in fam:
            for b in fam:
                for c in fam:
                    key = (ell, a.family, b.family, c.family)
                    if not check_braid_relation(a, b, c, STRUCTURAL_CONVENTION):
                        braid_fail.append(key)
                    if not check_hexagon(a, b, c, STRUCTURAL_CONVENTION):
                        hex_fail.append(key)
        # naturality for intertwiners out of tensor squares
        for target, amb in [(v0, tensor(v1, v1)), (v2, tensor(v1, v1))]:
            for t in hom_space(target, amb):
                for b in fam:
                    if not check_naturality(t, target, amb, b, STRUCTURAL_CONVENTION):
                        nat_ok = False
    passed = not braid_fail and not hex_fail and nat_ok
    return ClaimResult(
        "braid-hexagon",
        f"braid relation and hexagon identities hold exactly on {{V1,V2,W1}}^3 at {_at(ells)}",
        passed,
        {
            "convention": STRUCTURAL_CONVENTION,
            "braid_failures": braid_fail,
            "hexagon_failures": hex_fail,
            "naturality": nat_ok,
            "note": "the table-reproducing convention is not relation-invariant and fails these",
        },
    )


def claim_tensor_decomposition_l3(ells=(3,)) -> ClaimResult:
    """The ell = 3 tensor product table of the V series, the classical
    Clebsch-Gordan ladder for the W series, and the fermion-from-anyons
    statements about triple tensor products.

    Two structural facts certified here deserve emphasis: the middle
    constituent of V2 (x) V2 is the 4-dimensional irreducible W1 (x) V1,
    not the direct sum W1 (+) V1 (a weight count over the character grading
    rules the sum out), and consequently the V2 cube has no spinor
    constituent at all; the V1 cube does contain the spinor, as a
    subquotient but never a subcomodule.

    Every tree is also checked against the torus character: its
    composition series must be the multiset ``character_peel`` names.
    The expected trees are ell = 3 facts, so the claim supports ell = 3
    only; the driver (``decompose``) runs at every odd ell."""
    problems = []
    for ell in ells:
        layers_v1, v2_cube_factors = _tensor_decomposition_at(ell, problems)
    return ClaimResult(
        "tensor-decomposition-l3",
        f"{_at(ells)} decomposition table, W-series ladder, and spinor containment in triple products",
        not problems,
        {
            "problems": problems,
            "v2v2_flag": ["V0", "V2", "W1*V1", "V0"],
            "v2v2_middle": "the irreducible W1 (x) V1; the direct sum W1 (+) V1 is ruled out by weights",
            "v1_cube_layers": layers_v1,
            "v2_cube_factors": v2_cube_factors,
            "v2_cube_note": "no spinor constituent at all, so it cannot occur as a subquotient either",
        },
    )


def _tensor_decomposition_at(ell: int, problems: list[str]) -> tuple[list[list[str]], list[str]]:
    """The checks of claim_tensor_decomposition_l3 at one root order: append
    what fails to ``problems``; return the layers of the V1 cube and the
    composition factors of the V2 cube."""
    v = {m: build_v(m, ell) for m in range(3)}
    w = {n: build_w(n, ell) for n in range(5)}

    def decompose(c):
        tree = corep.decompose(c)
        peel = character_peel(c)
        expected = None if peel is None else sorted(irr.name for irr in peel)
        if sorted(tree_flag(tree)) != expected:
            problems.append(f"{c.family}: composition series {tree_flag(tree)} but character peel {expected}")
        return tree

    # V0 (x) X and X (x) V0
    for m in range(3):
        for a, b in [(v[0], v[m]), (v[m], v[0])]:
            tree = decompose(tensor(a, b))
            if not (isinstance(tree, Leaf) and tree.irr.name == f"V{m}"):
                problems.append(f"{a.family} x {b.family} pattern")

    t = decompose(tensor(v[1], v[1]))
    if not (isinstance(t, DirectSum) and tree_flag(t) == ["V0", "V2"]):
        problems.append("V1xV1 != V0 (+) V2")

    for a, b in [(v[1], v[2]), (v[2], v[1])]:
        t = decompose(tensor(a, b))
        if not (isinstance(t, Extension) and tree_flag(t) == ["V1", "W1", "V1"]):
            problems.append(f"{a.family}x{b.family} != V1 (/) W1 (/) V1")

    # V2 x V2: the greedy decomposition embeds V0, then V2 splits off beside W1 x V1
    # over V0 (not a socle series: the socle is V0 (+) V2)
    t = decompose(tensor(v[2], v[2]))
    expected_tree = Extension(
        Leaf(corep.Irr(0, 0)),
        DirectSum((Leaf(corep.Irr(0, 2)), Extension(Leaf(corep.Irr(1, 1)), Leaf(corep.Irr(0, 0))))),
    )
    if t != expected_tree or tree_flag(t) != ["V0", "V2", "W1*V1", "V0"]:
        problems.append(f"V2xV2 filtration: got {t.notation()}")

    # opposite orders give the same layer structure for all nine pairs
    for m in range(3):
        for mp in range(3):
            one = tree_layers(decompose(tensor(v[m], v[mp])))
            two = tree_layers(decompose(tensor(v[mp], v[m])))
            if one != two:
                problems.append(f"V{m}xV{mp} not equivalent to the opposite order")

    # classical ladder for the W series, n + n' <= 4
    for n in range(5):
        for npr in range(5 - n):
            t = decompose(tensor(w[n], w[npr]))
            expected = [f"W{k}" if k else "V0" for k in range(abs(n - npr), n + npr + 1, 2)]
            got = tree_layers(t)
            if got != [sorted(expected)]:
                problems.append(f"W{n}xW{npr}: got {got}")

    # fermion from anyons: the spinor never embeds into the V cubes
    w1 = w[1]
    cube_v1 = tensor(tensor(v[1], v[1]), v[1])
    cube_v2 = tensor(tensor(v[2], v[2]), v[2])
    for cube in (cube_v1, cube_v2):
        if hom_space(w1, cube):
            problems.append(f"W1 embeds in {cube.family}")
    layers_v1 = tree_layers(decompose(cube_v1))
    if "W1" in layers_v1[0] or not any("W1" in layer for layer in layers_v1[1:]):
        problems.append(f"W1 subquotient pattern wrong in the V1 cube: {layers_v1}")
    layers_v2 = tree_layers(decompose(cube_v2))
    v2_cube_factors = sorted(name for layer in layers_v2 for name in layer)

    # ... while the Y3 cube contains W1 as a genuine subcorepresentation
    y3 = build_y(3, ell)
    cube_y3 = tensor(tensor(y3, y3), y3)
    embed = _w1_embedding_into_y3_cube(y3, cube_y3)
    if embed is None:
        problems.append("no explicit W1 embedding into Y3^3 found")
    return layers_v1, v2_cube_factors


def _w1_embedding_into_y3_cube(y3, cube):
    """Compose W1 -> W1^3 with the cube of the inclusion W1 = span{a^3, c^3}
    into Y3: the composite t when it is an injective comodule map, else
    None.  It is one exactly when its rows are independent and span a
    subcomodule whose coaction in that basis is rho^W1, i.e.
    rho^W1 t = t rho^cube (``restrict_corep``)."""
    ell = y3.ell
    w1 = build_w(1, ell)
    into_cube_of_w1 = hom_space(w1, tensor(tensor(w1, w1), w1))
    if not into_cube_of_w1:
        return None
    one = CyclotomicScalar.one(ell)
    incl = SparseMatrix(ell, 2, 4, [{0: one}, {3: one}])  # a^3, c^3 are basis vectors 0 and 3 of Y3
    t = SparseMatrix.from_dense(into_cube_of_w1[0]) * incl.kron(incl).kron(incl)
    try:
        image = restrict_corep(cube, t.dense().data)
    except ValueError:  # dependent rows, or their span is not a subcomodule
        return None
    return t if image.rho == w1.rho else None


def claim_irreducibility_certificates(ells=(3, 5)) -> ClaimResult:
    """At each swept ell: rank certificates for the irreducible families V_m
    and W_n (x) V_m (n <= 2), the reducible Y_ell, the identification of
    Y_(2 ell - 1) with W1 (x) V_(ell-1), and the subcomodule/quotient
    filtration of the higher Y's."""
    problems = []
    for ell in ells:
        for m in range(ell):
            cert = irreducibility_certificate(build_v(m, ell))
            if not cert.independent:
                problems.append(f"V{m} at ell={ell} not certified")

        # the mixed family W_n (x) V_m (n <= 2, m <= ell-1)
        for n in (1, 2):
            for m in range(ell):
                cert = irreducibility_certificate(_irr_corep(Irr(n, m), ell))
                if not cert.independent:
                    problems.append(f"W{n} x V{m} at ell={ell} not certified")

        # indecomposable-but-not-irreducible witness
        if irreducibility_certificate(build_y(ell, ell)).independent:
            problems.append(f"Y{ell} at ell={ell} unexpectedly certified irreducible")

        # Y_(2 ell - 1) is irreducible and equivalent to W1 (x) V_(ell-1)
        m = 2 * ell - 1
        y = build_y(m, ell)
        if not irreducibility_certificate(y).independent:
            problems.append(f"Y{m} at ell={ell} not certified irreducible")
        homs = hom_space(y, _irr_corep(Irr(1, ell - 1), ell))
        if not any(is_invertible(SparseMatrix.from_dense(t)) for t in homs):
            problems.append(f"no invertible intertwiner Y{m} -> W1 x V{ell - 1} at ell={ell}")

        for m0 in range(ell - 1):
            for m1 in (1, 2):
                msg = _check_y_filtration(ell, m0, m1)
                if msg:
                    problems.append(msg)

    return ClaimResult(
        "irreducibility-certificates",
        "rank certificates for V/W(x)V families; socle and quotient of the reducible Y's",
        not problems,
        {"problems": problems},
    )


def _check_y_filtration(ell: int, m0: int, m1: int) -> str | None:
    """Y_{m0 + ell m1} has the subcomodule W_{m1} (x) V_{m0} on the basis
    vectors with h mod ell <= m0, and the quotient is W_{m1-1} (x) V_{ell-2-m0}."""
    m = m0 + ell * m1
    y = build_y(m, ell)
    indices = standard_y_subspace_indices(m, ell)
    sub = span_of_basis_indices(y, indices)
    if not subcomodule_check(y, sub):
        return f"standard subspace of Y{m} (ell={ell}) is not a subcomodule"
    restricted = restrict_corep(y, sub)
    model = _irr_corep(Irr(m1, m0), ell)
    # index bijection (h1, h0) <-> h = ell h1 + h0 is order preserving, so the
    # restricted matrix must literally equal the tensor model matrix
    if restricted.rho != model.rho:
        return f"sub of Y{m} (ell={ell}) does not match W{m1} x V{m0} entrywise"
    quot = quotient_corep(y, sub)
    homs = hom_space(quot, _irr_corep(Irr(m1 - 1, ell - 2 - m0), ell))
    if not any(is_invertible(SparseMatrix.from_dense(t)) for t in homs):
        return f"quotient of Y{m} (ell={ell}) is not W{m1-1} x V{ell-2-m0}"
    return None


def claim_qbinomial_factorization(ells=(3, 5)) -> ClaimResult:
    """Root-of-unity factorization of the q^-2 binomials: (m r) splits as the
    classical binomial of the ell-digits times the small q-binomial, and
    vanishes exactly when the small digit of r exceeds that of m."""
    failures = []
    checked = 0
    for ell in ells:
        for m in range(3 * ell + 1):
            for r in range(m + 1):
                m0, m1 = m % ell, m // ell
                r0, r1 = r % ell, r // ell
                got = q_binomial(ell, m, r, -2)
                expected = q_binomial(ell, m0, r0, -2) * math.comb(m1, r1)
                checked += 1
                if got != expected:
                    failures.append((ell, m, r))
                if got.is_zero() != (r0 > m0):
                    failures.append((ell, m, r, "vanishing"))
    return ClaimResult(
        "qbinomial-factorization",
        f"digit factorization of q-binomials for all 0 <= r <= m <= 3 ell at {_at(ells)}",
        not failures,
        {"checked": checked, "failures": failures},
    )


CONFLUENCE_WORDS = 1000
CONFLUENCE_SEED = 12345


def claim_hopf_axioms_confluence(ells=(3, 5)) -> ClaimResult:
    """Coassociativity, counit and antipode axioms on every PBW monomial of
    degree <= 4 at each swept ell, plus confluence of the rewriting engine
    against an independent string rewriter on CONFLUENCE_WORDS random words
    at ell = 3."""
    failures = []
    checked = 0
    for ell in ells:
        mode = AlgebraMode.generic(ell)
        for mono in monomials_of_degree(4):
            rep = check_hopf_axioms(monomial_element(mode, mono))
            checked += 1
            if not rep.all_ok:
                failures.append((ell, mono))

    rng = random.Random(CONFLUENCE_SEED)
    mode3 = AlgebraMode.generic(3)
    mismatches = 0
    for _ in range(CONFLUENCE_WORDS):
        length = rng.randint(1, 8)
        word = tuple(rng.choice("abcd") for _ in range(length))
        engine = from_word(mode3, [(g, 1) for g in word]).terms
        independent = reverse_fold_normal_form(3, word)
        bracketed = _random_bracketing(mode3, word, rng).terms
        if not (engine == independent == bracketed):
            mismatches += 1
    return ClaimResult(
        "hopf-axioms-confluence",
        "Hopf axioms on all monomials of degree <= 4; rewriting confluent on random words",
        not failures and mismatches == 0,
        {"axiom_checks": checked, "axiom_failures": failures, "word_count": CONFLUENCE_WORDS, "word_mismatches": mismatches},
    )


def claim_finite_quotient_structure(ells=(3, 5)) -> ClaimResult:
    """Dimension and the character groups of the finite quotients at each
    swept ell, and the faithful matrix representation of F at ell = 3."""
    problems = []

    for ell in ells:
        fmode = AlgebraMode.quotient_f(ell)
        fhat = AlgebraMode.quotient_fhat(ell)
        if len(all_monomials(fmode)) != ell**3:
            problems.append(f"F dimension at ell={ell}")
        if len(all_monomials(fhat)) != 2 * ell**3:
            problems.append(f"Fhat dimension at ell={ell}")

        # characters of F form Z_ell with chi_i(a) = q^i
        chars = characters(fmode)
        a_el = algebra.generator(fmode, "a")
        d_el = algebra.generator(fmode, "d")
        for chi in chars:
            if evaluate_character(chi, a_el) != q_power(ell, chi.index):
                problems.append(f"chi_{chi.index}(a) wrong at ell={ell}")
            if evaluate_character(chi, d_el) != q_power(ell, -chi.index):
                problems.append(f"chi_{chi.index}(d) wrong at ell={ell}")
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                expected = (i + j - 1) % ell + 1
                if convolve(character(fmode, i), character(fmode, j)).index != expected:
                    problems.append(f"F convolution {i},{j} at ell={ell}")
        if any(
            evaluate_character(character(fmode, ell), algebra.monomial_element(fmode, mono))
            != counit(algebra.monomial_element(fmode, mono))
            for mono in list(all_monomials(fmode))[:: max(1, ell)]
        ):
            problems.append(f"chi_ell != counit at ell={ell}")

        # characters of Fhat form Z_2ell and surject onto Z_ell with kernel of order 2
        hchars = characters(fhat)
        if len(hchars) != 2 * ell:
            problems.append(f"Fhat character count at ell={ell}")
        for i in range(1, 2 * ell + 1):
            for j in range(1, 2 * ell + 1):
                expected = (i + j - 1) % (2 * ell) + 1
                if convolve(character(fhat, i), character(fhat, j)).index != expected:
                    problems.append(f"Fhat convolution {i},{j} at ell={ell}")
        restriction = {chi.index: restrict_character(chi).index for chi in hchars}
        image = set(restriction.values())
        kernel_size = sum(1 for v in restriction.values() if v == ell)
        if image != set(range(1, ell + 1)) or kernel_size != 2:
            problems.append(f"character restriction at ell={ell}")
        for i in range(1, 2 * ell + 1):
            for j in range(1, 2 * ell + 1):
                lhs = restrict_character(convolve(character(fhat, i), character(fhat, j)))
                rhs = convolve(restrict_character(character(fhat, i)), restrict_character(character(fhat, j)))
                if lhs != rhs:
                    problems.append(f"restriction not a homomorphism at ell={ell}")

    # the faithful representation at ell = 3
    ell = 3
    rep = FRepresentation(ell)
    fmode = AlgebraMode.quotient_f(ell)
    a, b, c, d = (rep.of(algebra.generator(fmode, g)) for g in "abcd")
    q = q_power(ell, 1)
    one = CyclotomicScalar.one(ell)
    eye = SparseMatrix.identity(ell, ell**3)
    # each relation as the terms (coefficient, matrix) of a sum that must vanish
    relations = {
        "ab=qba": [(one, a * b), (-q, b * a)],
        "ac=qca": [(one, a * c), (-q, c * a)],
        "bd=qdb": [(one, b * d), (-q, d * b)],
        "cd=qdc": [(one, c * d), (-q, d * c)],
        "bc=cb": [(one, b * c), (-one, c * b)],
        "ad-da=(q-q^-1)bc": [(one, a * d), (-one, d * a), (q.inverse() - q, b * c)],
        "ad-qbc=1": [(one, a * d), (-q, b * c), (-one, eye)],
        "a^l=1": [(one, _matrix_power(a, ell)), (-one, eye)],
        "d^l=1": [(one, _matrix_power(d, ell)), (-one, eye)],
        "b^l=0": [(one, _matrix_power(b, ell))],
        "c^l=0": [(one, _matrix_power(c, ell))],
    }
    for name, terms in relations.items():
        if not _vanishes(terms):
            problems.append(f"representation breaks {name}")

    flat = [_flattened(rep.of(algebra.monomial_element(fmode, mono))) for mono in all_monomials(fmode)]
    if rank(SparseMatrix(ell, len(flat), ell**6, flat)) != ell**3:
        problems.append("representation not faithful")

    # reduced quantum plane: the algebra generated by Q and J has dimension ell^2
    span = [
        _flattened(_matrix_power(rep.q_matrix, i) * _matrix_power(rep.j_matrix, j))
        for i in range(ell) for j in range(ell)
    ]
    if rank(SparseMatrix(ell, len(span), ell**2, span)) != ell**2:
        problems.append("reduced quantum plane dimension")

    return ClaimResult(
        "finite-quotient-structure",
        "dimensions, faithful representation, and character groups of the finite quotients",
        not problems,
        {"problems": problems},
    )


def _matrix_power(m: SparseMatrix, k: int) -> SparseMatrix:
    out = SparseMatrix.identity(m.ell, m.rows)
    for _ in range(k):
        out = out * m
    return out


def _vanishes(terms: list[tuple[CyclotomicScalar, SparseMatrix]]) -> bool:
    """True iff the sum of c M over the terms (c, M) is zero, summed row by row."""
    for i in range(terms[0][1].rows):
        row: dict[int, CyclotomicScalar] = {}
        for coeff, matrix in terms:
            _add_multiple(row, coeff, matrix.data[i])
        if row:
            return False
    return True


def _flattened(m: SparseMatrix) -> dict[int, CyclotomicScalar]:
    """The entries of ``m`` as one sparse row, row after row."""
    return {i * m.cols + j: x for i, row in enumerate(m.data) for j, x in row.items()}


def claim_coinvariance(ells=(3, 5)) -> ClaimResult:
    """Centrality of the ell-th powers and coinvariance of their monomials
    under the quotient coactions (even ones only, for the double cover)."""
    problems = []
    for ell in ells:
        mode = AlgebraMode.generic(ell)
        fmode = AlgebraMode.quotient_f(ell)
        fhat = AlgebraMode.quotient_fhat(ell)
        powers = {
            "alpha": from_word(mode, [("a", ell)]),
            "beta": from_word(mode, [("b", ell)]),
            "gamma": from_word(mode, [("c", ell)]),
            "delta": from_word(mode, [("d", ell)]),
        }
        for name, el in powers.items():
            if not is_central(el):
                problems.append(f"{name} not central at ell={ell}")

        def power_monomial(i, j, k, l):
            return from_word(mode, [("a", ell * i), ("b", ell * j), ("c", ell * k), ("d", ell * l)])

        samples = [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1),
            (2, 0, 0, 0), (0, 0, 2, 0), (1, 1, 1, 0),
        ]
        for i, j, k, l in samples:
            el = power_monomial(i, j, k, l)
            if not coinvariance_check(el, fmode):
                problems.append(f"ell-power monomial {(i,j,k,l)} not F-coinvariant at ell={ell}")
            even = (i + j + k + l) % 2 == 0
            if coinvariance_check(el, fhat) != even:
                problems.append(f"Fhat coinvariance parity wrong for {(i,j,k,l)} at ell={ell}")
        # non-examples
        a = algebra.generator(mode, "a")
        if coinvariance_check(a, fmode):
            problems.append(f"a wrongly coinvariant at ell={ell}")
    return ClaimResult(
        "coinvariance",
        "ell-th powers are central; their monomials are coinvariant under F, even ones under Fhat",
        not problems,
        {"problems": problems},
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

class ClaimRow(NamedTuple):
    suite: str
    claim: Callable[..., ClaimResult]
    largest_ell: int


# One row per claim, in report order.  The reference braiding tables, the
# expected decomposition trees and the fixed vector of the V1-V1 braiding
# are ell = 3 facts (the driver itself runs at every odd ell); the Y
# filtrations make the certificates grow fastest (about 1 s at ell = 9,
# 3 s at 11).  The others take at most 1.5 s at ell = 21, the largest
# swept ell the CLI accepts (README, Notes).
CLAIMS = [
    ClaimRow("braid", claim_braiding_tables, 3),
    ClaimRow("braid", claim_braiding_eigenstructure, 3),
    ClaimRow("braid", claim_spin_statistics, 21),
    ClaimRow("braid", claim_braid_hexagon, 21),
    ClaimRow("corep", claim_tensor_decomposition_l3, 3),
    ClaimRow("corep", claim_irreducibility_certificates, 9),
    ClaimRow("hopf", claim_hopf_axioms_confluence, 21),
    ClaimRow("props", claim_qbinomial_factorization, 21),
    ClaimRow("props", claim_finite_quotient_structure, 21),
    ClaimRow("props", claim_coinvariance, 21),
]

SUITES = sorted({row.suite for row in CLAIMS})


def run_suite(name: str, ells=None) -> VerificationReport:
    """Run the claims of suite ``name`` (or "all") at the root orders
    ``ells``, or each at its own default ones when ``ells`` is empty.  A
    claim runs at the swept ells within its largest; the others are listed
    in its description and its witness ``skipped_ells``, and a claim with
    none within its largest is not run but reported as skipped."""
    rows = [row for row in CLAIMS if name in ("all", row.suite)]
    if not rows:
        raise ValueError(f"unknown suite {name!r} (choose from {SUITES} or 'all')")
    results = []
    for row in rows:
        swept = tuple(ells or inspect.signature(row.claim).parameters["ells"].default)
        not_run = tuple(ell for ell in swept if ell > row.largest_ell)
        if not_run == swept:
            results.append(_skipped(row, swept))
            continue
        result = row.claim(ells=tuple(ell for ell in swept if ell <= row.largest_ell))
        if not_run:
            note = f"{result.description}; {_skipped(row, not_run).description}"
            result = replace(result, description=note, witness={**result.witness, "skipped_ells": list(not_run)})
        results.append(result)
    return VerificationReport(name, results)


def _skipped(row: ClaimRow, ells: tuple[int, ...]) -> ClaimResult:
    return ClaimResult(
        row.claim.__name__.removeprefix("claim_").replace("_", "-"),
        f"not run at ell = {' '.join(map(str, ells))}: supports ell <= {row.largest_ell}",
        False,
        {"largest_ell": row.largest_ell},
        skipped=True,
    )
