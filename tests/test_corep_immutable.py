"""Coreps are immutable values, built once per process and shared.

The builders ``build_y``, ``build_v`` and ``build_w`` are memoised, so every
caller of, say, ``build_v(2, 3)`` holds the same instance, and the algebra
elements in its rows are shared with ``build_y(2, 3)`` and with every memo
that handed them out.  These tests pin the contract that makes the sharing
safe: the containers are tuples, the builders hand back one instance per
argument tuple, and no operation of the library writes into a shared corep
or a shared coproduct.
"""

import dataclasses
from functools import reduce

import pytest

from slq2 import braid, corep, hopf
from slq2.algebra import AlgebraMode, NormalMonomial, from_word
from slq2.braid import (
    CONVENTIONS,
    braiding_map,
    braiding_matrix,
    check_braid_relation,
    check_hexagon,
    check_naturality,
    eigenstructure_check_v1v1,
    statistics_sign,
)
from slq2.corep import (
    Corep,
    Irr,
    _irr_corep,
    build_v,
    build_w,
    build_y,
    decompose,
    hom_space,
    irreducibility_certificate,
    quotient_corep,
    restrict_corep,
    span_of_basis_indices,
    standard_y_subspace_indices,
    tensor,
    verify_corep,
)
from slq2.hopf import (
    _antipode_monomial,
    _coproduct_generator_power,
    _coproduct_monomial,
    check_hopf_axioms,
    coproduct,
)


# -- frozen containers -------------------------------------------------------------

def test_rows_and_labels_reject_assignment():
    v = build_v(2, 5)
    with pytest.raises(TypeError):
        v.rho[0][0] = v.rho[1][1]
    with pytest.raises(TypeError):
        v.rho[0] = v.rho[1]
    with pytest.raises(TypeError):
        v.basis_labels[0] = "x"


@pytest.mark.parametrize(
    "dim, labels, row_lengths",
    [(3, 2, [2, 2]), (2, 1, [2, 2]), (2, 2, [2, 2, 2]), (2, 2, [2, 3]), (2, 2, [2, 1])],
    ids=["dim", "labels", "rows", "long-row", "short-row"],
)
def test_a_mis_shaped_corep_is_refused(dim, labels, row_lengths):
    v1 = build_v(1, 3)
    rho = [[v1.rho[0][0]] * n for n in row_lengths]
    with pytest.raises(ValueError, match=f"corep of dim {dim} has {labels} basis labels"):
        Corep(v1.mode, dim, ["x"] * labels, rho)
    with pytest.raises(ValueError):
        dataclasses.replace(v1, dim=dim, basis_labels=["x"] * labels, rho=rho)


def test_every_construction_stores_tuples():
    v1, y4 = build_v(1, 3), build_y(4, 3)
    rows = [[v1.rho[0][0], v1.rho[0][1]], [v1.rho[1][0], v1.rho[1][1]]]
    labels = ["a", "c"]
    from_lists = Corep(v1.mode, 2, labels, rows, "copy")
    # later changes to the caller's lists do not reach the corep
    rows[0][0] = v1.rho[1][1]
    labels[0] = "x"
    assert from_lists.rho == v1.rho and from_lists.basis_labels == ("a", "c")
    sub = span_of_basis_indices(y4, standard_y_subspace_indices(4, 3))
    made = [
        from_lists,
        dataclasses.replace(v1, rho=[list(row) for row in reversed(v1.rho)], basis_labels=["c", "a"]),
        tensor(v1, v1),
        restrict_corep(y4, sub),
        quotient_corep(y4, sub),
    ]
    for c in made:
        assert type(c.basis_labels) is tuple
        assert type(c.rho) is tuple and all(type(row) is tuple for row in c.rho)


# -- memoised builders ---------------------------------------------------------------

@pytest.mark.parametrize("builder, index, ell", [(build_y, 4, 3), (build_v, 2, 5), (build_w, 2, 3)])
def test_builders_return_one_instance(builder, index, ell):
    assert builder(index, ell) is builder(index, ell)
    assert builder.cache_info().currsize >= 1


def test_argument_errors_raise_and_are_not_cached():
    sizes = [f.cache_info().currsize for f in (build_y, build_v, build_w)]
    for call in (lambda: build_y(-1, 3), lambda: build_v(3, 3), lambda: build_w(-2, 5)):
        with pytest.raises(ValueError):
            call()
    assert [f.cache_info().currsize for f in (build_y, build_v, build_w)] == sizes


def test_irr_corep_reads_the_builders():
    assert _irr_corep(Irr(0, 2), 3) is build_v(2, 3)
    assert _irr_corep(Irr(2, 0), 3) is build_w(2, 3)


# -- the axis term index ------------------------------------------------------------

@pytest.mark.parametrize(
    "word, ell, entries, axis, terms",
    [("V1*V2", 3, 30, 30, 46), ("V6*V6", 7, 1379, 1519, 7455), ("W1*W1*W1", 3, 32, 46, 82)],
    ids=["V1*V2@3", "V6*V6@7", "W1*W1*W1@3"],
)
def test_axis_terms_list_every_axis_term_row_major(word, ell, entries, axis, terms):
    """The index keys only grades (j, k) with j = 0 or k = 0 and j, k <= ell,
    lists every axis term of rho of such a grade under its key in row-major
    order and nothing else, is cached, and is read-only.  In V6 (x) V6 at
    ell 7 the terms with both a b and a c, which it drops, are most of rho;
    there and in W1 (x) W1 (x) W1 at ell 3 it also drops the axis terms of
    grades above ell."""
    builders = {"V": build_v, "W": build_w}
    c = reduce(tensor, (builders[name[0]](int(name[1:]), ell) for name in word.split("*")))
    index = c.axis_terms
    assert c.axis_terms is index
    every = [
        (i, j, mono, coeff)
        for i, row in enumerate(c.rho)
        for j, entry in enumerate(row)
        for mono, coeff in entry.terms.items()
    ]
    on_axes = [t for t in every if not (t[2].j and t[2].k)]
    listed = [t for t in on_axes if t[2].j <= ell and t[2].k <= ell]
    assert all((j == 0 or k == 0) and j <= ell and k <= ell for j, k in index)
    for key, terms_of_key in index.items():
        assert [t for t in listed if (t[2].j, t[2].k) == key] == list(terms_of_key)
    assert sum(len(terms_of_key) for terms_of_key in index.values()) == len(listed) == entries
    assert len(on_axes) == axis
    assert len(every) == terms
    with pytest.raises(TypeError):
        index[(0, 0)] = ()


# -- nothing writes into a shared value ----------------------------------------------

def _cells(c):
    return (c.basis_labels, [dict(entry.terms) for row in c.rho for entry in row])


def test_shared_values_survive_every_operation():
    ell = 3
    gen3 = AlgebraMode.generic(ell)
    shared = [build_v(m, 5) for m in range(5)] + [build_w(1, 5), build_y(2, 3), build_y(4, ell)]
    shared += [_irr_corep(Irr(n, m), ell) for n, m in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0))]
    before = [(c, _cells(c)) for c in shared]
    # unchanged since they were built, whatever ran earlier in the process
    fresh = [build_y.__wrapped__(m, 5) for m in range(5)] + [build_w.__wrapped__(1, 5)]
    fresh += [build_y.__wrapped__(2, 3), build_y.__wrapped__(4, ell)]
    for c, built in zip(shared, fresh):
        assert _cells(c)[1] == _cells(built)[1], c.family
    # the basis monomials whose coproducts the builders read the rows from
    monos = [NormalMonomial(2 - h, 0, h) for h in range(3)] + [NormalMonomial(3, 0, 0), NormalMonomial(0, 0, 3)]
    coproducts = [(mono, _coproduct_monomial(gen3, mono)) for mono in monos]
    coproduct_terms = [dict(t.terms) for _, t in coproducts]

    v1, v2 = build_v(1, ell), build_v(2, ell)
    decompose(tensor(tensor(v1, v2), v1))
    for convention in CONVENTIONS:
        braiding_matrix(v1, v2, convention)
        braiding_map(v2, build_w(1, ell), convention)
    hom_space(v2, tensor(v1, v1))
    verify_corep(v2)
    irreducibility_certificate(tensor(v1, v1))
    y4 = build_y(4, ell)
    sub = span_of_basis_indices(y4, standard_y_subspace_indices(4, ell))
    restrict_corep(y4, sub)
    quotient_corep(y4, sub)
    check_hopf_axioms(v2.rho[1][1])

    for c, cells in before:
        assert _cells(c) == cells, c.family
    for builder, index, built in [(build_v, m, shared[m]) for m in range(5)] + [(build_w, 1, shared[5])]:
        assert builder(index, 5) is built
    assert build_y(2, 3) is shared[6] and build_y(4, ell) is shared[7]
    for (mono, t), terms in zip(coproducts, coproduct_terms):
        assert _coproduct_monomial(gen3, mono) is t
        assert t.terms == terms


def test_memoised_coproducts_and_antipodes_stay_intact(monkeypatch):
    """Every coproduct and antipode memo entry that the axiom checks, the
    coproduct, verify_corep and the builders read at ell 3 and 5 still
    equals a fresh evaluation afterwards, key order included: the tensor
    operations build new terms and never write into a shared tensor."""
    handed = {}

    def recording(memo):
        def read(*args):
            value = handed[(memo, args)] = memo(*args)
            return value

        return read

    monkeypatch.setattr(hopf, "_coproduct_generator_power", recording(_coproduct_generator_power))
    for module in (hopf, corep):
        monkeypatch.setattr(module, "_coproduct_monomial", recording(_coproduct_monomial))
    monkeypatch.setattr(hopf, "_antipode_monomial", recording(_antipode_monomial))

    for ell in (3, 5):
        for mode in (AlgebraMode.generic(ell), AlgebraMode.quotient_f(ell), AlgebraMode.quotient_fhat(ell)):
            for word in ("ab", "cd", "abcd", "aad", "bbcc"):
                x = from_word(mode, [(g, 1) for g in word])
                assert check_hopf_axioms(x).all_ok
                coproduct(x)
        coreps = [build_y.__wrapped__(m, ell) for m in range(ell + 2)]
        coreps += [build_v.__wrapped__(m, ell) for m in range(ell)] + [build_w.__wrapped__(1, ell)]
        for c in coreps:
            assert verify_corep(c).ok, c.family

    # the coproduct of a monomial, on its miss, read the generator powers of its word
    for memo, args in list(handed):
        if memo is _coproduct_monomial:
            mode, mono = args
            for g, e in [("a", 0)] + mono.word():
                handed[(_coproduct_generator_power, (mode, g, e))] = _coproduct_generator_power(mode, g, e)
    monkeypatch.setattr(hopf, "_coproduct_generator_power", _coproduct_generator_power.__wrapped__)
    monkeypatch.setattr(hopf, "_coproduct_monomial", _coproduct_monomial.__wrapped__)
    kinds = {memo for memo, _ in handed}
    assert kinds == {_coproduct_generator_power, _coproduct_monomial, _antipode_monomial}
    for (memo, args), value in handed.items():
        assert memo(*args) is value
        fresh = memo.__wrapped__(*args)
        if memo is _antipode_monomial:
            assert value == fresh, args
        else:
            assert list(value.terms.items()) == list(fresh.terms.items()), args


def test_memoised_braidings_stay_intact(monkeypatch):
    """Every braiding map memoised for a left factor that the braid
    checks, the sign extraction, the eigenstructure check and the public
    tables read at ell 3 still equals a fresh build afterwards, in row and
    key order: the memo hands out one shared map, and its readers build
    new rows or copy them before writing."""
    left_factors = {}

    def recording(a, b, convention=braid.DEFAULT_CONVENTION):
        left_factors[id(a)] = a
        return braiding_map(a, b, convention)

    monkeypatch.setattr(braid, "braiding_map", recording)
    ell = 3
    v0, v1, v2 = (dataclasses.replace(build_v(m, ell)) for m in range(3))
    w1 = dataclasses.replace(build_w(1, ell))
    v1v1 = tensor(v1, v1)
    t = hom_space(v0, v1v1)[0]
    for convention in CONVENTIONS:
        check_braid_relation(v1, v2, w1, convention)
        check_hexagon(v2, v1, w1, convention)
        check_naturality(t, v0, v1v1, v1, convention)
        statistics_sign(v1, w1, convention)
        statistics_sign(w1, w1, convention)
        eigenstructure_check_v1v1(ell, convention)
        braiding_matrix(v1, v2, convention)
        braiding_matrix(v2, v2, convention)

    monkeypatch.setattr(braid, "braiding_map", braiding_map)
    checked = 0
    for a in left_factors.values():
        for key, (b, psi) in list(a._left_memo.items()):
            if key[0] != "braid":
                continue
            convention = key[2]
            assert braiding_map(a, b, convention) is psi
            fresh = braiding_map(dataclasses.replace(a), b, convention).data
            assert [list(row.items()) for row in psi.data] == [list(row.items()) for row in fresh], (a.family, b.family)
            checked += 1
    # 11 pairs under each convention; the shared V1 of the eigenstructure
    # check may hold maps of earlier tests too, and they are checked as well
    assert checked >= 22
