"""Permutations, translation embeddings, coset spaces, holomorph membership."""

import pytest

from hgslab import (
    ClosureCapExceeded,
    InvalidSpec,
    build_group,
    certify,
    CosetSpace,
    generated_perm_group,
    lambda_embed,
    lambda_image,
    lambda_structure,
    left_translation,
    left_translation_image,
    PermGroup,
    rho_embed,
    opposite,
    rho_image,
    subgroup_closure,
)
from hgslab.perms import _compose, _invert, in_holomorph
from hgslab.groups import Subgroup, are_isomorphic, automorphisms
from test_hol_oracle import perm_group_as_group


def test_permutation_validation():
    with pytest.raises(InvalidSpec):
        generated_perm_group([(0, 0, 1)])
    with pytest.raises(InvalidSpec):
        generated_perm_group([(0, 2)])


def test_generated_perm_group_checks_every_generator():
    with pytest.raises(InvalidSpec):
        generated_perm_group([(1, 0, 2), (0, 0, 1)])
    with pytest.raises(InvalidSpec):
        generated_perm_group([(1, 0), (0, 2, 1)])  # two different bases
    assert generated_perm_group([[1, 0, 2], (0, 2, 1)]).order == 6


@pytest.mark.parametrize("elements", [
    [(0, 1), (1, 0, 2)],   # looks regular on the length of the first
    [(0, 1, 2), (1, 2)],   # not regular, closed by composing
])
def test_perm_group_refuses_elements_of_different_lengths(elements):
    with pytest.raises(InvalidSpec, match="different lengths"):
        PermGroup(elements)


@pytest.mark.parametrize("elements", [
    [(0, 1), (0, 0)],          # closed under composition
    [(0, 1, 2), (1, 1, 2)],    # closed too
])
def test_perm_group_refuses_members_that_are_not_permutations(elements):
    with pytest.raises(InvalidSpec, match="not a permutation"):
        PermGroup(elements)


CYCLIC_3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
NOT_A_GROUP = [(0, 1, 2), (1, 0, 2), (2, 1, 0)]  # lacks (1,0,2) . (2,1,0)


@pytest.mark.parametrize("generators", [[(0, 1, 2)], [(1, 2, 0)]])
def test_certify_refuses_a_set_that_caller_generators_do_not_close(generators):
    # the identity generates too little, and (1 2 0) lies outside the set
    with pytest.raises(InvalidSpec):
        certify(build_group("cyclic:3"), PermGroup(NOT_A_GROUP, generators=generators))


@pytest.mark.parametrize("elements,generators", [
    (CYCLIC_3, [(0, 1, 2)]),              # a member generating too little
    (CYCLIC_3, [(1, 0, 2)]),              # a group, a generator outside it
    ([(0, 1, 2), (1, 0, 2)], [(0, 1, 2)]),  # not regular, closed by composing
    ([(0, 1, 2), (1, 0, 2)], [(0, 2, 1)]),
    ([(1, 0)], []),                       # one element that is not the identity
])
def test_perm_group_checks_caller_generators(elements, generators):
    with pytest.raises(InvalidSpec):
        PermGroup(elements, generators=generators)


def test_perm_group_keeps_caller_generators_that_generate():
    assert PermGroup(CYCLIC_3, generators=[[2, 0, 1]]).generators == ((2, 0, 1),)
    s3_on_3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    gens = ((1, 0, 2), (1, 2, 0))
    assert PermGroup(s3_on_3[::-1], generators=gens).generators == gens
    assert PermGroup([(0, 1)], generators=[(0, 1)]).generators == ((0, 1),)


def test_compose_and_invert():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # compose applies the right factor first
    assert _compose(p, q) == (1, 0, 2)
    assert _compose(p, _invert(p)) == (0, 1, 2)
    assert _compose(_invert(p), p) == (0, 1, 2)


def test_translation_embeddings_are_homomorphisms(s3):
    n = s3.order
    for a in range(n):
        for b in range(n):
            ab = s3.table[a][b]
            assert _compose(lambda_embed(s3, a), lambda_embed(s3, b)) \
                == lambda_embed(s3, ab)
            assert _compose(rho_embed(s3, a), rho_embed(s3, b)) \
                == rho_embed(s3, ab)


def test_left_and_right_translations_commute(s3):
    for a in range(s3.order):
        for b in range(s3.order):
            lam, rho = lambda_embed(s3, a), rho_embed(s3, b)
            assert _compose(lam, rho) == _compose(rho, lam)


def test_lambda_rho_same_element_gives_conjugation(s3):
    for g in range(s3.order):
        phi = _compose(lambda_embed(s3, g), rho_embed(s3, g))
        assert all(phi[x] == s3.conj(x, g) for x in range(s3.order))


def test_translation_images_are_regular(d4):
    lam, rho = lambda_image(d4), rho_image(d4)
    assert lam.is_regular() and rho.is_regular()
    assert lam.element_set != rho.element_set  # d4 is not abelian
    C6 = build_group("cyclic:6")
    assert lambda_image(C6).element_set == rho_image(C6).element_set


def test_centralizer_of_left_translations_is_right_translations(s3):
    cent = opposite(lambda_structure(s3)).perms
    assert cent.element_set == rho_image(s3).element_set


def test_generated_perm_group_and_cap():
    cycle = (1, 2, 3, 4, 5, 0)
    swap = (1, 0, 2, 3, 4, 5)
    assert generated_perm_group([cycle]).order == 6
    with pytest.raises(ClosureCapExceeded):
        generated_perm_group([cycle, swap])  # 720 elements > 10 * 6^2


def test_perm_group_canonical_hash_is_content_based(s3):
    a = lambda_image(s3)
    b = PermGroup(list(a.elements))
    assert a.canonical_hash() == b.canonical_hash()
    assert a.canonical_key() == b.canonical_key()


def test_perm_group_as_group_recovers_the_group(s3):
    H, elems = perm_group_as_group(lambda_image(s3))
    assert H.order == 6
    assert are_isomorphic(H, s3) is not None
    assert len(elems) == 6


def test_coset_space_shape(d4):
    T = subgroup_closure(d4, [1])  # the reflection s, order 2
    cs = CosetSpace(d4, T)
    assert cs.degree == 4
    assert cs.cosets[0][0] == 0  # identity coset first
    assert sorted(x for c in cs.cosets for x in c) == list(range(8))
    act = left_translation_image(cs)
    assert act.is_transitive()
    for h in range(d4.order):
        perm = left_translation(cs, h)
        assert sorted(perm) == list(range(4))


def test_coset_space_refuses_a_subgroup_that_is_not_closed():
    # {0, 1} in C4 lacks 1 + 1; its "cosets" overlapped, and coset_of[0] was 1
    G = build_group("cyclic:4")
    with pytest.raises(InvalidSpec, match="not closed"):
        CosetSpace(G, Subgroup(G, [0, 1]))


def test_holomorph_membership_and_factorization():
    C6 = build_group("cyclic:6")
    hol = {
        _compose(C6.table[m], a.images): m
        for m in range(6)
        for a in automorphisms(C6)
    }
    assert len(hol) == 12  # 6 * |Aut(C6)|, each lambda(m) . a distinct
    for p, m in hol.items():
        assert p[0] == m  # lambda(m) . a sends the identity to m
        assert in_holomorph(C6, p)
    for p in rho_image(C6).elements:
        assert in_holomorph(C6, p)
    # a transposition of two non-identity points is not translation+auto
    assert not in_holomorph(C6, (0, 2, 1, 3, 4, 5))
