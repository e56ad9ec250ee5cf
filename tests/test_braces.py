"""Skew braces from structures: axioms, criteria, comparisons, Yang-Baxter."""

import random

import pytest

from hgslab import (
    brace_automorphisms,
    brace_from_subgroup,
    braces_isomorphic,
    build_group,
    compare_braces,
    enumerate_hgs,
    inner_stabilizer,
    is_two_sided,
    lambda_structure,
    mixed_inverse_identity,
    rho_fix_criteria,
    rho_orbit,
    rho_structure,
    skew_brace_from_tables,
    subgroup_from_brace,
    ybe_map,
)
from hgslab import braces
from hgslab.errors import BraceAxiomError, InvalidSpec
from hgslab.groups import FiniteGroup
from hgslab.verify import metacyclic_base_structure


def test_lambda_brace_has_equal_operations(s3):
    B = brace_from_subgroup(lambda_structure(s3))
    assert B.star == B.circ
    assert is_two_sided(B)


def test_rho_brace_is_the_flip(s3):
    B = brace_from_subgroup(rho_structure(s3))
    n = B.size
    assert all(B.star[a][b] == B.circ[b][a] for a in range(n) for b in range(n))
    assert is_two_sided(B)


def test_brace_round_trip(s3_inventory):
    for N in s3_inventory:
        B = brace_from_subgroup(N)
        M = subgroup_from_brace(B)
        assert M.perms.element_set == N.perms.element_set


def test_metacyclic_base_brace(m733):
    N = metacyclic_base_structure(m733)
    B = brace_from_subgroup(N)
    assert B.star_group.is_abelian  # the structure is of cyclic type
    assert not B.circ_group.is_abelian
    assert not is_two_sided(B)
    assert inner_stabilizer(B).elements == (0, 1, 2)
    assert mixed_inverse_identity(B)


def test_fix_criteria_agree_and_match_conjugation(m733):
    N = metacyclic_base_structure(m733)
    B = brace_from_subgroup(N)
    key = N.perms.element_set
    for g in range(m733.order):
        crit = rho_fix_criteria(B, g)
        assert crit[0] == crit[1] == crit[2]
        from hgslab import rho_conjugate

        assert crit[0] == (rho_conjugate(N, g).perms.element_set == key)
    assert rho_fix_criteria(B, 1) == (True, True, True)   # t fixes N
    assert rho_fix_criteria(B, 3) == (False, False, False)  # s moves N


def test_two_sided_iff_orbit_is_trivial(d4_inventory):
    for N in d4_inventory:
        B = brace_from_subgroup(N)
        assert is_two_sided(B) == (rho_orbit(N).size == 1)


def test_brace_rejects_corrupted_star_table(s3):
    B = brace_from_subgroup(rho_structure(s3))
    star = [list(row) for row in B.star]
    star[1][2], star[1][3] = star[1][3], star[1][2]
    with pytest.raises(InvalidSpec, match="column 2 is not a permutation"):
        skew_brace_from_tables(star, B.circ)


def test_brace_rejects_broken_compatibility(s3):
    # two valid group tables that do not satisfy the brace law
    C6 = build_group("cyclic:6")
    with pytest.raises(BraceAxiomError, match="brace relation fails"):
        skew_brace_from_tables(C6.table, s3.table)


def test_brace_rejects_tables_of_different_orders(s3):
    C8 = build_group("cyclic:8").table
    with pytest.raises(BraceAxiomError,
                       match="star table has order 8, circ table has order 6"):
        skew_brace_from_tables(C8, s3.table)
    with pytest.raises(BraceAxiomError,
                       match="star table has order 6, circ table has order 8"):
        skew_brace_from_tables(s3.table, C8)


def test_brace_from_subgroup_equals_the_validated_brace(catalog_structures,
                                                       s5_orbit_structures):
    # the unchecked path against the factory that validates both tables
    structures = catalog_structures + s5_orbit_structures
    assert len(structures) == 379
    for N in structures:
        B = brace_from_subgroup(N)
        want = skew_brace_from_tables(N.eta, N.group.table,
                                      names=N.group.names)
        assert B == want
        assert B.star_inverse == want.star_inverse
        assert B.circ_inverse == want.circ_inverse
        assert B.star_group.names == want.star_group.names == N.group.names
        assert B.circ_group is N.group and B.source is N


def test_brace_from_subgroup_builds_no_checked_group(catalog_structures,
                                                      monkeypatch):
    def refuse(self):
        raise AssertionError("a group table was validated again")

    checked = []
    relation = braces._check_brace_relation
    monkeypatch.setattr(FiniteGroup, "_validate_shape", refuse)
    monkeypatch.setattr(FiniteGroup, "_validate_associativity", refuse)
    monkeypatch.setattr(braces, "_check_brace_relation",
                        lambda B: checked.append(relation(B)))
    for N in catalog_structures:
        brace_from_subgroup(N)
    assert len(checked) == len(catalog_structures) == 376


def test_lambda_brace_automorphisms_are_group_automorphisms(s3):
    from hgslab import automorphisms

    B = brace_from_subgroup(lambda_structure(s3))
    assert len(brace_automorphisms(B)) == len(automorphisms(s3))


def test_ybe_map_on_lambda_brace_is_conjugation_braiding(s3):
    B = brace_from_subgroup(lambda_structure(s3))
    r = ybe_map(B)
    t = s3.table
    inv = s3.inverse
    for x in range(6):
        for y in range(6):
            assert r.left[x][y] == y
            assert r.right[x][y] == t[t[inv[y]][x]][y]
    assert r.is_bijective()
    assert r.braid_holds()


def test_ybe_map_nondegenerate_on_all_small_braces(s3_inventory):
    for N in s3_inventory:
        r = ybe_map(brace_from_subgroup(N))
        assert r.is_bijective()
        assert r.braid_holds()


def test_brace_round_trip_and_ybe_on_seeded_catalog_structures(
        catalog_structures):
    rng = random.Random(20261019)
    small = [N for N in catalog_structures if N.order <= 15]
    for N in rng.sample(small, 60):
        B = brace_from_subgroup(N)
        assert subgroup_from_brace(B).perms.element_set == N.perms.element_set
        r = ybe_map(B)
        assert r.is_bijective() and r.braid_holds(), N


def test_compare_braces_on_conjugates(d4_inventory):
    pair = None
    for N in d4_inventory:
        orb = rho_orbit(N)
        if orb.size == 2:
            pair = orb.members
            break
    assert pair is not None
    cmp_res = compare_braces(pair[0], pair[1])
    assert cmp_res.isomorphic
    assert not cmp_res.equal
    assert cmp_res.consistent


def test_compare_braces_checks_no_brace_relation(d4_inventory, monkeypatch):
    def refuse(B):
        raise AssertionError("compare_braces checked a brace relation")

    monkeypatch.setattr(braces, "_check_brace_relation", refuse)
    results = [compare_braces(N, M)
               for N in d4_inventory for M in d4_inventory]
    assert len(results) == len(d4_inventory) ** 2 == 900
    assert all(c.consistent for c in results)
    assert sum(c.equal for c in results) == 30
    assert sum(c.isomorphic for c in results) == 80


def test_ybe_map_never_calls_braid_holds_on_a_valid_brace(catalog_structures,
                                                          s5_orbit_structures,
                                                          monkeypatch):
    def refuse(self):
        raise AssertionError("braid_holds ran on a valid brace")

    monkeypatch.setattr(braces.YbeMap, "braid_holds", refuse)
    structures = catalog_structures + s5_orbit_structures
    assert len(structures) == 379
    for N in structures:
        ybe_map(brace_from_subgroup(N))


def test_compare_braces_same_structure(s3_inventory):
    N = s3_inventory[0]
    cmp_res = compare_braces(N, N)
    assert cmp_res.equal and cmp_res.isomorphic and cmp_res.consistent


def test_braces_isomorphic_across_types_is_none(s3):
    B1 = brace_from_subgroup(lambda_structure(s3))
    inv = enumerate_hgs(s3)
    cyclic_type = next(N for N in inv if N.is_abelian())
    B2 = brace_from_subgroup(cyclic_type)
    assert braces_isomorphic(B1, B2) is None
