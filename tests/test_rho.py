"""Conjugation by right translations: orbits, stabilizers, partitions."""

import random

import pytest

from hgslab import (
    FiniteGroup,
    build_group,
    enumerate_hgs,
    lambda_structure,
    opposite,
    opposite_conjugate_commute,
    rho_conjugate,
    rho_orbit,
    rho_partition,
    rho_structure,
    same_conjugate,
)
from hgslab import rho
from hgslab.verify import metacyclic_base_structure


def test_identity_conjugation_is_trivial(m733):
    N = metacyclic_base_structure(m733)
    assert rho_conjugate(N, 0).perms.element_set == N.perms.element_set


def test_conjugation_composes(m733, d4):
    for G, N in [(m733, metacyclic_base_structure(m733)),
                 (d4, lambda_structure(d4))]:
        for g in range(G.order):
            for h in range(G.order):
                two_step = rho_conjugate(rho_conjugate(N, g), h)
                direct = rho_conjugate(N, G.table[h][g])
                assert two_step.perms.element_set == direct.perms.element_set


def test_conjugation_is_a_left_action_on_seeded_catalog_structures(
        catalog_structures):
    # N_h conjugated by g is N_{g h}, and both equal the conjugate of N's
    # members by rho(g h), x -> x (g h)^-1, computed point by point here
    rng = random.Random(20261019)
    small = [N for N in catalog_structures if N.order <= 15]
    for N in rng.sample(small, 60):
        G = N.group
        t, inv = G.table, G.inverse
        for _ in range(4):
            g, h = rng.randrange(G.order), rng.randrange(G.order)
            k = t[g][h]
            two_step = rho_conjugate(rho_conjugate(N, h), g)
            direct = {tuple(t[p[t[x][k]]][inv[k]] for x in range(G.order))
                      for p in N.perms.elements}
            assert two_step.perms.element_set == direct, (N, g, h)
            assert rho_conjugate(N, k).perms.element_set == direct, (N, g, h)


def test_lambda_structure_is_always_fixed(d4, s3):
    for G in (d4, s3):
        assert rho_orbit(lambda_structure(G)).size == 1
        assert rho_orbit(rho_structure(G)).size == 1


def test_orbit_size_divides_group_order(d4_inventory, d4):
    for N in d4_inventory:
        orb = rho_orbit(N)
        assert d4.order % orb.size == 0
        assert orb.size * len(orb.stabilizer.elements) == d4.order


def test_center_lies_in_every_stabilizer(d4, d4_inventory):
    center = set(d4.center())
    for N in d4_inventory:
        assert center <= set(rho_orbit(N).stabilizer.elements)


def test_orbit_carrier_reproduces_members(m733):
    orb = rho_orbit(metacyclic_base_structure(m733))
    for g, member in zip(orb.carrier, orb.members):
        assert rho_conjugate(orb.base, g).perms.element_set == \
            member.perms.element_set


def test_same_conjugate(m733):
    orb = rho_orbit(metacyclic_base_structure(m733))
    a, b = orb.members[0], orb.members[1]
    g = same_conjugate(a, b)
    assert g is not None
    assert rho_conjugate(a, g).perms.element_set == b.perms.element_set
    lam = lambda_structure(m733)
    assert same_conjugate(a, lam) is None  # different types, never conjugate


def test_partition_covers_inventory(s3_inventory):
    orbits = rho_partition(s3_inventory)
    assert sorted(len(o) for o in orbits) == [1, 1, 3]
    assert sum(len(o) for o in orbits) == len(s3_inventory)


def test_partition_rejects_unclosed_collection(s3_inventory):
    moving = [N for N in s3_inventory if rho_orbit(N).size > 1]
    with pytest.raises(ValueError):
        rho_partition(moving[:1])


def test_partition_refuses_before_certifying_outside_conjugates(
    s3_inventory, monkeypatch
):
    # the first call reads the member's orbit record, the second searches a
    # fresh copy of S3 that has no records yet
    sizes = [rho_orbit(N).size for N in s3_inventory]
    fresh = enumerate_hgs(FiniteGroup(s3_inventory[0].group.table))
    certified = []
    structure = rho._structure
    monkeypatch.setattr(
        rho, "_structure", lambda *a: certified.append(a) or structure(*a)
    )
    for inv in (s3_inventory, fresh):
        moving = next(N for N, size in zip(inv, sizes) if size > 1)
        with pytest.raises(ValueError):
            rho_partition([moving])
    assert certified == []


def test_metacyclic_partition_frozen(m733):
    orbits = rho_partition(enumerate_hgs(m733))
    assert sorted(len(o) for o in orbits) == [1, 1, 7, 7, 7]


def test_opposite_commutes_with_conjugation_sample(m733):
    N = metacyclic_base_structure(m733)
    for g in range(m733.order):
        assert opposite_conjugate_commute(N, g)
        lhs = opposite(rho_conjugate(N, g))
        rhs = rho_conjugate(opposite(N), g)
        assert lhs.perms.element_set == rhs.perms.element_set


def test_broken_orbit_invariant_is_a_typed_error(monkeypatch, capsys, m733):
    import hgslab.rho as rho_module
    from hgslab import InvariantError, subgroup_closure
    from hgslab.cli import main

    # a "closure" that always returns all of G breaks orbit-stabilizer
    monkeypatch.setattr(rho_module, "subgroup_closure",
                        lambda G, gens: subgroup_closure(G, range(G.order)))
    with pytest.raises(InvariantError):
        rho_orbit(metacyclic_base_structure(m733))
    code = main(["hgs", "rho-orbits", "--group", "metacyclic:7:3:2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
