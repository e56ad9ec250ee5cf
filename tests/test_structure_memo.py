"""The per-group memo of live structures and the column table of rho_embed.

`hgs._structure` hands out the live structure certified for an element set
instead of certifying it again, and `rho_conjugate`, the rho-orbits,
`enumerate_hgs` and `hgs_from_abelian_map` go through it.  The memo must
not be visible in any result: every conjugate has the `to_json()` of a
freshly certified copy, a structure whose label `type_of` has filled in is
never handed to a caller asking for no label, and the memo holds nothing
once its structures are dropped.  The orbit records that `rho_orbit` leaves
on the members are read only while every member is the live structure of
its set, so the same holds for orbits read off a record.

`rho_embed(G, g)` reads column g^-1 of the memoized column table; the
oracle is its definition x -> x * g^-1, read from the table row by row.
"""

import gc

import pytest

from hgslab import (
    FiniteGroup,
    abelian_maps,
    build_group,
    catalog_specs,
    certify,
    enumerate_hgs,
    hgs_from_abelian_map,
    lattice_transport_check,
    realizable_lattice,
    rho_conjugate,
    rho_image,
    rho_orbit,
    rho_partition,
    type_of,
)
from hgslab.perms import PermGroup, _compose, _invert, rho_embed

CATALOG = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]


def _conjugate_set(N, g) -> frozenset:
    """rho(g) . N . rho(g)^-1 as an element set, from the definition of
    rho(g) as x -> x * g^-1."""
    G = N.group
    ginv = G.inverse[g]
    q = tuple(row[ginv] for row in G.table)
    qinv = _invert(q)
    return frozenset(_compose(q, _compose(p, qinv)) for p in N.perms.elements)


@pytest.mark.parametrize("spec", CATALOG)
def test_conjugates_equal_fresh_certification_on_catalog(spec):
    G = build_group(spec)
    inv = enumerate_hgs(G)
    by_key = {N.perms.element_set: N for N in inv}
    for N in inv:
        for g in range(G.order):
            key = _conjugate_set(N, g)
            got = rho_conjugate(N, g)
            fresh = certify(G, PermGroup(key), N.type_label)
            assert got.to_json() == fresh.to_json()
            assert got is by_key[key]
    for orbit in rho_partition(inv):
        for M in orbit.members:
            assert M is by_key[M.perms.element_set]


def test_memo_is_empty_once_its_structures_are_dropped():
    # a group of its own, so no other test keeps structures on it alive
    G = FiniteGroup(build_group("dihedral:6").table)
    inv = enumerate_hgs(G)
    orbits = rho_partition(inv)
    for N in inv:
        realizable_lattice(N)
        assert all(lattice_transport_check(N, g) for g in range(G.order))
    assert len(G._derived["structures"]) == len(inv)
    del inv, orbits, N
    gc.collect()
    assert len(G._derived["structures"]) == 0


def test_labelled_structure_is_not_handed_to_an_unlabelled_lookup():
    G = FiniteGroup(build_group("sym:3").table)
    maps = abelian_maps(G)
    structures = [hgs_from_abelian_map(am) for am in maps]
    assert all(N.type_label is None for N in structures)
    k = next(k for k, N in enumerate(structures) if rho_orbit(N).size == 3)
    labelled = structures[k]
    assert hgs_from_abelian_map(maps[k]) is labelled
    type_of(labelled)
    assert labelled.type_label is not None
    # the orbit record left by the search above holds unlabelled siblings;
    # the labelled member's orbit and its siblings' conjugates must not
    # come from it
    orbit = rho_orbit(labelled)
    assert orbit.size == 3 and labelled in orbit.members
    assert {M.perms.element_set for M in orbit.members} == {
        _conjugate_set(labelled, g) for g in range(G.order)
    }
    for M in orbit.members:
        fresh = certify(G, PermGroup(M.perms.element_set), labelled.type_label)
        assert M.to_json() == fresh.to_json()
    # its orbit siblings reach it by conjugation, and must not see the label
    reached = 0
    for N in structures:
        if N is labelled:
            continue
        for g in range(G.order):
            M = rho_conjugate(N, g)
            key = _conjugate_set(N, g)
            reached += key == labelled.perms.element_set
            fresh = N if key == N.perms.element_set else certify(G, PermGroup(key))
            assert M.to_json() == fresh.to_json()
        assert all(M.type_label is None for M in rho_orbit(N).members)
    assert reached > 0
    again = hgs_from_abelian_map(maps[k])
    assert again is not labelled
    fresh = certify(G, PermGroup(labelled.perms.element_set))
    assert again.to_json() == fresh.to_json()
    assert again.to_json()["type"] is None


@pytest.mark.parametrize("spec", CATALOG + ["sym:5"])
def test_rho_embed_is_its_definition(spec):
    G = build_group(spec)
    for g in range(G.order):
        q = rho_embed(G, g)
        assert q == tuple(G.table[x][G.inverse[g]] for x in range(G.order))
    former = [tuple([row[G.inverse[g]] for row in G.table])
              for g in range(G.order)]
    image = rho_image(G)
    assert image.element_set == frozenset(former)
    assert image.elements == PermGroup(former).elements
    assert image.generators == tuple(
        former[g] for g in G.generating_set() or (0,)
    )
