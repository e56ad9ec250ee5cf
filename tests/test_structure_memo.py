"""The per-group memo of live structures and the column table of rho_embed.

`hgs._structure` hands out the live structure filed under a set's probe,
when its members are the set's, instead of certifying it again, and `rho_conjugate`, the rho-orbits,
`enumerate_hgs` and `hgs_from_abelian_map` go through it.  The memo must
not be visible in any result: every conjugate has the `to_json()` of a
freshly certified copy, a structure whose label `type_of` has filled in is
never handed to a caller asking for no label, and the memo holds nothing
once its structures are dropped.  The orbit records that `rho_orbit` leaves
on the members are read only while every member is the live structure of
its probe, so the same holds for orbits read off a record.

Structures derived from a regular group already held, the enumerated and
embedded b^-1 . lambda(M) . b and the rho-conjugates, are built by
`hgs._relabel` with the generator picks of PermGroup's table path.  On
groups of their own, where nothing is live, each must have the `to_json()`
of `certify(G, PermGroup(elements), label)`, and none may reach
`perms._greedy_generators`.

`rho_embed(G, g)` reads column g^-1 of the memoized column table; the
oracle is its definition x -> x * g^-1, read from the table row by row.
"""

import gc

import pytest

from hgslab import (
    FiniteGroup,
    abelian_maps,
    all_subgroups,
    build_group,
    catalog_specs,
    certify,
    coset_stable_regular_subgroups,
    enumerate_hgs,
    from_hol_embedding,
    hgs_from_abelian_map,
    lattice_transport_check,
    parse_spec,
    realizable_lattice,
    rho_conjugate,
    rho_image,
    rho_orbit,
    rho_partition,
    to_hol_embedding,
    type_of,
)
from hgslab import hgs, perms
from hgslab.perms import PermGroup, _compose, _conjugate_all, _invert, rho_embed

CATALOG = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]


def _conjugate_set(N, g) -> frozenset:
    """rho(g) . N . rho(g)^-1 as an element set, from the definition of
    rho(g) as x -> x * g^-1."""
    G = N.group
    ginv = G.inverse[g]
    q = tuple(row[ginv] for row in G.table)
    qinv = _invert(q)
    return frozenset(_compose(q, _compose(p, qinv)) for p in N.eta)


@pytest.mark.parametrize("spec", CATALOG)
def test_conjugates_equal_fresh_certification_on_catalog(spec):
    G = build_group(spec)
    inv = enumerate_hgs(G)
    by_key = {frozenset(N.eta): N for N in inv}
    for N in inv:
        for g in range(G.order):
            key = _conjugate_set(N, g)
            got = rho_conjugate(N, g)
            fresh = certify(G, PermGroup(key), N.type_label)
            assert got.to_json() == fresh.to_json()
            assert got is by_key[key]
    for orbit in rho_partition(inv):
        for M in orbit.members:
            assert M is by_key[frozenset(M.eta)]


def test_memo_is_empty_once_its_structures_are_dropped():
    # a group of its own, so no other test keeps structures on it alive
    G = FiniteGroup(build_group("dihedral:6").table)
    inv = enumerate_hgs(G)
    orbits = rho_partition(inv)
    for N in inv:
        realizable_lattice(N)
        assert all(lattice_transport_check(N, g) for g in range(G.order))
    live = G._derived["structures"]
    assert len(live) == len(inv)
    assert all(live[hgs._probe(G, M.eta)] is M for M in inv)
    del inv, orbits, N
    gc.collect()
    assert len(live) == 0


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
    assert {frozenset(M.eta) for M in orbit.members} == {
        _conjugate_set(labelled, g) for g in range(G.order)
    }
    for M in orbit.members:
        fresh = certify(G, PermGroup(M.eta), labelled.type_label)
        assert M.to_json() == fresh.to_json()
    # its orbit siblings reach it by conjugation, and must not see the label
    reached = 0
    for N in structures:
        if N is labelled:
            continue
        for g in range(G.order):
            M = rho_conjugate(N, g)
            key = _conjugate_set(N, g)
            reached += key == frozenset(labelled.eta)
            fresh = N if key == frozenset(N.eta) else certify(G, PermGroup(key))
            assert M.to_json() == fresh.to_json()
        assert all(M.type_label is None for M in rho_orbit(N).members)
    assert reached > 0
    again = hgs_from_abelian_map(maps[k])
    assert again is not labelled
    fresh = certify(G, PermGroup(labelled.eta))
    assert again.to_json() == fresh.to_json()
    assert again.to_json()["type"] is None


def _refusing_picks(monkeypatch, call):
    """call() while PermGroup's own generator picks raise."""

    def refuse(*args):
        raise AssertionError("PermGroup picked generators")

    with monkeypatch.context() as patch:
        patch.setattr(perms, "_greedy_generators", refuse)
        return call()


def _records(structures) -> list:
    """(elements, label, generators) of each structure, what its to_json()
    is made of (the order and hash are those of the elements); holds none
    of them."""
    return [(N.eta, N.type_label, N.generators) for N in structures]


def _check_records(G, records) -> int:
    """Every record has the to_json() of a fresh certification of its
    elements under its label; returns the number of distinct ones."""
    fresh: dict = {}
    for elements, label, generators in records:
        if (elements, label) not in fresh:
            fresh[elements, label] = certify(G, PermGroup(elements), label)
        assert generators == fresh[elements, label].generators
    return len(fresh)


def test_enumerated_and_embedded_structures_equal_fresh_certification(monkeypatch):
    checked = 0
    for spec, type_filter in [(s, None) for s in CATALOG] + [
        ("dihedral:32", parse_spec("dihedral:32"))
    ]:
        G = FiniteGroup(build_group(spec).table)

        def derive():
            inv = enumerate_hgs(G, type_filter)
            embedded = [from_hol_embedding(to_hol_embedding(N)) for N in inv]
            return _records(inv) + _records(embedded)

        records = _refusing_picks(monkeypatch, derive)
        assert all(label is None for _, label, _ in records[len(records) // 2:])
        checked += _check_records(G, records)
    assert checked == 2 * (376 + 72)
    S4 = build_group("sym:4")
    cosets = [T for T in all_subgroups(S4) if T.order in (2, 3)]
    found = _refusing_picks(monkeypatch, lambda: [
        (P.elements, P.to_json())
        for T in cosets for P in coset_stable_regular_subgroups(S4, T)
    ])
    assert len(cosets) == 13 and len(found) == 64
    for elements, got in found:
        assert got == PermGroup(elements).to_json()


# (group, indices into abelian_maps, orbit sizes of their structures): on
# sym:5 the first map of each of the three orbits, on dihedral:12 all 76
FRESH_ABELIAN = [
    ("sym:5", [0, 1, 5], [1, 10, 15]),
    ("dihedral:12", range(76), [1] * 4 + [3] * 72),
]


@pytest.mark.parametrize("spec,picked,sizes", FRESH_ABELIAN,
                         ids=[spec for spec, _, _ in FRESH_ABELIAN])
def test_conjugates_of_fresh_abelian_map_structures_equal_fresh_certification(
        spec, picked, sizes, monkeypatch):
    # each structure is built and dropped on its own, and each conjugate is
    # dropped once read, so every conjugate other than N is built afresh
    G = FiniteGroup(build_group(spec).table)
    maps = abelian_maps(G)
    built = []
    for k in picked:
        N = hgs_from_abelian_map(maps[k])
        conjugates = _refusing_picks(monkeypatch, lambda: [
            _records([rho_conjugate(N, g)])[0] for g in range(G.order)
        ])
        for g, (elements, _, _) in enumerate(conjugates):
            # rho(g) . N . rho(g)^-1 by its definition x -> x * g^-1
            q = tuple(row[G.inverse[g]] for row in G.table)
            assert set(elements) == set(_conjugate_all(N.eta, q, _invert(q)))
        orbit = _refusing_picks(monkeypatch, lambda: _records(rho_orbit(N)))
        assert {e for e, _, _ in orbit} == {e for e, _, _ in conjugates}
        _check_records(G, conjugates + orbit)
        built.append(len(orbit))
        del N
    assert sorted(built) == sizes


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
