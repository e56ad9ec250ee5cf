"""Oracles for the rho action read off the Hol(M) search.

Let beta: G -> Hol(M) be an embedding that `_regular_embeddings` yields,
with base-point map b(x) = beta(x)(0) and structure N = b^-1 . lambda(M) . b.
rho(g) N rho(g)^-1 has the base-point map x -> b(x g), which is that of
lambda(k)^-1 . beta . lambda(k) for k = b(g), followed by a left translation
that leaves the structure as it is.  So the rho-orbit of N is the set of
structures of the lambda(M)-conjugates of beta, and the rho-orbits of type M
are the lambda(M)-classes of the embeddings.  In the id encoding, beta(x) =
lambda(m) . a is a . n + m, and lambda(k) . beta(x) . lambda(k)^-1 is
lambda(k . m . a(k)^-1) . a.  This route shares no code with
`rho._orbit_search`, which relabels N's table by rho(g^-1).

The stabilizer that `rho._normalizers` finds coset by coset is compared
with the test of every element, and `_transport_matches`, which decides the
conjugate on N's generators and then maps ids, with the entrywise
conjugation of every stable subgroup.
"""

import pytest

from hgslab import (
    abelian_maps,
    automorphisms,
    build_group,
    catalog_specs,
    enumerate_hgs,
    hgs_from_abelian_map,
    parse_spec,
    realizable_lattice,
    rho_conjugate,
    rho_partition,
    subgroup_closure,
)
from hgslab.correspondence import _transport_matches
from hgslab.hgs import _regular_embeddings
from hgslab.perms import CosetSpace, _conjugate_all, _invert, rho_embed
from hgslab.groups import inner_automorphism
from hgslab.rho import _is_conjugate, _normalizers

COMPLETE = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]
# a type-filtered inventory (40 structures) with orbits of size 1 and 4
FILTERED = [("dihedral:16", "dihedral:16")]


def _inventory(g_spec, m_spec=None):
    G = build_group(g_spec)
    return G, enumerate_hgs(G, parse_spec(m_spec) if m_spec else None)


def _structure_key(M, b) -> frozenset:
    """Element set of b^-1 . lambda(M) . b."""
    assert sorted(b) == list(range(M.order))
    return frozenset(_conjugate_all(M.table, _invert(b), b))


def _lambda_classes(G, M) -> set:
    """The structures of the lambda(M)-class of each embedding, one set per
    embedding that _regular_embeddings yields."""
    n, table, inverse = M.order, M.table, M.inverse
    auts = [a.images for a in automorphisms(M)]
    classes = set()
    for beta in _regular_embeddings(CosetSpace(G, subgroup_closure(G, ())), M):
        pairs = [(u % n, auts[u // n]) for u in beta]
        classes.add(frozenset(
            _structure_key(M, [table[table[k][m]][inverse[a[k]]] for m, a in pairs])
            for k in range(n)
        ))
    return classes


def _orbit_sets(inventory) -> set:
    return {frozenset(s.perms.element_set for s in orbit)
            for orbit in rho_partition(inventory)}


@pytest.mark.parametrize("g_spec,m_spec",
                         [(g, None) for g in COMPLETE] + FILTERED)
def test_rho_orbits_are_the_lambda_classes_of_the_embeddings(g_spec, m_spec):
    G, inv = _inventory(g_spec, m_spec)
    specs = [m_spec] if m_spec else catalog_specs(G.order)
    classes = set().union(*(_lambda_classes(G, build_group(m)) for m in specs))
    assert classes == _orbit_sets(inv)
    if m_spec:
        assert sorted({len(c) for c in classes}) == [1, 4]


def _structures():
    for g_spec, m_spec in [(g, None) for g in COMPLETE] + FILTERED:
        yield from _inventory(g_spec, m_spec)[1]
    yield from map(hgs_from_abelian_map, abelian_maps(build_group("sym:5")))


def test_stabilizer_by_cosets_equals_the_test_of_every_element():
    count = 0
    for N in _structures():
        want = {h for h in range(N.group.order) if _is_conjugate(N, h, N)}
        assert _normalizers(N) == want
        count += 1
    assert count == 376 + 40 + 26


def _transport_by_conjugation(G, lat1, lat2, g) -> bool:
    """Every stable subgroup of lat1 conjugated entrywise by rho(g), paired
    with g U g^-1, against lat2's entries."""
    rho_g, rho_ginv = rho_embed(G, g), rho_embed(G, G.inverse[g])
    phi = inner_automorphism(G, g).images
    transported = {
        frozenset(_conjugate_all(P.elements, rho_g, rho_ginv)):
            tuple(sorted(phi[u] for u in U.elements))
        for P, U in lat1
    }
    return transported == {P.element_set: U.elements for P, U in lat2}


def test_transport_on_ids_equals_entrywise_conjugation():
    # lat2 is the conjugate's lattice (a match) and the next member's (a
    # mismatch unless it is the conjugate)
    verdicts = set()
    for spec in [s for s in COMPLETE if build_group(s).order <= 12]:
        G, inv = _inventory(spec)
        for i, N in enumerate(inv):
            lat1 = realizable_lattice(N)
            for g in range(G.order):
                for N2 in (rho_conjugate(N, g), inv[(i + 1) % len(inv)]):
                    lat2 = realizable_lattice(N2)
                    got = _transport_matches(G, lat1, lat2, g)
                    assert got == _transport_by_conjugation(G, lat1, lat2, g)
                    verdicts.add(got)
    assert verdicts == {True, False}
