"""Differential oracle for the enumeration: regular subgroups of Hol(M).

The oracle is an independent route to the structures of type M on G.  It
builds all of Hol(M), grows every regular subgroup of it one generator at a
time over the fixed-point-free elements, identifies each with G by an
isomorphism search, and pushes every isomorphism G -> Q (one per automorphism
of G) through the embedding-to-structure map.  `enumerate_hgs` must give the
same structure sets.  The same subgroups also check Byott's counting
identity e(G, M) |Aut M| = |Aut G| e'(G, M), where e'(G, M) counts the
regular subgroups of Hol(M) isomorphic to G.  The candidate pools are
checked against every element of Hol(M) formed, and the four heavy
type-filtered enumerations against structure sets recorded before the
search moved to (m, a) pairs.
"""

import hashlib
from operator import eq

import pytest

from hgslab import (
    FiniteGroup,
    all_subgroups,
    are_isomorphic,
    automorphisms,
    build_group,
    catalog_complete,
    catalog_specs,
    coset_stable_regular_subgroups,
    enumerate_hgs,
    parse_spec,
)
from hgslab.groups import subgroup_closure
from hgslab import hgs
from hgslab.hgs import _hol_pools, _regular_embeddings
from hgslab.perms import (
    CosetSpace,
    PermGroup,
    _compose,
    _conjugate_all,
    _invert,
    _tuple_order,
)

CATALOG_PAIRS = [
    (str(g), str(m))
    for n in list(range(1, 16)) + [21]
    for g in catalog_specs(n)
    for m in catalog_specs(n)
]
# the type-filtered pairs of the benchmark's filtered-16-24 workload
FILTERED_16_24 = [
    ("sym:4", "sym:4"),
    ("dihedral:8", "dihedral:8"),
    ("product:cyclic:2,cyclic:8", "product:cyclic:2,cyclic:8"),
    ("alt:4", "alt:4"),
    ("cyclic:24", "cyclic:24"),
    ("dihedral:8", "cyclic:16"),
]
EXTRA_PAIRS = [
    ("alt:4", "alt:4"),
    ("cyclic:24", "cyclic:24"),
    ("dihedral:8", "cyclic:16"),
]
# (G, type, structures, sha256 of the sorted element lists): the heavy
# type-filtered enumerations, recorded before the Hol(M) search moved to
# (m, a) pairs
HEAVY = [
    ("elemab:2:4", "elemab:2:4", 106, "97c32e5015a9"),
    ("elemab:3:3", "elemab:3:3", 339, "245fb3661a0a"),
    ("cyclic:155", "metacyclic:31:5:2", 8, "21f34f0a29a2"),
    ("metacyclic:31:5:2", "metacyclic:31:5:2", 188, "6ffec411fe29"),
]


def perm_group_as_group(P):
    """The abstract Cayley table of a permutation group on its sorted elements.

    Returns (FiniteGroup, element list); position i corresponds to
    P.elements[i].  The identity lands at position 0 because its image tuple
    is lexicographically smallest.  Every product is composed, O(n^3).
    """
    elems = P.elements
    pos = {p: i for i, p in enumerate(elems)}
    table = [
        [pos[_compose(a, b)] for b in elems] for a in elems
    ]
    return FiniteGroup(table, check=False), elems


def _regular_subgroups_of_holomorph(spec):
    """Every regular subgroup of Hol(M) of order |M|, M built from spec.

    Elements of a regular subgroup are fixed point free away from the
    identity and have pairwise distinct images of the base point, which
    prunes the generator search hard.  Found subgroups are extended one
    generator at a time, which reaches every subgroup.
    """
    key = ("hol_regulars", str(spec))
    if key in _HOL_CACHE:
        return _HOL_CACHE[key]
    M = build_group(spec)
    n = M.order
    if n == 1:
        result = (PermGroup([(0,)]),)
        _HOL_CACHE[key] = result
        return result
    # Hol(M) = lambda(M) Aut(M), sorted as a permutation group lists it
    hol = sorted(
        _compose(M.table[m], a.images) for m in range(n) for a in automorphisms(M)
    )
    ident = tuple(range(n))
    fpf = [
        p for p in hol if p != ident and all(px != x for x, px in enumerate(p))
    ]
    fpf_set = set(fpf)

    def close(gen_list):
        # returns frozenset of images or None when the candidate dies:
        # leaves the fpf pool, exceeds order n, or repeats a 0-image
        out = {ident}
        zero_images = {0}
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gen_list:
                    p = _compose(a, g)
                    if p in out:
                        continue
                    if p not in fpf_set:
                        return None
                    z = p[0]
                    if z in zero_images or len(out) >= n:
                        return None
                    zero_images.add(z)
                    out.add(p)
                    nxt.append(p)
            frontier = nxt
        return frozenset(out)

    found: dict = {}
    frontier: list = []
    best_start: dict = {}
    for i, g in enumerate(fpf):
        sub = close([g])
        if sub is None:
            continue
        if sub not in best_start or best_start[sub] > i:
            if sub not in found:
                found[sub] = [g]
                frontier.append((sub, [g], i))
            best_start[sub] = min(best_start.get(sub, i), i)
    while frontier:
        nxt = []
        for sub, gens, last in frontier:
            # extending a proper subgroup at least doubles it (Lagrange),
            # so only subgroups of order <= n/2 can still reach order n
            if 2 * len(sub) > n:
                continue
            for j in range(last + 1, len(fpf)):
                g = fpf[j]
                if g in sub:
                    continue
                bigger = close(gens + [g])
                if bigger is None:
                    continue
                prev = best_start.get(bigger)
                if prev is not None and prev <= j:
                    continue
                best_start[bigger] = j
                if bigger not in found:
                    found[bigger] = gens + [g]
                nxt.append((bigger, gens + [g], j))
        frontier = nxt
    out = []
    for sub, gens in sorted(found.items(), key=lambda kv: sorted(kv[0])):
        if len(sub) == n:
            out.append(PermGroup(sub))
    result = tuple(out)
    _HOL_CACHE[key] = result
    return result


_HOL_CACHE: dict = {}


def _embedding_key(M, b) -> frozenset:
    """Element set b^-1 . lambda_M(mu) . b over all mu, for the base-point
    map b(xT) = beta(x)(0)."""
    assert sorted(b) == list(range(M.order))
    return frozenset(_conjugate_all(M.table, _invert(b), b))


def _base_points(cs, M, beta) -> list:
    """b(xT) = beta(x)(0) at the coset representatives, for beta as the ids
    a . n + m of lambda(m) . a that _regular_embeddings yields."""
    return [beta[r] % M.order for r in cs.representatives]


def _oracle(G, spec):
    """(structure keys of type spec on G, e'(G, M)) through the old search."""
    n = G.order
    M = build_group(spec)
    found = set()
    isomorphic = 0
    auts = automorphisms(G)
    for Q in _regular_subgroups_of_holomorph(spec):
        Q_abs, q_elems = perm_group_as_group(Q)
        iso0 = are_isomorphic(G, Q_abs)
        if iso0 is None:
            continue
        isomorphic += 1
        base = [q_elems[iso0.images[g]] for g in range(n)]
        for aut in auts:
            beta = [base[aut.images[g]] for g in range(n)]
            key = _embedding_key(M, [p[0] for p in beta])
            found.add(key)
    return found, isomorphic


def _check_pair(g_spec, m_spec):
    G, M = build_group(g_spec), build_group(m_spec)
    inv = enumerate_hgs(G, parse_spec(m_spec))
    assert not inv.complete
    keys = {s.perms.element_set for s in inv}
    assert {str(s.type_label) for s in inv} <= {m_spec}
    want, isomorphic = _oracle(G, m_spec)
    assert keys == want, (g_spec, m_spec)
    # Byott: e(G, M) |Aut M| = |Aut G| e'(G, M)
    assert len(inv) * len(automorphisms(M)) == \
        len(automorphisms(G)) * isomorphic, (g_spec, m_spec)
    return len(inv)


def test_enumeration_equals_holomorph_oracle_on_catalog():
    total = sum(_check_pair(g, m) for g, m in CATALOG_PAIRS)
    assert total == 376


@pytest.mark.parametrize("g_spec,m_spec", EXTRA_PAIRS)
def test_enumeration_equals_holomorph_oracle_beyond_catalog(g_spec, m_spec):
    assert _check_pair(g_spec, m_spec) > 0


def test_one_embedding_per_structure():
    """_regular_embeddings gives one embedding per Aut(M)-class, and so one
    per structure.  Each generator image is taken up to the automorphisms
    that fix the earlier ones; if that group came out too small, two
    embeddings of one class would both be yielded and give the same set,
    which the structure-set oracles cannot see."""
    embeddings, structures = 0, 0
    for g_spec, m_spec in CATALOG_PAIRS + FILTERED_16_24:
        G, M = build_group(g_spec), build_group(m_spec)
        cs = CosetSpace(G, subgroup_closure(G, ()))
        keys = [
            _embedding_key(M, _base_points(cs, M, beta))
            for beta in _regular_embeddings(cs, M)
        ]
        assert len(keys) == len(set(keys)), (g_spec, m_spec)
        embeddings += len(keys)
        structures += len(set(keys))
    assert embeddings == structures == 436


def test_one_subgroup_per_embedding_on_coset_spaces():
    """The search keeps every embedding's subgroup as it comes, with no
    dedup: on every coset space G/T of complete degree, T not trivial, of
    the catalog groups of order up to 15 and 21, no subgroup comes twice."""
    found = 0
    for g_spec in {g for g, _ in CATALOG_PAIRS}:
        G = build_group(g_spec)
        for T in all_subgroups(G):
            if T.order > 1 and catalog_complete(G.order // T.order):
                subgroups = coset_stable_regular_subgroups(G, T)
                assert len({P.element_set for P in subgroups}) == len(subgroups)
                found += len(subgroups)
    assert found == 218


@pytest.mark.parametrize("g_spec,m_spec,count,digest", HEAVY)
def test_heavy_structure_sets_are_pinned(g_spec, m_spec, count, digest, monkeypatch):
    """The same structures, one embedding each, and no permutation order
    taken in the pools: _tuple_order runs once per automorphism of M and
    once per generator of G."""
    embeddings, orders = [], []

    def recording(cs, M):
        for beta in _regular_embeddings(cs, M):
            embeddings.append(beta)
            yield beta

    def counting(p):
        orders.append(p)
        return _tuple_order(p)

    monkeypatch.setattr(hgs, "_regular_embeddings", recording)
    monkeypatch.setattr(hgs, "_tuple_order", counting)
    G, M = build_group(g_spec), build_group(m_spec)
    inv = enumerate_hgs(G, parse_spec(m_spec))
    assert len(inv) == len(embeddings) == count
    blob = repr(sorted(s.perms.elements for s in inv)).encode()
    assert hashlib.sha256(blob).hexdigest()[:12] == digest
    assert len(orders) <= len(automorphisms(M)) + len(G.generating_set())


@pytest.mark.parametrize("spec", [
    *(str(m) for n in list(range(1, 16)) + [21] for m in catalog_specs(n)),
    "sym:4",
    "metacyclic:13:3:3",
])
def test_hol_pools_hold_the_pairs_of_each_shape(spec, monkeypatch):
    """_hol_pools against every lambda(m) . a formed and walked: the same
    pairs of each (order, fixed points) shape in the same order, a given by
    its position in automorphisms(M), for all shapes and for those of the
    largest order, with no element formed."""
    M = build_group(spec)
    auts = [a.images for a in automorphisms(M)]
    points = range(M.order)
    want: dict = {}
    for i, a in enumerate(auts):
        for m, row in enumerate(M.table):
            p = _compose(row, a)
            shape = (_tuple_order(p), sum(map(eq, p, points)))
            want.setdefault(shape, {}).setdefault(i, []).append(m)

    def refuse(*args):
        raise AssertionError("a pool formed an element of Hol(M)")

    monkeypatch.setattr(hgs, "_compose", refuse)
    top = max(order for order, _ in want)
    for shapes in (set(want), {s for s in want if s[0] == top}):
        pools = _hol_pools(M, shapes)
        assert {s: list(pools[s].items()) for s in pools} == \
            {s: list(want[s].items()) for s in shapes}
