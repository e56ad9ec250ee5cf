"""Differential oracles for the rho action and the subgroup check.

`rho_orbit` takes the stabilizer as the elements h for which rho(h)
normalizes the structure, and one conjugate per coset of it, carried by the
coset's least element.  The oracle here is the direct route: conjugate the
structure by every right translation, take the first element that reaches
each member as its carrier, and collect the elements that fix it as the
stabilizer.  Both must give the same `to_json()`, member for member and
carrier for carrier, whether the orbit came from a search or was read off
the record a search left on the members; rho_conjugate and same_conjugate
read that record too, and must give what the whole conjugates give for
every g.  The paper's theorem gives a
second oracle for the stabilizer alone: it is the inner stabilizer of the
structure's skew brace, element for element.

`_is_conjugate` and the two subgroup criteria of `compare_braces` decide
conjugacy on the generators of the conjugated structure alone; the oracle
builds the whole conjugate and compares element sets.

`_greedy_close` decides whether a set of permutations is closed by closing a
generating subset of it; the oracle tests every product of two members.
"""

import random

from hgslab import (
    ClosureCapExceeded,
    FiniteGroup,
    abelian_maps,
    automorphisms,
    brace_automorphisms,
    brace_from_subgroup,
    build_group,
    catalog_specs,
    certify,
    compare_braces,
    enumerate_hgs,
    hgs_from_abelian_map,
    inner_stabilizer,
    lambda_structure,
    rho_conjugate,
    rho_orbit,
    rho_partition,
    same_conjugate,
    subgroup_closure,
)
from hgslab.perms import (
    PermGroup,
    _compose,
    _conjugate_all,
    _greedy_close,
    _invert,
    rho_embed,
)
from hgslab import hgs, rho
from hgslab.rho import RhoOrbit, _is_conjugate
from hgslab.verify import metacyclic_base_structure

CATALOG = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]


def _conjugate_set(N, g) -> frozenset:
    """rho(g) . N . rho(g)^-1 as an element set, from the whole conjugate."""
    G = N.group
    q, qinv = rho_embed(G, g), rho_embed(G, G.inverse[g])
    return frozenset(_conjugate_all(N.perms.elements, q, qinv))


def _scan_conjugates(N):
    """N_g as an element set for every g, from the whole conjugate."""
    return [_conjugate_set(N, g) for g in range(N.group.order)]


def _probe_of(G, key):
    """The members of a regular element set that send 0 to the ids of G's
    generating set."""
    at = {p[0]: p for p in key}
    return tuple(at[x] for x in G.generating_set())


def _scan_orbit(N, conjugates=None):
    """The orbit of N by conjugating with every right translation."""
    G = N.group
    base_key = N.perms.element_set
    first_g = {}
    stab = []
    for g, key in enumerate(conjugates or _scan_conjugates(N)):
        if key == base_key:
            stab.append(g)
        first_g.setdefault(key, g)
    built = []
    for key, g in first_g.items():
        member = N if key == base_key else certify(
            G, PermGroup(key), type_label=N._type_label
        )
        built.append((member.canonical_key(), member, g))
    built.sort(key=lambda t: t[0])
    stabilizer = subgroup_closure(G, stab)
    assert stabilizer.order == len(stab)
    assert len(built) * len(stab) == G.order
    return RhoOrbit(G, N, [m for _, m, _ in built], [g for _, _, g in built],
                    stabilizer)


def _scan_same_conjugate(N1, N2):
    target = N2.perms.element_set
    for g in range(N1.group.order):
        if _conjugate_set(N1, g) == target:
            return g
    return None


def _check_orbits(structures, seed):
    """rho_orbit on every structure, in a seeded order before rho_partition
    and in another after it, equals the scan: the first member of an orbit
    to be asked searches, the others read the record it left.  The
    partition equals the scanned one; same_conjugate(N, M) equals the scan
    of _scan_same_conjugate, the first g with N_g = M; and rho_conjugate(N,
    g) is N when g fixes N, else N_g with the to_json() of a fresh
    certification."""
    rng = random.Random(seed)
    conjugates = [_scan_conjugates(N) for N in structures]
    want = [_scan_orbit(N, c).to_json() for N, c in zip(structures, conjugates)]
    consumed, partition = set(), []
    for N, keys, orbit in zip(structures, conjugates, want):
        if N.perms.element_set not in consumed:
            consumed.update(keys)
            partition.append(orbit)
    order = list(range(len(structures)))
    rng.shuffle(order)
    for k in order:
        assert rho_orbit(structures[k]).to_json() == want[k]
    assert [o.to_json() for o in rho_partition(structures)] == partition
    rng.shuffle(order)
    for k in order:
        assert rho_orbit(structures[k]).to_json() == want[k]
    reached = {}
    for N, keys in zip(structures, conjugates):
        first = {}
        for g, key in enumerate(keys):
            first.setdefault(key, g)
            M = rho_conjugate(N, g)
            if key == N.perms.element_set:
                assert M is N
            else:
                assert M.perms.element_set == key
                reached[id(M), N.type_label] = M
        for M in structures:
            assert same_conjugate(N, M) == first.get(M.perms.element_set)
    for (_, label), M in reached.items():
        fresh = certify(M.group, PermGroup(M.perms.element_set), label)
        assert M.to_json() == fresh.to_json()


def _s5_structures():
    return [hgs_from_abelian_map(am) for am in abelian_maps(build_group("sym:5"))]


def test_rho_orbit_equals_scan_on_catalog():
    total = 0
    for spec in CATALOG:
        inv = enumerate_hgs(build_group(spec))
        _check_orbits(list(inv), spec)
        total += len(inv)
    assert total == 376


def test_rho_orbit_equals_scan_on_s5_abelian_maps():
    structures = _s5_structures()
    assert len(structures) == 26
    _check_orbits(structures, "sym:5")


def _check_record_reads(structures, monkeypatch):
    """After rho_partition every structure carries a valid orbit record, and
    off it rho_conjugate(N, g) is the structure of the whole conjugate N_g
    (N itself, else the live one of its set) and same_conjugate(N, M) is
    the first g with N_g = M, or None when M is not a member; neither
    conjugates a tuple or probes a conjugate."""
    rho_partition(structures)
    conjugates = [_scan_conjugates(N) for N in structures]

    def refuse(*args):
        raise AssertionError("a conjugate was built or probed")

    hits = misses = 0
    with monkeypatch.context() as patch:
        patch.setattr(rho, "_relabel", refuse)
        patch.setattr(rho, "_is_conjugate", refuse)
        for N, keys in zip(structures, conjugates):
            assert rho._recorded(N) is not None
            live = hgs._live(N.group)
            first = {}
            for g, key in enumerate(keys):
                first.setdefault(key, g)
                own = key == N.perms.element_set
                want = N if own else live[_probe_of(N.group, key)]
                assert want.perms.element_set == key
                assert rho_conjugate(N, g) is want
            for M in structures:
                got = same_conjugate(N, M)
                assert got == first.get(M.perms.element_set)
                hits += got is not None
                misses += got is None
    return hits, misses


def test_conjugates_read_off_the_record_equal_the_conjugation_path(
        monkeypatch):
    # groups of their own, so every structure is the live one of its set
    # and no other test has relabelled one
    fresh = [FiniteGroup(build_group(spec).table) for spec in CATALOG]
    counts = [_check_record_reads(list(enumerate_hgs(G)), monkeypatch)
              for G in fresh]
    G = FiniteGroup(build_group("sym:5").table)
    s5 = [hgs_from_abelian_map(am) for am in abelian_maps(G)]
    counts.append(_check_record_reads(s5, monkeypatch))
    hits, misses = map(sum, zip(*counts))
    assert counts[-1] == (1 + 10 * 10 + 15 * 15, 26 * 26 - 326)
    assert hits > 376 and misses > 0


def test_rho_orbit_equals_scan_with_caller_generators(m733):
    # the base is certified from generators of its own, so it is not the
    # live structure of its set: a sibling's orbit holds that live twin, and
    # the base's own orbit holds the base, never one in place of the other
    base = metacyclic_base_structure(m733)
    siblings = [M for M in rho_orbit(base).members if M is not base]
    assert len(siblings) == 6
    twin = rho_conjugate(siblings[0], same_conjugate(siblings[0], base))
    assert twin.perms.element_set == base.perms.element_set
    assert twin.to_json() != base.to_json()
    _check_orbits([base] + siblings, "metacyclic:7:3:2")


def test_one_orbit_search_per_orbit_on_s5_abelian_maps(monkeypatch):
    # a group of its own, so no other test has left records on its structures
    G = FiniteGroup(build_group("sym:5").table)
    structures = [hgs_from_abelian_map(am) for am in abelian_maps(G)]
    searched = []
    search = rho._orbit_search
    monkeypatch.setattr(
        rho, "_orbit_search", lambda N: searched.append(N) or search(N)
    )
    for N in structures:
        rho_orbit(N)
    assert len(rho_partition(structures)) == len(searched) == 3


def _stabilizer_is_inner_stabilizer(N):
    want = inner_stabilizer(brace_from_subgroup(N)).elements
    assert rho_orbit(N).stabilizer.elements == want


def test_stabilizer_equals_inner_stabilizer_of_the_brace():
    total = 0
    for spec in CATALOG:
        for N in enumerate_hgs(build_group(spec)):
            _stabilizer_is_inner_stabilizer(N)
            total += 1
    assert total == 376
    orbits = rho_partition(_s5_structures())
    assert sorted(len(o) for o in orbits) == [1, 10, 15]
    for orbit in orbits:
        _stabilizer_is_inner_stabilizer(orbit.base)


def test_same_conjugate_equals_scan_inside_catalog_orbits():
    pairs = 0
    for spec in CATALOG:
        for orbit in rho_partition(enumerate_hgs(build_group(spec))):
            for a in orbit.members:
                for b in orbit.members:
                    g = same_conjugate(a, b)
                    assert g is not None and g == _scan_same_conjugate(a, b)
                    pairs += 1
    assert pairs > 376
    G = build_group("metacyclic:7:3:2")
    a, lam = metacyclic_base_structure(G), lambda_structure(G)
    assert same_conjugate(a, lam) is None
    assert _scan_same_conjugate(a, lam) is None


def test_is_conjugate_equals_full_conjugation_on_catalog():
    # a probe of the first generator only disagrees on 1,327 of these cases
    cases = hits = 0
    for spec in CATALOG:
        inv = enumerate_hgs(build_group(spec))
        for N in inv:
            targets = (N, inv[0], inv[len(inv) // 2], inv[-1])
            for g, key in enumerate(_scan_conjugates(N)):
                for M in targets:
                    full = key == M.perms.element_set
                    assert _is_conjugate(N, g, M) == full
                    cases += 1
                    hits += full
    assert (cases, hits) == (15348, 3534)


def _carried_by(phis, N1, N2):
    """Whether some phi has phi^-1 . N1 . phi == N2, from whole conjugates."""
    return any(
        frozenset(
            _conjugate_all(N1.perms.elements, _invert(phi.images), phi.images)
        ) == N2.perms.element_set
        for phi in phis
    )


def test_compare_braces_criteria_equal_full_conjugation_on_census_pairs():
    # each orbit's base against every member, as the census compares them,
    # and the first orbit's base against the last one's, which no inner
    # automorphism relates
    pairs, verdicts = 0, set()
    for spec in CATALOG:
        orbits = rho_partition(enumerate_hgs(build_group(spec)))
        census = [(o.base, M) for o in orbits for M in o.members]
        for N1, N2 in census + [(orbits[0].base, orbits[-1].base)]:
            cmp_res = compare_braces(N1, N2)
            assert cmp_res.subgroup_criterion == _carried_by(
                automorphisms(N1.group), N1, N2
            )
            assert cmp_res.same_criterion == _carried_by(
                brace_automorphisms(brace_from_subgroup(N1)), N1, N2
            )
            pairs += 1
            verdicts.add((cmp_res.subgroup_criterion, cmp_res.same_criterion))
    assert pairs == 376 + len(CATALOG)
    assert verdicts == {(True, True), (True, False), (False, False)}


def _all_pairs_closed(elems):
    eset = set(elems)
    return all(_compose(p, q) in eset for p in elems for q in elems)


def test_greedy_close_equals_all_pairs_on_seeded_mutants():
    rng = random.Random(20261018)
    bases = [
        list(s.perms.elements)
        for spec in ("sym:3", "dihedral:4", "quaternion:8", "metacyclic:7:3:2")
        for s in enumerate_hgs(build_group(spec))
    ]
    bases += [list(s.perms.elements) for s in _s5_structures()[:3]]
    verdicts = []
    for elems in bases:
        n = len(elems)
        replaced = list(elems)
        replaced[rng.randrange(n)] = tuple(rng.sample(range(n), n))
        dropped = list(elems)
        del dropped[rng.randrange(n)]
        for cand in (elems, replaced, dropped):
            cand = rng.sample(cand, len(cand))
            want = _all_pairs_closed(cand)
            try:
                closed = _greedy_close(cand, len(cand))[1] == set(cand)
            except ClosureCapExceeded:
                closed = False
            assert closed == want
            verdicts.append(want)
    assert verdicts.count(True) >= len(bases)
    assert verdicts.count(False) > len(bases)
