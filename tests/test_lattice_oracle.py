"""Differential oracle for the stable-subgroup lattice of a structure.

`g_stable_subgroups` joins closures of the orbits of conjugation by lambda(G)
on N's member indices.  The oracle here is the direct route: build N's
Cayley table on its sorted elements, list every subgroup by closing one
added element at a time, and keep the ones that conjugation by the left
translations maps into themselves.  Both must give the same subgroups, of
the same orders and element lists, in the same order, and the generators
each P carries must close to P.  `all_subgroups` and `normal_subgroups`
join closures of single elements and of conjugacy classes through the same
routine; the one-element-at-a-time loop is their oracle too, and each
subgroup of `all_subgroups` carries exactly its greedy picks in id order.
Normality, which `is_normal` decides at the generators of G, is checked
against conjugation by every element.

`groups._join_closures` builds each subgroup once, from its greedy picks
over the pieces, and drops every join that would reach a subgroup twice.
The breadth-first walk it replaced, which joins every subgroup found with
every piece outside it and keeps the joins not seen before, is kept here
as its reference: both must find the same element sets, and every join the
new walk completes must be a new subgroup.

`realizable_lattice` pairs each P with its orbit of 0 and checks nothing
else; the oracle for the pairs is the closure in G of the preimages of 0
under P's members, with the lattice laws checked entry by entry.
"""
import random
import sys

import pytest

from hgslab import (
    ClosureCapExceeded,
    InvalidSpec,
    all_subgroups,
    build_group,
    catalog_specs,
    g_stable_subgroups,
    normal_subgroups,
    realizable_lattice,
    rho_conjugate,
    rho_structure,
)
from hgslab import groups
from hgslab.correspondence import _lambda_orbits
from hgslab.groups import (
    Subgroup,
    _join,
    _join_closures,
    conjugacy_classes,
    subgroup_closure,
)
from hgslab.perms import PermGroup, _escape, _greedy_close, _left_translations
from test_hol_oracle import perm_group_as_group


def _every_subgroup(G):
    """All subgroups of an abstract group, one added element at a time."""
    trivial = subgroup_closure(G, ())
    found = {trivial.elements: trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            inside = set(sub.elements)
            for x in range(1, G.order):
                if x in inside:
                    continue
                bigger = subgroup_closure(G, set(sub.generators) | {x})
                if bigger.elements not in found:
                    found[bigger.elements] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def _scan_stable_subgroups(N):
    """Every subgroup of N, kept when the translations normalize it."""
    abstract, elems = perm_group_as_group(N.perms)
    out = []
    for sub in _every_subgroup(abstract):
        perms = [elems[i] for i in sub.elements]
        members = frozenset(perms)
        gens = [elems[i] for i in sub.generators] or perms
        if _escape(_left_translations(N.group), gens, members) is None:
            out.append(PermGroup(members))
    out.sort(key=lambda P: (P.order, P.canonical_key()))
    return out


def _same(N):
    want = [(P.order, P.elements) for P in _scan_stable_subgroups(N)]
    got = g_stable_subgroups(N)
    assert [(P.order, P.elements) for P in got] == want, N
    for P in got:
        assert _greedy_close(P.generators, P.order)[1] == P.element_set, N
    return len(got)


def test_stable_subgroups_match_the_scan_on_the_catalog(catalog_structures):
    assert len(catalog_structures) == 376
    for N in catalog_structures:
        _same(N)


def test_stable_subgroups_match_the_scan_on_rho_conjugates(catalog_structures):
    moved = 0
    for N in catalog_structures:
        for g in N.group.generating_set():
            M = rho_conjugate(N, g)
            moved += M is not N
            _same(M)
    assert moved > 0


def test_stable_subgroups_match_the_scan_on_elemab_2_5_rho():
    # lambda(G) and rho(G) commute, so every subgroup of rho(G) is stable
    assert _same(rho_structure(build_group("elemab:2:5"))) == 374


def _lattice_holds(N):
    """Each U is the closure of the preimages of 0 under P's members; P -> U
    is injective, keeps inclusions and has the trivial and full pairs."""
    G = N.group
    entries = list(realizable_lattice(N))
    for P, U in entries:
        want = subgroup_closure(G, {p.index(0) for p in P.elements})
        assert U.elements == want.elements, N
    assert len({U.elements for _, U in entries}) == len(entries), N
    for P1, U1 in entries:
        for P2, U2 in entries:
            if P1.element_set <= P2.element_set:
                assert U1.element_set <= U2.element_set, N
    pairs = {(P.order, U.elements) for P, U in entries}
    assert (1, (0,)) in pairs and (G.order, tuple(range(G.order))) in pairs, N
    return len(entries)


def test_lattices_match_the_preimage_closure(catalog_structures):
    for N in catalog_structures:
        _lattice_holds(N)
        for g in N.group.generating_set():
            _lattice_holds(rho_conjugate(N, g))
    assert _lattice_holds(rho_structure(build_group("elemab:2:5"))) == 374


def test_lattice_closes_no_permutations(catalog_structures, monkeypatch):
    # the join carries each P's generators and its index set is U, so
    # nothing is closed or probed for stability as permutations
    def refuse(*args):
        raise AssertionError("the lattice closed or probed permutations")

    structures = [*catalog_structures, rho_structure(build_group("elemab:2:5"))]
    for key, module in list(sys.modules.items()):
        if key.startswith("hgslab."):
            for name in ("_greedy_close", "_escape"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    for N in structures:
        monkeypatch.setattr(N, "_lattice", None)
        realizable_lattice(N)


def _greedy_picks(G, elements):
    """The ids of elements, in order, that the closure of the earlier picks
    does not reach."""
    picks = []
    for x in elements:
        if x not in subgroup_closure(G, picks):
            picks.append(x)
    return tuple(picks)


def _normal_by_scan(G, s):
    """Whether g a g^-1 lies in s for every a in s and every g in G."""
    return all(G.conj(a, g) in s.element_set
               for a in s.elements for g in range(G.order))


def test_is_normal_equals_the_full_conjugation_scan():
    # every subgroup of every catalog group of order 24 or less, and seeded
    # sets holding 0 that need not be subgroups: Subgroup refuses those that
    # are not closed, and the closed ones join the scan
    rng = random.Random(20261019)
    for spec in [str(g) for n in range(1, 25) for g in catalog_specs(n)]:
        G = build_group(spec)
        sets = list(all_subgroups(G))
        for _ in range(4):
            ids = {0, *rng.sample(range(G.order), G.order // 3)}
            if subgroup_closure(G, ids).element_set == ids:
                sets.append(Subgroup(G, ids))
            else:
                with pytest.raises(InvalidSpec, match="not closed"):
                    Subgroup(G, ids)
        for s in sets:
            assert s.is_normal() == _normal_by_scan(G, s), (spec, s)


def test_all_and_normal_subgroups_match_the_scan():
    specs = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]
    specs += ["sym:4", "dihedral:8", "elemab:2:5"]
    for spec in specs:
        G = build_group(spec)
        scan = _every_subgroup(G)
        want = [(s.elements, _greedy_picks(G, s.elements)) for s in scan]
        got = [(s.elements, s.generators) for s in all_subgroups(G)]
        assert got == want, spec
        want = [s.elements for s in scan if _normal_by_scan(G, s)]
        assert [s.elements for s in normal_subgroups(G)] == want, spec


def _breadth_first_joins(table, pieces):
    """The former walk: join every subgroup found with every piece outside
    it, keeping the joins not seen before."""
    trivial = frozenset((0,))
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for have in frontier:
            for piece in pieces:
                if piece[0] not in have:
                    key = frozenset(_join(table, have, found[have], piece))
                    if key not in found:
                        found[key] = found[have] + piece
                        nxt.append(key)
        frontier = nxt
    return found


@pytest.mark.parametrize("spec,count", [("sym:5", 156), ("alt:5", 59)])
def test_all_subgroups_above_order_64_match_the_breadth_first_walk(spec, count):
    G = build_group(spec)
    want = _breadth_first_joins(G.table, [(x,) for x in range(1, G.order)])
    got = all_subgroups(G)
    assert len(got) == len(want) == count
    assert {s.element_set for s in got} == set(want)


def test_all_subgroups_are_capped_by_the_lattice_limit():
    # elemab:2:7 has 29,212 subgroups, the subspaces of F_2^7
    with pytest.raises(ClosureCapExceeded):
        all_subgroups(build_group("elemab:2:7"))


def _closure(table, gens):
    """The ids reached from 0 by right multiplication with gens."""
    out = {0}
    while True:
        more = out | {table[a][g] for a in out for g in gens}
        if more == out:
            return out
        out = more


def _rho_lattice_input(spec):
    N = rho_structure(build_group(spec))
    return N.eta, _lambda_orbits(N)


def _completed_joins(monkeypatch, table, pieces):
    """(found, number of _join calls that returned a subgroup) for one
    _join_closures walk."""
    completed = []

    def counting(*args):
        out = _join(*args)
        completed.append(out is not None)
        return out

    with monkeypatch.context() as m:
        m.setattr(groups, "_join", counting)
        found = _join_closures(table, pieces)
    return found, sum(completed)


def test_join_closures_match_the_breadth_first_walk():
    for spec, count in (("sym:5", 156), ("metacyclic:31:5:2", 34)):
        table, pieces = _rho_lattice_input(spec)
        found = _join_closures(table, pieces)
        want = _breadth_first_joins(table, pieces)
        assert len(found) == len(want) == count, spec
        assert set(found) == set(want), spec
        for key, gens in found.items():
            assert _closure(table, gens) == key, spec


def test_every_completed_join_is_a_new_subgroup(monkeypatch):
    inputs = [_rho_lattice_input("sym:5")]
    for spec in ("sym:4", "dihedral:8"):
        G = build_group(spec)
        inputs.append((G.table, [(x,) for x in range(1, G.order)]))
        inputs.append((G.table, conjugacy_classes(G)[1:]))
    counts = []
    for table, pieces in inputs:
        found, completed = _completed_joins(monkeypatch, table, pieces)
        assert completed == len(found) - 1
        counts.append(completed)
    assert counts[0] == 155
