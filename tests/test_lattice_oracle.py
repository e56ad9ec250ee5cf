"""Differential oracle for the stable-subgroup lattice of a structure.

`g_stable_subgroups` joins closures of the orbits of conjugation by lambda(G)
on N's member indices.  The oracle here is the direct route: build N's
Cayley table on its sorted elements, list every subgroup by closing one
added element at a time, and keep the ones that conjugation by the left
translations maps into themselves.  Both must give the same subgroups, as
`to_json()`, in the same order.  `all_subgroups` and `normal_subgroups`
join closures of single elements and of conjugacy classes through the same
routine; the one-element-at-a-time loop is their oracle too.
"""

from hgslab import (
    all_subgroups,
    build_group,
    catalog_specs,
    g_stable_subgroups,
    normal_subgroups,
    rho_conjugate,
    rho_structure,
)
from hgslab.groups import subgroup_closure
from hgslab.perms import PermGroup, _escape, _left_translations
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
    want = [P.to_json() for P in _scan_stable_subgroups(N)]
    got = [P.to_json() for P in g_stable_subgroups(N)]
    assert got == want, N
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


def test_all_and_normal_subgroups_match_the_scan():
    specs = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]
    specs += ["sym:4", "dihedral:8", "elemab:2:5"]
    for spec in specs:
        G = build_group(spec)
        scan = _every_subgroup(G)
        want = [(s.elements, s.generators) for s in scan]
        got = [(s.elements, s.generators) for s in all_subgroups(G)]
        assert got == want, spec
        want = [s.elements for s in scan if s.is_normal()]
        assert [s.elements for s in normal_subgroups(G)] == want, spec
