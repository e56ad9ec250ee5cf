"""Differential oracles for the rho action and the subgroup check.

`rho_orbit` searches an orbit over the generators of G and closes the
stabilizer from Schreier generators.  The oracle here is the direct route:
conjugate the structure by every right translation, take the first element
that reaches each member as its carrier, and collect the elements that fix
it as the stabilizer.  Both must give the same `to_json()`, member for
member and carrier for carrier.

`_greedy_close` decides whether a set of permutations is closed by closing a
generating subset of it; the oracle tests every product of two members.
"""

import random

from hgslab import (
    abelian_maps,
    build_group,
    catalog_specs,
    certify,
    enumerate_hgs,
    hgs_from_abelian_map,
    lambda_structure,
    rho_orbit,
    rho_partition,
    same_conjugate,
    subgroup_closure,
)
from hgslab.perms import _compose, _greedy_close, perm_group_from_elements
from hgslab.rho import RhoOrbit, _conjugate_key, _rho_images
from hgslab.verify import metacyclic_base_structure

CATALOG = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]


def _scan_orbit(N):
    """The orbit of N by conjugating with every right translation."""
    G = N.group
    base_key = N.perms.element_set
    base_elems = [p.images for p in N.perms.elements]
    first_g = {}
    stab = []
    for g in range(G.order):
        key = _conjugate_key(
            base_elems, _rho_images(G, g), _rho_images(G, G.inverse[g])
        )
        if key == base_key:
            stab.append(g)
        first_g.setdefault(key, g)
    built = []
    for key, g in first_g.items():
        member = N if key == base_key else certify(
            G, perm_group_from_elements(key), type_label=N._type_label
        )
        built.append((member.canonical_key(), member, g))
    built.sort(key=lambda t: t[0])
    stabilizer = subgroup_closure(G, stab)
    assert stabilizer.order == len(stab)
    assert len(built) * len(stab) == G.order
    return RhoOrbit(G, N, [m for _, m, _ in built], [g for _, _, g in built],
                    stabilizer)


def _scan_partition(structures):
    consumed, orbits = set(), []
    for s in structures:
        if s.perms.element_set not in consumed:
            orbit = _scan_orbit(s)
            consumed.update(m.perms.element_set for m in orbit.members)
            orbits.append(orbit)
    return orbits


def _scan_same_conjugate(N1, N2):
    G = N1.group
    elems = [p.images for p in N1.perms.elements]
    target = N2.perms.element_set
    for g in range(G.order):
        if _conjugate_key(
            elems, _rho_images(G, g), _rho_images(G, G.inverse[g])
        ) == target:
            return g
    return None


def _check_orbits(structures):
    for N in structures:
        assert rho_orbit(N).to_json() == _scan_orbit(N).to_json()
    fast = [o.to_json() for o in rho_partition(structures)]
    assert fast == [o.to_json() for o in _scan_partition(structures)]


def _s5_structures():
    return [hgs_from_abelian_map(am) for am in abelian_maps(build_group("sym:5"))]


def test_rho_orbit_equals_scan_on_catalog():
    total = 0
    for spec in CATALOG:
        inv = enumerate_hgs(build_group(spec))
        _check_orbits(list(inv))
        total += len(inv)
    assert total == 376


def test_rho_orbit_equals_scan_on_s5_abelian_maps():
    structures = _s5_structures()
    assert len(structures) == 26
    _check_orbits(structures)


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


def _all_pairs_closed(elems):
    eset = set(elems)
    return all(_compose(p, q) in eset for p in elems for q in elems)


def test_greedy_close_equals_all_pairs_on_seeded_mutants():
    rng = random.Random(20261018)
    bases = [
        [p.images for p in s.perms.elements]
        for spec in ("sym:3", "dihedral:4", "quaternion:8", "metacyclic:7:3:2")
        for s in enumerate_hgs(build_group(spec))
    ]
    bases += [[p.images for p in s.perms.elements] for s in _s5_structures()[:3]]
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
            assert (_greedy_close(cand, set(cand)) is not None) == want
            verdicts.append(want)
    assert verdicts.count(True) >= len(bases)
    assert verdicts.count(False) > len(bases)
