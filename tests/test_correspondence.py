"""Stable subgroups of a structure and their fixed subgroups in the group."""

import random
import time

import pytest

from hgslab import (
    CorrespondenceError,
    HgsError,
    InvalidSpec,
    abelian_maps,
    build_group,
    enumerate_hgs,
    fixed_subgroup,
    g_stable_subgroups,
    hgs_from_abelian_map,
    lambda_structure,
    lattice_transport_check,
    normal_subgroups,
    realizable_lattice,
    rho_structure,
)
from hgslab.perms import PermGroup, generated_perm_group, lambda_embed
from hgslab.verify import metacyclic_base_structure


def test_stable_subgroups_of_left_translations_are_normal(s3):
    N = lambda_structure(s3)
    stable = g_stable_subgroups(N)
    assert len(stable) == len(normal_subgroups(s3))
    assert sorted(P.order for P in stable) == [1, 3, 6]


def test_all_subgroups_of_right_translations_are_stable(s3):
    N = rho_structure(s3)
    stable = g_stable_subgroups(N)
    assert sorted(P.order for P in stable) == [1, 2, 2, 2, 3, 6]


def test_fixed_subgroup_order_matches(s3):
    N = rho_structure(s3)
    for P in g_stable_subgroups(N):
        U = fixed_subgroup(N, P)
        assert len(U.elements) == P.order


def test_fixed_subgroup_rejects_unstable(s3):
    N = lambda_structure(s3)
    P = generated_perm_group([lambda_embed(s3, 1)])  # non-normal order 2
    with pytest.raises(CorrespondenceError):
        fixed_subgroup(N, P)


def test_lattice_entries_and_inclusions(m733):
    N = metacyclic_base_structure(m733)
    lat = realizable_lattice(N)
    orders = sorted(P.order for P, _ in lat)
    assert orders == [1, 3, 7, 21]
    for P, U in lat:
        assert len(U.elements) == P.order
    # inclusion of stable subgroups must match inclusion of fixed subgroups
    entries = list(lat)
    for P1, U1 in entries:
        for P2, U2 in entries:
            if P1.element_set <= P2.element_set:
                assert set(U1.elements) <= set(U2.elements)


def test_lattice_has_trivial_and_full_entries(s3_inventory):
    for N in s3_inventory:
        lat = realizable_lattice(N)
        orders = sorted(P.order for P, _ in lat)
        assert orders[0] == 1 and orders[-1] == 6


def test_lattice_transport(m733):
    N = metacyclic_base_structure(m733)
    for g in range(21):
        assert lattice_transport_check(N, g)


def test_lattice_to_json_shape(s3):
    lat = realizable_lattice(rho_structure(s3))
    payload = lat.to_json()
    assert payload["schema"] == "hgslab.lattice/1"
    assert len(payload["entries"]) == len(lat.entries)
    for entry in payload["entries"]:
        assert len(entry["fixed_subgroup"]) == entry["order"]


def test_order_three_fixed_subgroups_cover_everything(m733):
    from hgslab import all_subgroups, rho_orbit

    members = rho_orbit(metacyclic_base_structure(m733)).members
    seen = set()
    for M in members:
        for P, U in realizable_lattice(M):
            if P.order == 3:
                seen.add(U.elements)
    want = {h.elements for h in all_subgroups(m733) if len(h.elements) == 3}
    assert seen == want and len(seen) == 7


def test_sym_5_abelian_map_lattices_and_transport():
    start = time.perf_counter()
    G = build_group("sym:5")
    structures = [hgs_from_abelian_map(am) for am in abelian_maps(G)]
    assert len(structures) == 26
    for N in structures:
        lat = realizable_lattice(N)
        assert len(lat) in (3, 4)
        for P, U in lat:
            assert len(U.elements) == P.order
        for g in G.generating_set():
            assert lattice_transport_check(N, g)
    assert time.perf_counter() - start < 10


def _call(f, *args):
    """f's result, or the HgsError it raised; any other exception fails."""
    try:
        return f(*args)
    except HgsError as e:
        return e


def _random_ps(rng, N):
    """Closures of random members of N, of a random permutation of N's
    points or of a longer one, and of both; a set whose closure passes the
    cap is dropped."""
    n = len(N.eta)
    sets = [rng.sample(N.eta, rng.randint(1, min(3, n))),
            [tuple(rng.sample(range(n), n))],
            [tuple(rng.sample(range(n + 1), n + 1))],
            [rng.choice(N.eta), tuple(rng.sample(range(n), n))]]
    for gens in sets:
        P = _call(generated_perm_group, gens)
        if isinstance(P, PermGroup):
            yield P


def test_seeded_fuzz_of_the_correspondence_entry_points(catalog_structures):
    # each entry point returns a valid object or raises an HgsError; a P
    # from outside is refused exactly when it is not a stable subgroup
    start = time.perf_counter()
    rng = random.Random(20261022)
    structures = [N for N in catalog_structures if len(N.eta) <= 12]
    outcomes = set()
    for N in structures:
        G, n = N.group, len(N.eta)
        lat = _call(realizable_lattice, N)
        stable = _call(g_stable_subgroups, N)
        assert [P.elements for P, _ in lat] == [P.elements for P in stable]
        assert stable == sorted(stable, key=lambda P: (P.order, P.elements))
        pairs = {}
        for P, U in lat:
            assert U.parent is G and U.order == P.order
            assert all(p in N for p in P.elements)
            pairs[P.element_set] = U.elements
        for P in _random_ps(rng, N):
            U = _call(fixed_subgroup, N, P)
            if P.element_set in pairs:
                assert U.elements == pairs[P.element_set], N
            else:
                assert isinstance(U, CorrespondenceError), N
            outcomes.add(type(U).__name__)
        for g in (rng.randrange(n), rng.randrange(-2, n + 2)):
            holds = _call(lattice_transport_check, N, g)
            assert holds is True if 0 <= g < n else isinstance(holds, InvalidSpec)
            outcomes.add(repr(holds) if holds is True else type(holds).__name__)
    assert len(structures) > 200
    assert outcomes == {"Subgroup", "CorrespondenceError", "True", "InvalidSpec"}
    assert time.perf_counter() - start < 2
