"""Stable subgroups of a structure and their fixed subgroups in the group."""

import time

import pytest

from hgslab import (
    CorrespondenceError,
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
from hgslab.perms import generated_perm_group, lambda_embed
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
