"""ρ-conjugates found among the live structures by their probe.

`rho._conjugate` forms only the probe of N_g = ρ(g)·N·ρ(g)⁻¹, its members
at the ids of `G.generating_set()`, and hands out N itself when the probe
is N's, else the live structure `hgs._held` under that probe and N's
label.  Only on a miss does it relabel N's whole table.  The oracle is the
relabel path itself: N's table relabelled by ρ(g⁻¹) through `hgs._relabel`,
N when the members are N's own, else `hgs._structure` of them under N's
label.  The probe path must hand out that same object, for every structure
at every g, with the memo full or emptied; a twin that was never filed must
not be handed out, a set that shares a live structure's probe but not its
members must be certified, and a label mismatch must certify a fresh
structure, as `_structure` does.
"""

import pytest

from hgslab import (
    FiniteGroup,
    abelian_maps,
    build_group,
    catalog_specs,
    certify,
    enumerate_hgs,
    hgs_from_abelian_map,
    rho_conjugate,
    rho_orbit,
    type_of,
)
from hgslab import hgs, rho
from hgslab.errors import HgsError
from hgslab.groups import _cycle_at_0
from hgslab.perms import PermGroup, rho_embed

CATALOG = [str(g) for n in list(range(1, 16)) + [21] for g in catalog_specs(n)]


def _orders(N):
    return lambda: tuple(map(_cycle_at_0, N.eta))


def _relabel_path(N, g):
    """N_g by relabelling N's whole table by ρ(g⁻¹)."""
    G = N.group
    eta, gens = hgs._relabel(N.eta, _orders(N), rho_embed(G, G.inverse[g]))
    if tuple(eta) == N.eta:
        return N
    return hgs._structure(G, eta, gens, N._type_label)


def _probe_path(N, g):
    return rho._conjugate(N, g, _orders(N))[1]()


def _check_probe_path(structures):
    """On every structure at every g the probe path hands out the object
    the relabel path does, with the memo full, and again once it is emptied,
    when the probe path certifies and files each conjugate first."""
    G = structures[0].group
    got = [[_probe_path(N, g) for g in range(G.order)] for N in structures]
    for N, row in zip(structures, got):
        for g, M in enumerate(row):
            assert M is _relabel_path(N, g)
    hgs._live(G).clear()
    for N, row in zip(structures, got):
        for g, M in enumerate(row):
            again = _probe_path(N, g)
            assert again is _relabel_path(N, g)
            assert (again is N) == (M is N)
            assert again.to_json() == M.to_json()
    return sum(M is not N for row in got for M in row)


def test_probe_path_is_the_relabel_path_on_catalog_and_s5_maps():
    # groups of their own, so no other test leaves structures on them
    moved = 0
    for spec in CATALOG:
        moved += _check_probe_path(list(enumerate_hgs(FiniteGroup(build_group(spec).table))))
    G = FiniteGroup(build_group("sym:5").table)
    moved += _check_probe_path([hgs_from_abelian_map(am) for am in abelian_maps(G)])
    assert moved > 0


def test_conjugate_probe_is_the_probe_of_the_conjugate():
    # the key rho looks up is read at the ids _probe files under: member x
    # of a regular set is its one element sending 0 to x
    for spec in CATALOG:
        G = build_group(spec)
        for N in enumerate_hgs(G):
            for g in range(G.order):
                b = rho_embed(G, G.inverse[g])
                eta, _ = hgs._relabel(N.eta, _orders(N), b)
                at = {p[0]: p for p in eta}
                want = tuple(at[x] for x in G.generating_set())
                assert hgs._conjugate_probe(N, b, rho_embed(G, g)) == want
            unmoved = hgs._conjugate_probe(N, G.table[0], G.table[0])
            assert unmoved == hgs._probe(G, N.eta)


def _moving_pair(spec):
    """(inventory, N, g, C) on a group of its own: C = N_g is live and is
    not N."""
    G = FiniteGroup(build_group(spec).table)
    inv = list(enumerate_hgs(G))
    for N in inv:
        for g in range(G.order):
            C = _probe_path(N, g)
            if C is not N:
                return inv, N, g, C
    raise AssertionError(f"no structure of {spec} moves")


def _counted(monkeypatch, N, g):
    """(the probe path's N_g, the number of _relabel calls it made)."""
    calls = []
    relabel = rho._relabel
    with monkeypatch.context() as patch:
        patch.setattr(rho, "_relabel", lambda *a: calls.append(a) or relabel(*a))
        return _probe_path(N, g), len(calls)


def test_a_twin_never_filed_is_not_handed_out(monkeypatch):
    inv, N, g, C = _moving_pair("metacyclic:7:3:2")
    G, probe = N.group, hgs._probe(N.group, C.eta)
    assert hgs._live(G)[probe] is C
    got, relabels = _counted(monkeypatch, N, g)
    assert got is C and relabels == 0
    # a twin of C certified outside the memo is not the live structure of
    # its probe, and neither the probe path nor _structure hands it out
    twin = certify(G, PermGroup(C.eta), C.type_label)
    got, relabels = _counted(monkeypatch, N, g)
    assert got is C and got is not twin and relabels == 0
    assert rho_conjugate(N, g) is C and hgs._live(G)[probe] is C
    assert hgs._structure(G, twin.eta, None, C.type_label) is C


def test_a_set_sharing_a_probe_is_compared_member_by_member():
    # a set built outside the search may share a live structure's probe
    # without being it; _structure must certify it, not hand out the live one
    inv, _, _, C = _moving_pair("metacyclic:7:3:2")
    G = C.group
    x = next(x for x in range(1, G.order) if x not in G.generating_set())
    eta = list(C.eta)
    eta[x] = eta[0]
    assert hgs._probe(G, eta) == hgs._probe(G, C.eta)
    with pytest.raises(HgsError):
        hgs._structure(G, eta, lambda: PermGroup(eta).generators, C.type_label)
    assert hgs._live(G)[hgs._probe(G, C.eta)] is C


def test_a_label_mismatch_certifies_a_fresh_structure():
    G = FiniteGroup(build_group("sym:3").table)
    structures = [hgs_from_abelian_map(am) for am in abelian_maps(G)]
    N = next(N for N in structures if any(
        _probe_path(N, g) is not N for g in range(G.order)))
    g = next(g for g in range(G.order) if _probe_path(N, g) is not N)
    C = _probe_path(N, g)
    probe = hgs._probe(G, C.eta)
    assert C.type_label is None and hgs._live(G)[probe] is C
    label = type_of(N)
    got = rho_conjugate(N, g)
    assert got is not C and got.type_label == label
    fresh = certify(G, PermGroup(C.eta), label)
    assert got.to_json() == fresh.to_json()
    # the fresh one replaced C in the memo, so it is handed out again
    assert hgs._live(G)[probe] is got
    assert rho_conjugate(N, g) is got


def test_s5_maps_conjugate_and_orbit_without_relabelling(monkeypatch):
    # a group of its own, so the structures carry no orbit record yet
    G = FiniteGroup(build_group("sym:5").table)
    structures = [hgs_from_abelian_map(am) for am in abelian_maps(G)]
    held = {id(N) for N in structures}

    def refuse(*args):
        raise AssertionError("a conjugate was relabelled")

    with monkeypatch.context() as patch:
        patch.setattr(rho, "_relabel", refuse)
        for N in structures:
            assert all(id(rho_conjugate(N, g)) in held for g in range(G.order))
        sizes = sorted(rho_orbit(N).size for N in structures)
    assert sizes == [1] + [10] * 10 + [15] * 15
