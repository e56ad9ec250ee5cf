"""Acceptance gate: ten criteria, one test function per criterion.

Every assertion is exact (set equality, exact counts); each criterion also
carries a wall-clock budget asserted at the end of its test.  Two criteria
assert facts that differ from a naive reading of their families, each
proved by hand in the test's comment:

* criterion 2: the dihedral two-generator family on D_n has n/2 distinct
  members (and an orbit of that size) when n = 2 mod 4, but n/4 when 4 | n,
  because for even n/2 a power of the generator of N_k is the generator of
  N_{k+n/4};
* criterion 7: conjugation by the right translation of t sends member k
  of the order-21 sibling family to member d*k, and the stabilizer of
  member k is the order-3 subgroup generated by s^k t, because rho(s^k t)
  fixes both generators of that member.

The `hgslab verify` suite asserts the same behaviour.
"""

import time

from hgslab import (
    brute_force_inventory,
    build_group,
    catalog_specs,
    enumerate_hgs,
    opposite,
    opposite_conjugate_commute,
    parse_spec,
    rho_conjugate,
    rho_orbit,
    rho_partition,
    type_of,
)
from hgslab.constructions import (
    abelian_maps,
    coset_stable_regular_subgroups,
    embedding_conjugation_check,
    fpf_transport_check,
    hgs_from_abelian_map,
    hgs_from_fpf,
    induced_hgs,
    induced_input,
    induced_transport_check,
    to_hol_embedding,
)
from hgslab.correspondence import _transport_matches, realizable_lattice
from hgslab.groups import all_subgroups, subgroup_closure
from hgslab.perms import PermGroup, rho_embed
from hgslab.verify import (
    _abelian_transport_exhaustive,
    _brace_coherent,
    dihedral_fpf_pair,
    dihedral_index,
    dihedral_mu,
    dihedral_two_generator_family,
    metacyclic_base_structure,
    metacyclic_cyclic_family,
    metacyclic_sibling_family,
)
from hgslab.perms import generated_perm_group


def _keys(structures):
    return {frozenset(N.eta) for N in structures}


def test_criterion_01_metacyclic_cyclic_family():
    start = time.perf_counter()
    G = build_group("metacyclic:7:3:2")
    base = metacyclic_base_structure(G)
    orbit = rho_orbit(base)
    assert orbit.size == 7, f"orbit size {orbit.size}, expected exactly 7"
    family_keys = _keys(metacyclic_cyclic_family(G))
    assert _keys(orbit.members) == family_keys, \
        "orbit members differ from the exponent-formula family"
    assert orbit.stabilizer.elements == (0, 1, 2), \
        f"stabilizer {orbit.stabilizer.elements} is not the order-3 subgroup"
    filtered = enumerate_hgs(G, type_filter=parse_spec("cyclic:21"))
    assert _keys(filtered.structures) == family_keys, \
        "cyclic-type enumeration does not return exactly the family"
    assert time.perf_counter() - start < 60


def test_criterion_02_dihedral_family():
    # N_k = <a, lambda(s)> with a = lambda(r) rho(w), w = r^{2k} s, and
    # rho(x) y = y x^{-1}.  z = r^{n/2} is central of order 2 for every even
    # n, so lambda(z) = rho(z).  Collapse: w^2 = 1, so for odd m,
    # a^m = lambda(r^m) rho(w); when n/2 is even, m = 1 + n/2 is odd and
    # a^m = lambda(r) rho(z w) = lambda(r) rho(r^{2k+n/2} s), the generator of
    # N_{k+n/4}; both are regular, so N_k = N_{k+n/4}.  Nothing else
    # collapses: every element of N_k is lambda(x) rho(w^e), so N_k = N_j
    # puts rho(r^{2(k-j)}) = lambda(x) rho(w^e) in N_k, so lambda(x) lies in
    # lambda(G) and rho(G), which meet in lambda(Z(G)) = {1, lambda(z)};
    # this forces e = 0 and 2(k-j) = 0 or n/2 mod n.  Hence n/2
    # distinct members when n = 2 mod 4 and n/4 when 4 | n.  Conjugation by
    # rho(g) fixes lambda(s) and moves w through all its conjugates
    # r^{2i} s, so the orbit of N_0 is exactly the family.  n = 8 tells
    # "n/4" apart from "a single subgroup".
    start = time.perf_counter()
    for n, expected in ((4, 1), (6, 3), (8, 2)):
        assert expected == (n // 4 if n % 4 == 0 else n // 2)
        _, members = dihedral_two_generator_family(n)
        orbit = rho_orbit(members[0])
        distinct = len(_keys(members))
        assert distinct == expected and orbit.size == expected, (
            f"n={n}: {distinct} distinct members, orbit size {orbit.size}, "
            f"expected {expected}"
        )
        assert _keys(orbit.members) == _keys(members), \
            f"n={n}: the orbit of N_0 is not the family"

    G4, members4 = dihedral_two_generator_family(4)
    s_index = dihedral_index(4, 0, 1)
    for k in range(2):
        stated = generated_perm_group(
            [rho_embed(G4, s_index), dihedral_mu(4, k)]
        )
        assert frozenset(opposite(members4[k]).eta) == stated.element_set, \
            f"n=4 k={k}: opposite differs from the stated two-generator form"
    assert time.perf_counter() - start < 10


def test_criterion_03_abelian_degeneration():
    start = time.perf_counter()
    specs = ["cyclic:4", "cyclic:6", "cyclic:8", "cyclic:9", "elemab:2:2",
             "product:cyclic:2,cyclic:4", "elemab:3:2"]
    for spec in specs:
        for N in enumerate_hgs(build_group(spec)):
            size = rho_orbit(N).size
            assert size == 1, f"{spec}: structure with orbit size {size}"
    assert time.perf_counter() - start < 60


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    for order in range(1, 9):
        for spec in catalog_specs(order):
            G = build_group(spec)
            assert enumerate_hgs(G).canonical_keys() == \
                brute_force_inventory(G).canonical_keys(), str(spec)
    assert time.perf_counter() - start < 120


def test_criterion_05_brace_coherence():
    start = time.perf_counter()
    for order in range(1, 13):
        for spec in catalog_specs(order):
            G = build_group(spec)
            for N in enumerate_hgs(G):
                problem = _brace_coherent(G, N)
                assert problem is None, f"{spec}: {problem}"
    assert time.perf_counter() - start < 180


def test_criterion_06_opposite_transport():
    start = time.perf_counter()
    for order in range(1, 13):
        for spec in catalog_specs(order):
            G = build_group(spec)
            for N in enumerate_hgs(G):
                for g in range(G.order):
                    assert opposite_conjugate_commute(N, g), \
                        f"{spec}: conjugation and opposite differ at g={g}"
    G = build_group("metacyclic:7:3:2")
    for M in rho_orbit(metacyclic_base_structure(G)).members:
        for g in range(21):
            assert opposite_conjugate_commute(M, g)
    assert time.perf_counter() - start < 60


def test_criterion_07_metacyclic_sibling_family():
    start = time.perf_counter()
    G = build_group("metacyclic:7:3:2")
    p, q, d = 7, 3, 2
    family = metacyclic_sibling_family(G)
    keys = [frozenset(N.eta) for N in family]
    assert len(set(keys)) == 7, "family members are not pairwise distinct"
    for k, N in enumerate(family):
        assert str(type_of(N)) == "metacyclic:7:3:2", \
            f"member {k} is not of metacyclic type"
        shifted = frozenset(rho_conjugate(N, q).eta)
        assert shifted == keys[(k + 1 - d) % p], \
            f"conjugation by rho(s) does not send {k} to {(k + 1 - d) % p}"
    opp_keys = [frozenset(opposite(N).eta) for N in family]
    assert len(set(opp_keys)) == 7 and not set(opp_keys) & set(keys), \
        "opposites do not form a disjoint family of 7"
    assert _keys(rho_orbit(opposite(family[0])).members) == set(opp_keys), \
        "opposites do not form a single second orbit"

    # N_k = <lambda(s), lambda(t) rho((s^k t)^{-1})>, rho(x) y = y x^{-1}.
    # rho(t) fixes lambda(s) and, as t s^k t t^{-1} = s^{dk} t, sends the
    # second generator to lambda(t) rho((s^{dk} t)^{-1}): k -> d*k mod p.
    # rho(s^k t) commutes with both generators, so it normalizes N_k; the
    # seven members form one orbit of rho(G), so the stabilizer of N_k has
    # order 3 and is exactly <s^k t>.  These are the seven distinct Sylow
    # 3-subgroups, so rho(t) normalizes member 0 only.
    for k, N in enumerate(family):
        moved = frozenset(rho_conjugate(N, 1).eta)
        assert moved == keys[(d * k) % p], \
            f"conjugation by rho(t) does not send {k} to {(d * k) % p}"
        u = q * k + 1
        assert frozenset(rho_conjugate(N, u).eta) == keys[k], \
            f"rho(s^{k} t) does not normalize member {k}"
        assert rho_orbit(N).stabilizer.elements == \
            subgroup_closure(G, [u]).elements, \
            f"stabilizer of member {k} is not <s^{k} t>"
    assert time.perf_counter() - start < 30


def test_criterion_08_construction_transports():
    start = time.perf_counter()
    # embedding conjugation and fixed point free transport on the
    # order-8 dihedral family, reproducing its two-generator members
    G4, members4 = dihedral_two_generator_family(4)
    fam_keys = _keys(members4)
    for k in range(2):
        f1, f2 = dihedral_fpf_pair(G4, 4, k)
        N = hgs_from_fpf(f1, f2)
        assert frozenset(N.eta) in fam_keys, \
            f"fpf pair k={k} does not reproduce the two-generator family"
        for g in range(8):
            assert fpf_transport_check(f1, f2, g), f"fpf transport k={k} g={g}"
        emb = to_hol_embedding(N)
        for g in range(8):
            assert embedding_conjugation_check(emb, g), \
                f"embedding conjugation k={k} g={g}"

    # abelian-map transport, exhaustive over all maps and elements of sym:5
    s5_start = time.perf_counter()
    problem = _abelian_transport_exhaustive(build_group("sym:5"))
    assert problem is None, problem
    assert time.perf_counter() - s5_start < 300

    # induced transport on the order-21 metacyclic factorization,
    # reproducing a member of the cyclic-type orbit
    G = build_group("metacyclic:7:3:2")
    T = subgroup_closure(G, [1])
    S = subgroup_closure(G, [3])
    (A,) = coset_stable_regular_subgroups(G, T)
    t_group, _ = T.as_group()
    B = PermGroup(
        tuple(t_group.table[u]) for u in range(3)
    )
    inp = induced_input(G, T, S, A, B)
    N = induced_hgs(inp)
    cyclic_orbit = _keys(rho_orbit(metacyclic_base_structure(G)).members)
    assert frozenset(N.eta) in cyclic_orbit, \
        "induced structure is not in the cyclic-type orbit"
    for g in range(21):
        assert induced_transport_check(inp, g), f"induced transport g={g}"
    assert time.perf_counter() - start < 330


def test_criterion_09_s5_abelian_maps():
    start = time.perf_counter()
    G = build_group("sym:5")
    maps = abelian_maps(G)
    assert len(maps) == 26, f"{len(maps)} abelian maps, expected exactly 26"
    structures = [hgs_from_abelian_map(am) for am in maps]
    assert len(_keys(structures)) == 26, \
        "structures from distinct maps are not pairwise distinct"
    sizes = sorted(len(c) for c in rho_partition(structures))
    assert sizes == [1, 10, 15], f"orbit class sizes {sizes}"
    assert time.perf_counter() - start < 300


def test_criterion_10_correspondence():
    start = time.perf_counter()
    for order in range(1, 13):
        for spec in catalog_specs(order):
            G = build_group(spec)
            for N in enumerate_hgs(G):
                for P, U in realizable_lattice(N):
                    assert len(U.elements) == P.order, \
                        f"{spec}: |U| != |P| at order {P.order}"
                for g in range(G.order):
                    assert _transport_matches(N, rho_conjugate(N, g), g), \
                        f"{spec}: lattice transport failed at g={g}"

    G = build_group("metacyclic:7:3:2")
    members = rho_orbit(metacyclic_base_structure(G)).members
    order3_fixed = set()
    for M in members:
        lat = realizable_lattice(M)
        assert sorted(P.order for P, _ in lat) == [1, 3, 7, 21], \
            "family lattice does not have exactly the four expected entries"
        for P, U in lat:
            assert len(U.elements) == P.order
        (u3,) = [U for P, U in lat if P.order == 3]
        order3_fixed.add(u3.elements)
        for g in range(21):
            assert _transport_matches(M, rho_conjugate(M, g), g)
    assert len(order3_fixed) == 7, \
        "order-3 fixed subgroups are not distinct across the orbit"
    all_order3 = {h.elements for h in all_subgroups(G) if len(h.elements) == 3}
    assert order3_fixed == all_order3, \
        "order-3 fixed subgroups do not cover all order-3 subgroups"
    assert time.perf_counter() - start < 60
