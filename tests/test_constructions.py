"""Builders: embeddings, fixed point free pairs, abelian maps, induction."""

import itertools
import random
import re
import time

import pytest

from hgslab import (
    AbelianMap,
    ConstructionError,
    CosetSpace,
    GroupHom,
    HolEmbedding,
    NotRegular,
    abelian_maps,
    abelian_transport_check,
    all_subgroups,
    brute_force_inventory,
    build_group,
    catalog_specs,
    coset_stable_regular_subgroups,
    embedding_conjugation_check,
    enumerate_hgs,
    fpf_check,
    fpf_embedding,
    fpf_transport_check,
    from_hol_embedding,
    hgs_from_abelian_map,
    hgs_from_fpf,
    hol_embedding,
    induced_hgs,
    induced_input,
    induced_transport_check,
    is_homomorphism,
    lambda_structure,
    left_translation_image,
    PermGroup,
    rho_partition,
    rho_structure,
    structure_group,
    subgroup_closure,
    to_hol_embedding,
    UnsupportedOrder,
)
import hgslab.constructions as constructions
from hgslab.constructions import _holomorph_group
from hgslab.errors import InvalidSpec
from hgslab.groups import _generator_maps, automorphisms
from hgslab.hgs import _regular_scan, certify, stable_regular_subgroups
from hgslab.perms import _conjugate_all, _escape, _invert, in_holomorph
from hgslab.verify import (
    dihedral_fpf_pair,
    dihedral_two_generator_family,
    metacyclic_base_structure,
)

ABELIAN_MAP_COUNTS = {
    "cyclic:4": 4,
    "elemab:2:2": 16,
    "sym:3": 4,
    "dihedral:4": 28,
    "quaternion:8": 4,
}


def _identity_hom(G):
    return GroupHom(G, G, range(G.order))


def _trivial_hom(G):
    return GroupHom(G, G, [0] * G.order)


def test_embedding_round_trip(s3_inventory):
    for N in s3_inventory:
        emb = to_hol_embedding(N)
        back = from_hol_embedding(emb)
        assert frozenset(back.eta) == frozenset(N.eta)


def test_structure_from_an_embedding_needs_a_base_point_bijection():
    G = build_group("cyclic:4")
    emb = to_hol_embedding(lambda_structure(G))
    images = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (7, 0, 1, 2)]
    for beta in (images, emb.beta[:3]):
        with pytest.raises(NotRegular, match="base point map is not a bijection"):
            from_hol_embedding(HolEmbedding(G, emb.target, beta))
    # b(0) = 1: the same structure as the identity embedding's
    shifted = [tuple((x + 1) % 4 for x in row) for row in emb.beta]
    N = from_hol_embedding(HolEmbedding(G, emb.target, shifted))
    assert N.canonical_hash() == "031f409039ede13a"
    assert frozenset(N.eta) == frozenset(from_hol_embedding(emb).eta)


def test_embedding_rejects_non_homomorphism(s3):
    M = build_group("cyclic:6")
    rows = [tuple(M.table[g]) for g in range(6)]
    rows[1], rows[2] = rows[2], rows[1]  # breaks multiplicativity
    from hgslab import hol_embedding

    with pytest.raises(ConstructionError):
        hol_embedding(s3, M, rows)


def _law_failures(G, rows):
    """Every (g, h) with beta(g h) != beta(g) . beta(h), by a full scan."""
    return [(g, h) for g in range(G.order) for h in range(G.order)
            if rows[G.table[g][h]] != tuple(rows[g][x] for x in rows[h])]


def test_hol_embedding_law_on_generators_equals_the_full_scan(catalog_structures):
    # seeded corruptions of true embeddings (two rows swapped, or two
    # entries of one row): the law is refused exactly when the full scan
    # finds a failing pair, and the pair named is the first failure by g
    # among those at a generator h
    rng = random.Random(20261019)
    named = 0
    for N in rng.sample([N for N in catalog_structures if N.order > 1], 50):
        G, emb = N.group, to_hol_embedding(N)
        gens = G.generating_set()
        assert emb.beta == tuple(tuple(G.table[g]) for g in range(G.order))
        cases = [list(emb.beta)]
        for _ in range(4):
            bad, (i, j) = list(emb.beta), rng.sample(range(G.order), 2)
            if rng.randrange(2):
                bad[i], bad[j] = bad[j], bad[i]
            else:
                row = list(bad[i])
                row[i], row[j] = row[j], row[i]
                bad[i] = tuple(row)
            cases.append(bad)
        for rows in cases:
            fails = _law_failures(G, rows)
            try:
                hol_embedding(G, emb.target, rows)
                message = ""
            except ConstructionError as exc:
                message = str(exc)
            law = re.fullmatch(r"beta is not a homomorphism at \((\d+), (\d+)\)",
                               message)
            assert bool(law) == bool(fails), (N, rows)
            if law:
                first = min((g, gens.index(h)) for g, h in fails if h in gens)
                g, h = map(int, law.groups())
                assert (g, gens.index(h)) == first and (g, h) in fails
                named += 1
    assert named > 100


def test_embedding_conjugation_check_tracks_rho(m733):
    emb = to_hol_embedding(metacyclic_base_structure(m733))
    for g in range(21):
        assert embedding_conjugation_check(emb, g)


def test_structure_group_matches_type(s3):
    N = rho_structure(s3)
    M = structure_group(N)
    assert not M.is_abelian
    assert M.order == 6


def test_fpf_check_and_failure(d4):
    f1, f2 = dihedral_fpf_pair(d4, 4, 0)
    assert fpf_check(f1, f2)
    assert not fpf_check(f1, f1)
    with pytest.raises(ConstructionError):
        fpf_embedding(f1, GroupHom(d4, d4, [0, 1, 2, 3, 4, 5, 7, 6]))


def test_identity_trivial_pair_gives_left_translations(d4, s3):
    for G in (d4, s3):
        N = hgs_from_fpf(_identity_hom(G), _trivial_hom(G))
        assert frozenset(N.eta) == frozenset(lambda_structure(G).eta)
        M = hgs_from_fpf(_trivial_hom(G), _identity_hom(G))
        assert frozenset(M.eta) == frozenset(rho_structure(G).eta)


def test_fpf_reproduces_dihedral_family(d4):
    _, members = dihedral_two_generator_family(4)
    f1, f2 = dihedral_fpf_pair(d4, 4, 1)
    N = hgs_from_fpf(f1, f2)
    assert frozenset(N.eta) in {frozenset(m.eta) for m in members}
    for g in range(8):
        assert fpf_transport_check(f1, f2, g)


def test_abelian_map_counts_frozen():
    for spec, want in ABELIAN_MAP_COUNTS.items():
        assert len(abelian_maps(build_group(spec))) == want, spec


def test_abelian_maps_refuse_a_search_past_the_limit():
    # 32^5 choices of generator images; before the refusal the backtrack
    # ran for longer than 30 s
    start = time.perf_counter()
    with pytest.raises(UnsupportedOrder, match="33554432 choices"):
        abelian_maps(build_group("elemab:2:5"))
    assert time.perf_counter() - start < 2


def test_abelian_map_search_counts_candidates_modulo_the_derived_subgroup(
        monkeypatch):
    # a generator of sym:5 has order 6 but order 2 modulo alt:5, so its
    # candidates are the 26 elements of order 1 or 2, not the 66 of order
    # dividing 6
    seen = []
    monkeypatch.setattr(constructions, "_refuse_large_search",
                        lambda what, cand: seen.append([len(c) for c in cand]))
    assert len(abelian_maps(build_group("sym:5"))) == 26
    assert seen == [[26, 26]]


def test_abelian_map_rejects_nonabelian_image(s3):
    with pytest.raises(ConstructionError):
        AbelianMap(_identity_hom(s3))
    with pytest.raises(ConstructionError):
        AbelianMap(GroupHom(s3, s3, [0, 1, 1, 1, 1, 1]))  # not multiplicative


def test_abelian_map_refuses_every_seeded_map_with_a_nonabelian_image():
    # seeded homomorphisms, spread from random generator images, and
    # automorphisms; the image is read in full and AbelianMap must agree
    rng = random.Random(20261019)
    verdicts = []
    for spec in ("sym:3", "dihedral:4", "quaternion:8", "metacyclic:7:3:2",
                 "product:sym:3,cyclic:2", "sym:4"):
        G = build_group(spec)
        k = len(G.generating_set())
        homs = [phi.images for phi in rng.sample(automorphisms(G), 3)]
        for _ in range(300):
            combo = [rng.randrange(G.order) for _ in range(k)]
            images = next(_generator_maps(G, G, [[h] for h in combo]), None)
            if images is not None:
                homs.append(images)
        for images in homs:
            image = set(images)
            abelian = all(G.table[a][b] == G.table[b][a] for a in image for b in image)
            if abelian:
                AbelianMap(GroupHom(G, G, images))
            else:
                with pytest.raises(ConstructionError, match="not abelian"):
                    AbelianMap(GroupHom(G, G, images))
            verdicts.append(abelian)
    assert verdicts.count(False) > 20 and verdicts.count(True) > 20


def test_structure_from_a_non_homomorphism_is_rejected(s3):
    """Without AbelianMap's own check, PermGroup's closure check and certify
    still reject every non-homomorphism of sym:3 that fixes 0."""
    rejected = 0
    for rest in itertools.product(range(6), repeat=5):
        images = (0,) + rest
        if is_homomorphism(s3, s3, images):
            continue
        forged = object.__new__(AbelianMap)  # skips the homomorphism check
        forged.hom = GroupHom(s3, s3, images)
        with pytest.raises(ConstructionError):
            hgs_from_abelian_map(forged)
        rejected += 1
    assert rejected == 6 ** 5 - 10


def _forged_maps(G, rng):
    """Seeded image arrays that AbelianMap would refuse: maps that are not
    homomorphisms (random, into the center, into a cyclic subgroup), and
    homomorphisms with a nonabelian image."""
    n, t = G.order, G.table
    center = G.center()
    cyclic = subgroup_closure(G, [rng.randrange(n)]).elements
    pools = [range(n)] * 40 + [center] * 20 + [cyclic] * 20
    forged = []
    for pool in pools:
        images = [rng.choice(pool) for _ in range(n)]
        if rng.random() < 0.7:
            images[0] = 0
        if not is_homomorphism(G, G, images):
            forged.append(tuple(images))
    k = len(G.generating_set())
    homs = [phi.images for phi in rng.sample(automorphisms(G), 2)]
    for _ in range(100):
        combo = [[rng.randrange(n)] for _ in range(k)]
        homs.extend(_generator_maps(G, G, combo))
    for images in homs:
        image = set(images)
        if any(t[a][b] != t[b][a] for a in image for b in image):
            forged.append(images)
    return forged


def test_abelian_map_closure_agrees_with_the_full_closure_check():
    """On forged maps, the closure check of hgs_from_abelian_map, at the
    points 0 and G.generating_set() of Hol(G), decides as PermGroup's check
    over every row does; a closed set gives the generators PermGroup picks
    and the structure certify gives."""
    rng = random.Random(20261022)
    verdicts = []
    for spec in ("sym:3", "dihedral:4", "quaternion:8", "alt:4", "sym:4",
                 "metacyclic:7:3:2"):
        G = build_group(spec)
        t, inv, n = G.table, G.inverse, G.order
        for images in _forged_maps(G, rng):
            # member h, x -> h p^-1 x p for p = images[h], point by point
            elems = [tuple(t[t[h][inv[p]]][t[x][p]] for x in range(n))
                     for h, p in enumerate(images)]
            try:
                P = PermGroup(elems)
            except InvalidSpec:
                P = None
            try:
                got = _holomorph_group(G, tuple(elems))
            except InvalidSpec:
                got = None
            assert (got is None) == (P is None), (spec, images)
            forged = object.__new__(AbelianMap)  # skips AbelianMap's checks
            forged.hom = GroupHom(G, G, images)
            if P is None:
                with pytest.raises(ConstructionError):
                    hgs_from_abelian_map(forged)
            else:
                want = certify(G, P)
                N = hgs_from_abelian_map(forged)
                assert tuple(got) == N.generators == P.generators
                assert N.to_json() == want.to_json()
            verdicts.append(P is not None)
    assert verdicts.count(False) > 200 and verdicts.count(True) > 100


def test_s5_abelian_map_members_lie_in_the_holomorph():
    G = build_group("sym:5")
    for am in abelian_maps(G):
        assert all(in_holomorph(G, p) for p in hgs_from_abelian_map(am).eta)


def test_trivial_map_gives_left_translations(s3):
    N = hgs_from_abelian_map(AbelianMap(_trivial_hom(s3)))
    assert frozenset(N.eta) == frozenset(lambda_structure(s3).eta)


def test_identity_map_on_abelian_group_gives_right_translations():
    C6 = build_group("cyclic:6")
    N = hgs_from_abelian_map(AbelianMap(_identity_hom(C6)))
    assert frozenset(N.eta) == frozenset(rho_structure(C6).eta)


def test_abelian_map_structures_and_transport(s3):
    maps = abelian_maps(s3)
    structures = [hgs_from_abelian_map(am) for am in maps]
    assert len({frozenset(N.eta) for N in structures}) == len(maps)
    assert sorted(len(o) for o in rho_partition(structures)) == [1, 3]
    for am in maps:
        for g in range(6):
            assert abelian_transport_check(am, g)


def test_coset_stable_subgroups_prime_and_brute_agree(m733):
    T = subgroup_closure(m733, [1])
    found = coset_stable_regular_subgroups(m733, T)  # prime degree 7
    assert len(found) == 1
    C8 = build_group("cyclic:8")
    T8 = subgroup_closure(C8, [4])
    found8 = coset_stable_regular_subgroups(C8, T8)  # degree 4
    # for a normal T the count matches the inventory of the quotient
    assert len(found8) == len(enumerate_hgs(build_group("cyclic:4")))
    (one,) = coset_stable_regular_subgroups(C8, subgroup_closure(C8, [1]))
    assert one.element_set == {(0,)}  # degree 1: T is all of G


def test_coset_search_with_trivial_subgroup_equals_enumeration():
    # with T = {e} the cosets are the elements and the translation image is
    # lambda(G), so the coset search must find exactly the structures
    start = time.perf_counter()
    total = 0
    for n in range(2, 9):
        for spec in catalog_specs(n):
            G = build_group(spec)
            found = coset_stable_regular_subgroups(G, subgroup_closure(G, []))
            want = {frozenset(s.eta) for s in enumerate_hgs(G)}
            assert {A.element_set for A in found} == want, str(spec)
            assert len(found) == len(want)
            total += len(found)
    assert total == 208
    assert time.perf_counter() - start < 30


COSET_ORACLE_GROUPS = [
    "sym:3", "dihedral:4", "alt:4", "dihedral:6", "sym:4", "metacyclic:7:3:2",
    "quaternion:8", "dihedral:5", "dicyclic:6", "cyclic:8", "elemab:2:3",
]


def test_coset_search_equals_bijection_scan():
    # every subgroup T of coset degree 2..8, normal ones (non-faithful
    # actions) included, against the scan behind brute_force_inventory
    start = time.perf_counter()
    pairs = 0
    for spec in COSET_ORACLE_GROUPS:
        G = build_group(spec)
        for T in all_subgroups(G):
            if not 1 < G.order // len(T.elements) <= 8:
                continue
            lgens = left_translation_image(CosetSpace(G, T)).generators
            found = coset_stable_regular_subgroups(G, T)
            assert {A.element_set for A in found} == \
                set(stable_regular_subgroups(lgens)), (spec, T.elements)
            pairs += 1
    assert pairs == 98
    assert time.perf_counter() - start < 30


def _scan_per_call(lgens) -> dict:
    """The bijection scan made afresh for one call: every type of degree d
    conjugated by every bijection fixing 0, each set kept with the first
    type that met it if lgens normalize it."""
    d = len(lgens[0])
    pairs = [(q, _invert(q)) for q in lgens]
    found, seen = {}, set()
    for spec in catalog_specs(d):
        table = build_group(spec).table
        for rest in itertools.permutations(range(1, d)):
            b = (0,) + rest
            key = frozenset(_conjugate_all(table, b, _invert(b)))
            if key not in seen:
                seen.add(key)
                if _escape(pairs, key, key) is None:
                    found[key] = spec
    return found


@pytest.mark.parametrize("spec", [
    "cyclic:1", "cyclic:2", "sym:3", "elemab:2:2", "cyclic:5", "dihedral:3",
    "cyclic:7", "dihedral:4", "quaternion:8",
])
def test_kept_degree_scan_equals_a_scan_per_call(spec):
    # same sets, same first spec for each, same order, and one scan of the
    # degree serves every later call
    G = build_group(spec)
    lgens = [G.table[g] for g in G.generating_set()] or [G.table[0]]
    want = list(_scan_per_call(lgens).items())
    assert list(stable_regular_subgroups(lgens).items()) == want
    hits = _regular_scan.cache_info().hits
    assert list(stable_regular_subgroups(lgens).items()) == want
    assert _regular_scan.cache_info().hits == hits + 1


# canonical hashes of the one structure per pair, as found by the Sylow
# argument for prime degree that the embedding search replaced
PRIME_DEGREE_HASHES = {
    ("cyclic:17", ()): "769fb47ace8bd781",
    ("cyclic:23", ()): "84fae9937f766846",
    ("dihedral:11", (1,)): "af854f56ac40a40b",
    ("metacyclic:31:5:2", (1,)): "51c8770f5577309c",
}


def test_coset_search_at_prime_degrees_above_the_catalog_range():
    assert build_group("metacyclic:31:5:2").element_orders[1] == 5
    for (spec, t_gens), want in PRIME_DEGREE_HASHES.items():
        G = build_group(spec)
        T = subgroup_closure(G, t_gens)
        assert G.order // len(T.elements) in (11, 17, 23, 31)
        found = coset_stable_regular_subgroups(G, T)
        assert [A.canonical_hash() for A in found] == [want], spec


def test_induced_structure_lands_in_inventory(m733):
    T = subgroup_closure(m733, [1])
    S = subgroup_closure(m733, [3])
    (A,) = coset_stable_regular_subgroups(m733, T)
    t_group, _ = T.as_group()
    B = PermGroup(brute_force_inventory(t_group)[0].eta)
    inp = induced_input(m733, T, S, A, B)
    N = induced_hgs(inp)
    inv_keys = {frozenset(s.eta) for s in enumerate_hgs(m733)}
    assert frozenset(N.eta) in inv_keys
    for g in range(21):
        assert induced_transport_check(inp, g)


def test_induced_input_rejects_bad_factorization(m733):
    T = subgroup_closure(m733, [1])
    bad_S = subgroup_closure(m733, [1])  # not a complement of T
    (A,) = coset_stable_regular_subgroups(m733, T)
    t_group, _ = T.as_group()
    B = PermGroup(brute_force_inventory(t_group)[0].eta)
    with pytest.raises(ConstructionError):
        induced_input(m733, T, bad_S, A, B)


def test_induced_on_dihedral_12():
    G = build_group("dihedral:6")
    T = subgroup_closure(G, [1])       # a reflection, order 2
    S = subgroup_closure(G, [2])       # rotations, order 6, normal
    a_list = coset_stable_regular_subgroups(G, T)
    t_group, _ = T.as_group()
    b_list = [PermGroup(s.eta) for s in brute_force_inventory(t_group)]
    assert a_list and b_list
    inv_keys = {frozenset(s.eta) for s in enumerate_hgs(G)}
    for A in a_list:
        for B in b_list:
            N = induced_hgs(induced_input(G, T, S, A, B))
            assert frozenset(N.eta) in inv_keys


def test_perm_group_round_trip(s3):
    lam = lambda_structure(s3)
    again = PermGroup(list(lam.eta))
    assert again.element_set == frozenset(lam.eta)
