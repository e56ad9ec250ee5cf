"""Certification, enumeration, opposites, and type identification."""

import hashlib
import time

import pytest

from hgslab import (
    NotRegular,
    NotStable,
    UnknownType,
    UnsupportedOrder,
    brute_force_inventory,
    build_group,
    certify,
    enumerate_hgs,
    generated_perm_group,
    lambda_embed,
    lambda_image,
    lambda_structure,
    opposite,
    parse_spec,
    rho_image,
    rho_structure,
    type_of,
)
from hgslab.perms import PermGroup, _conjugate

# independently cross-checked against the brute-force oracle at order <= 8
INVENTORY_SIZES = {
    "cyclic:4": 2,
    "cyclic:6": 3,
    "elemab:2:2": 4,
    "sym:3": 5,
    "cyclic:8": 6,
    "dihedral:4": 30,
    "quaternion:8": 22,
    "elemab:2:3": 106,
    "cyclic:12": 6,
    "dihedral:6": 40,
    "metacyclic:7:3:2": 23,
}


def test_inventory_sizes_frozen():
    for spec, want in INVENTORY_SIZES.items():
        assert len(enumerate_hgs(build_group(spec))) == want, spec


def test_enumeration_matches_brute_force_spot():
    for spec in ["sym:3", "cyclic:8", "elemab:2:2"]:
        G = build_group(spec)
        assert enumerate_hgs(G).canonical_keys() == \
            brute_force_inventory(G).canonical_keys()


def test_inventory_is_sorted_and_deterministic(s3):
    a = enumerate_hgs(s3)
    b = enumerate_hgs(build_group("sym:3"))
    assert [x.canonical_key() for x in a] == [x.canonical_key() for x in b]


def test_enumerate_unsupported_order_without_filter():
    C16 = build_group("cyclic:16")
    with pytest.raises(UnsupportedOrder):
        enumerate_hgs(C16)
    inv = enumerate_hgs(C16, type_filter=parse_spec("cyclic:16"))
    assert lambda_image(C16).element_set in \
        {frozenset(s.eta) for s in inv.structures}
    assert not inv.complete


def test_prime_order_enumerates_without_a_filter():
    # Kohl: the cyclic group of order p^n has p^(n-1) structures; n = 1 here
    inv = enumerate_hgs(build_group("cyclic:17"))
    assert inv.complete
    assert len(inv) == 1


def test_type_filtered_enumeration_beyond_catalog_orders():
    start = time.perf_counter()
    for spec, want in [("sym:4", 8), ("dihedral:8", 24)]:
        inv = enumerate_hgs(build_group(spec), type_filter=parse_spec(spec))
        assert len(inv) == want, spec
        assert not inv.complete
        assert {str(s.type_label) for s in inv} == {spec}
    # the generator-image search takes a fraction of this; the search it
    # replaced took about 13 s on these two
    assert time.perf_counter() - start < 3


def test_certify_rejects_wrong_order(s3):
    small = generated_perm_group([lambda_embed(s3, 3)])
    with pytest.raises(NotRegular):
        certify(s3, small)


def test_certify_rejects_unstable_regular(d4):
    # conjugating the left translations by a transposition of two
    # non-identity points keeps regularity but breaks stability
    swap = (0, 2, 1, 3, 4, 5, 6, 7)
    moved = PermGroup(
        _conjugate(p, swap, swap) for p in lambda_image(d4).elements
    )
    assert moved.is_regular()
    with pytest.raises(NotStable) as caught:
        certify(d4, moved)
    # the first generator of moved whose conjugate by lambda(2) escapes
    assert str(caught.value) == (
        "conjugate of (1, 4, 3, 5, 6, 7, 0, 2) by translation of g=2 "
        "leaves the set"
    )


def test_certify_names_the_first_two_elements_sharing_an_image_of_0():
    klein = PermGroup([(0, 1, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0), (3, 2, 1, 0)])
    with pytest.raises(NotRegular) as caught:
        certify(build_group("cyclic:4"), klein)
    assert str(caught.value) == (
        "elements (0, 1, 2, 3) and (0, 2, 1, 3) both send 0 to 0"
    )


def test_canonical_hash_is_computed_once_per_group(monkeypatch, s3):
    sha256, calls = hashlib.sha256, []
    monkeypatch.setattr(
        hashlib, "sha256", lambda blob: calls.append(blob) or sha256(blob)
    )
    # a group of its own, so no other test has hashed it
    N = certify(s3, PermGroup(lambda_image(s3).elements))
    assert N.to_json() == N.to_json()
    assert len(calls) == 1


def test_lambda_rho_structures(d4, s3):
    for G in (d4, s3):
        lam, rho = lambda_structure(G), rho_structure(G)
        assert frozenset(lam.eta) == lambda_image(G).element_set
        assert frozenset(rho.eta) == rho_image(G).element_set
        assert frozenset(lam.eta) != frozenset(rho.eta)
    C6 = build_group("cyclic:6")
    assert frozenset(lambda_structure(C6).eta) == \
        frozenset(rho_structure(C6).eta)


def test_opposite_swaps_lambda_and_rho(s3):
    assert frozenset(opposite(lambda_structure(s3)).eta) == \
        frozenset(rho_structure(s3).eta)
    assert frozenset(opposite(rho_structure(s3)).eta) == \
        frozenset(lambda_structure(s3).eta)


def test_opposite_is_an_involution(d4_inventory):
    for N in d4_inventory:
        assert frozenset(opposite(opposite(N)).eta) == frozenset(N.eta)


def test_opposite_is_a_type_preserving_involution_on_the_catalog(
    catalog_structures,
):
    # the opposite of N is its centralizer, isomorphic to N^op and so to N
    for N in catalog_structures:
        O = opposite(N)
        assert frozenset(opposite(O).eta) == frozenset(N.eta)
        assert type_of(O) == type_of(N)


def test_abelian_structures_are_self_opposite(s3_inventory):
    for N in s3_inventory:
        if N.is_abelian():
            assert frozenset(opposite(N).eta) == frozenset(N.eta)


def test_type_of(m733):
    assert str(type_of(lambda_structure(m733))) == "metacyclic:7:3:2"
    S3 = build_group("sym:3")
    assert str(type_of(rho_structure(S3))) == "dihedral:3"
    # identification works beyond the complete orders when the type is listed
    C16 = build_group("cyclic:16")
    assert str(type_of(lambda_structure(C16))) == "cyclic:16"
    # but a buildable group outside the order-16 catalog has no known type
    H = build_group("product:dihedral:4,cyclic:2")
    with pytest.raises(UnknownType):
        type_of(lambda_structure(H))


def test_metacyclic_type_census(m733):
    inv = enumerate_hgs(m733)
    counts = {}
    for s in inv:
        t = str(type_of(s))
        counts[t] = counts.get(t, 0) + 1
    assert counts == {"cyclic:21": 7, "metacyclic:7:3:2": 16}


def test_type_filter_restricts(d4):
    full = enumerate_hgs(d4)
    cyc = enumerate_hgs(d4, type_filter=parse_spec("cyclic:8"))
    keys = {frozenset(s.eta) for s in cyc}
    assert keys <= {frozenset(s.eta) for s in full}
    for s in cyc:
        assert str(type_of(s)) == "cyclic:8"
