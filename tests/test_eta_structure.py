"""A structure is its eta table.

`RegularSubgroup` keeps `eta`, its generators and its memos, and nothing
else: eta[a] is the member sending 0 to a, so p is a member exactly when
`eta[p[0]] == p`.  The oracle for `p in N` is the set of N's members,
built here from eta.  Two structures are equal when they live on the same
group object and have the same table, and equal structures hash alike
however they were reached.  No structure may hold a set of its members, a
`PermGroup` or any other set, which a walk over its slots and its
`gc.get_referents` decides.
"""

import gc

import pytest

from hgslab import (
    FiniteGroup,
    PermGroup,
    RegularSubgroup,
    abelian_maps,
    build_group,
    catalog_specs,
    certify,
    enumerate_hgs,
    generated_perm_group,
    hgs_from_abelian_map,
    lambda_structure,
    opposite,
    parse_spec,
    rho_conjugate,
    rho_orbit,
    rho_structure,
)
from hgslab.perms import _conjugate, _invert, lambda_embed, rho_embed


def _small_and_s5():
    """Every catalog structure of order <= 8, then the 26 structures of the
    abelian maps on sym:5."""
    small = [N for n in range(1, 9) for spec in catalog_specs(n)
             for N in enumerate_hgs(build_group(spec))]
    S5 = build_group("sym:5")
    return small + [hgs_from_abelian_map(am) for am in abelian_maps(S5)]


def test_membership_agrees_with_the_member_set():
    structures = _small_and_s5()
    verdicts = []
    for N in structures:
        G, n = N.group, N.order
        members = frozenset(N.eta)
        gens = G.generating_set() or (0,)
        conjugators = [lambda_embed(G, g) for g in gens]
        conjugators += [rho_embed(G, g) for g in gens]
        for p in N.eta:
            assert p in N and p in members
            for q in conjugators:
                c = _conjugate(p, q, _invert(q))
                assert (c in N) == (c in members), (N, p, q)
                verdicts.append(c in members)
        # foreign input is refused, never raised on
        foreign = [N.eta[0] + (0,), N.eta[-1][:-1], (n,) + N.eta[0][1:],
                   (-1,) + N.eta[0][1:], ()]
        if n > 1:  # a constant map, with the first image of a member
            foreign.append((n - 1,) * n)
        for p in foreign:
            assert p not in members
            assert (p in N) is False, (N, p)
    assert len(structures) == 209 + 26
    # the rho conjugates leave some structures, so both verdicts occur
    assert True in verdicts and False in verdicts


def test_one_structure_reached_three_ways_is_equal_and_hashes_alike():
    G = build_group("dihedral:6")
    inv = enumerate_hgs(G)
    N, g = next((N, g) for N in inv for g in range(G.order)
                if rho_orbit(N).size > 1 and rho_conjugate(N, g) is not N)
    # unlabelled and never filed, so its conjugate is certified afresh
    C = certify(G, generated_perm_group(N.generators))
    R = rho_conjugate(C, g)
    (E,) = [M for M in inv if frozenset(M.eta) == frozenset(R.eta)]
    from_gens = certify(G, generated_perm_group(E.generators))
    assert E is not R and R is not from_gens and E is not from_gens
    assert E == R == from_gens
    assert hash(E) == hash(R) == hash(from_gens)
    assert len({E, R, from_gens}) == 1
    # the same table on another group object is another structure
    twin = FiniteGroup(G.table)
    other = certify(twin, generated_perm_group(E.generators))
    assert other.eta == E.eta
    assert other != E and not other == E
    assert len({E, other}) == 2


def _holds_a_set(N: RegularSubgroup):
    """The first set, frozenset or PermGroup reached from N through its
    slots and gc referents, walking into tuples, lists and dicts but not
    into the group or another structure; None when there is none."""
    seen, todo = set(), [getattr(N, slot, None) for slot in N.__slots__
                         if slot != "__weakref__"]
    todo += gc.get_referents(N)
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (FiniteGroup, RegularSubgroup)):
            continue
        seen.add(id(x))
        if isinstance(x, (set, frozenset, PermGroup)):
            return x
        if isinstance(x, (tuple, list, dict)):
            todo += gc.get_referents(x)
    return None


@pytest.mark.parametrize("spec", ["cyclic:64", "sym:5"])
def test_no_structure_holds_a_set_of_its_members(spec):
    G = build_group(spec)
    enumerated = list(enumerate_hgs(G, parse_spec(spec)))
    maps = [hgs_from_abelian_map(am) for am in abelian_maps(G)]
    certified = [certify(G, generated_perm_group(N.generators))
                 for N in enumerated[:4] + maps[:4]]
    # conjugates of unlabelled structures that no memo holds
    misses = [rho_conjugate(C, g) for C in certified for g in range(8)]
    for N in enumerated + maps:
        rho_orbit(N)  # leaves an orbit record on every member
    structures = [*enumerated, *maps, *certified, *misses,
                  *map(opposite, enumerated + maps),
                  lambda_structure(G), rho_structure(G)]
    assert len(structures) > 50
    for N in structures:
        assert _holds_a_set(N) is None, N
    assert not hasattr(N, "perms")
    assert "perms" not in RegularSubgroup.__slots__
