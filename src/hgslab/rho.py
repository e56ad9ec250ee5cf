"""Conjugation of structures by right translations.

Conjugating a structure N by rho(g) gives another structure, and since
rho(g) = lambda(g)^-1 . inn(g) with inn(g) the conjugation permutation
x -> g x g^-1, the result equals inn(g) N inn(g)^-1.  The map g -> N_g is a
left action of G on the inventory; this module computes its orbits and
stabilizers straight from orbit-stabilizer.  The stabilizer is the set of h
for which rho(h) normalizes N, checked on N's generators; the elements
reaching a member M form a coset t . Stab, so walking G in order and
skipping the cosets already met gives each member once, carried by the least
element of its coset.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvariantError
from .groups import Subgroup, subgroup_closure
from .hgs import HgsInventory, RegularSubgroup, certify, opposite
from .perms import PermGroup, _conjugate_all, _escape, rho_embed


def _conjugate_key(elements, q: tuple, qinv: tuple) -> frozenset:
    """Element set of q . N . q^-1 from raw image tuples; for q = rho(g)
    the inverse qinv is rho(g^-1), so q is never inverted."""
    return frozenset(_conjugate_all(elements, q, qinv))


def rho_conjugate(N: RegularSubgroup, g: int) -> RegularSubgroup:
    """The structure rho(g) . N . rho(g)^-1, certified."""
    G = N.group
    key = _conjugate_key(
        N.perms.elements, rho_embed(G, g), rho_embed(G, G.inverse[g])
    )
    if key == N.perms.element_set:
        return N
    return certify(G, PermGroup(key), type_label=N._type_label)


class RhoOrbit:
    """One orbit of the right-translation action on structures.

    members are sorted canonically; carrier[i] is a group element g with
    rho_conjugate(base, g) == members[i].  The stabilizer is the subgroup of
    elements fixing the base structure setwise.
    """

    __slots__ = ("group", "base", "members", "carrier", "stabilizer")

    def __init__(self, group, base, members, carrier, stabilizer):
        self.group = group
        self.base = base
        self.members = tuple(members)
        self.carrier = tuple(carrier)
        self.stabilizer = stabilizer

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, N: RegularSubgroup) -> bool:
        key = N.perms.element_set
        return any(m.perms.element_set == key for m in self.members)

    def __repr__(self) -> str:
        return f"RhoOrbit(size={self.size}, stabilizer={self.stabilizer.order})"

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.orbit/1",
            "size": self.size,
            "stabilizer": list(self.stabilizer.elements),
            "stabilizer_order": self.stabilizer.order,
            "carrier": list(self.carrier),
            "members": [m.to_json() for m in self.members],
        }


def _orbit_search(N: RegularSubgroup) -> tuple:
    """(transversal, stabilizer) of N: the stabilizer holds the h for which
    rho(h) normalizes N, and transversal maps each member's element set M to
    the least g with N_g = M, the least element of the coset g . Stab."""
    G = N.group
    table, inverse = G.table, G.inverse
    base_key, probes = N.perms.element_set, N.perms.generators
    fixing = [
        h
        for h in range(G.order)
        if _escape(
            [(rho_embed(G, h), rho_embed(G, inverse[h]))], probes, base_key
        ) is None
    ]
    stabilizer = subgroup_closure(G, fixing)
    if stabilizer.order != len(fixing):
        raise InvariantError("the elements fixing the structure do not close")
    transversal, covered = {}, set()
    for g in range(G.order):
        if g in covered:
            continue
        covered.update(table[g][h] for h in fixing)
        key = _conjugate_key(
            N.perms.elements, rho_embed(G, g), rho_embed(G, inverse[g])
        )
        if key in transversal:
            raise InvariantError(
                f"the cosets of {transversal[key]} and {g} give one conjugate"
            )
        transversal[key] = g
    return transversal, stabilizer


def _build_orbit(
    N: RegularSubgroup, transversal: dict, stabilizer: Subgroup
) -> RhoOrbit:
    G = N.group
    built = []
    for key, t in transversal.items():
        if key == N.perms.element_set:
            member = N
        else:
            member = certify(G, PermGroup(key), type_label=N._type_label)
        built.append((member.canonical_key(), member, t))
    built.sort(key=lambda b: b[0])
    members = [m for _, m, _ in built]
    carrier = [g for _, _, g in built]
    return RhoOrbit(G, N, members, carrier, stabilizer)


def rho_orbit(N: RegularSubgroup) -> RhoOrbit:
    """Orbit of N under conjugation by all right translations."""
    return _build_orbit(N, *_orbit_search(N))


def rho_partition(inventory: HgsInventory) -> list:
    """Split an inventory into right-translation orbits.

    Every conjugate of an inventory member must again be in the inventory;
    a miss means the inventory was filtered or incomplete.
    """
    keys = {s.perms.element_set for s in inventory}
    consumed: set = set()
    orbits = []
    for s in inventory:
        if s.perms.element_set in consumed:
            continue
        transversal, stabilizer = _orbit_search(s)
        if not keys.issuperset(transversal):
            raise ValueError(
                "a conjugate left the inventory; pass a complete inventory"
            )
        consumed.update(transversal)
        orbits.append(_build_orbit(s, transversal, stabilizer))
    return orbits


def same_conjugate(N1: RegularSubgroup, N2: RegularSubgroup) -> Optional[int]:
    """Smallest g with rho(g) . N1 . rho(g)^-1 == N2, or None.

    The whole orbit of N1 is built, one conjugate per coset of its
    stabilizer, each carried by the least element of its coset.
    """
    if N1.group is not N2.group:
        raise ValueError("structures live on different groups")
    transversal, _ = _orbit_search(N1)
    return transversal.get(N2.perms.element_set)


def opposite_conjugate_commute(N: RegularSubgroup, g: int) -> bool:
    """Whether taking the opposite commutes with conjugating by rho(g)."""
    lhs = opposite(rho_conjugate(N, g)).perms.element_set
    rhs = rho_conjugate(opposite(N), g).perms.element_set
    return lhs == rhs
