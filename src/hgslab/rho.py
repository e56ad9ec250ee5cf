"""Conjugation of structures by right translations.

Conjugating a structure N by rho(g) gives another structure, and since
rho(g) = lambda(g)^-1 . inn(g) with inn(g) the conjugation permutation
x -> g x g^-1, the result equals inn(g) N inn(g)^-1.  The map g -> N_g is a
left action of G on the inventory; this module computes its orbits and
stabilizers.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvariantError
from .groups import FiniteGroup, Subgroup, subgroup_closure
from .hgs import HgsInventory, RegularSubgroup, certify, opposite
from .perms import _conjugate, perm_group_from_elements


def _rho_images(G: FiniteGroup, g: int) -> tuple:
    ginv = G.inverse[g]
    return tuple(G.table[x][ginv] for x in range(G.order))


def _conjugate_key(elements, q: tuple) -> frozenset:
    """Element set of q . N . q^-1 from raw image tuples."""
    return frozenset(_conjugate(p, q) for p in elements)


def rho_conjugate(N: RegularSubgroup, g: int) -> RegularSubgroup:
    """The structure rho(g) . N . rho(g)^-1, certified."""
    G = N.group
    key = _conjugate_key(
        (p.images for p in N.perms.elements), _rho_images(G, g)
    )
    if key == N.perms.element_set:
        return N
    return certify(G, perm_group_from_elements(key), type_label=N._type_label)


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


def rho_orbit(N: RegularSubgroup) -> RhoOrbit:
    """Orbit of N under conjugation by all right translations."""
    G = N.group
    n = G.order
    base_key = N.perms.element_set
    base_elems = [p.images for p in N.perms.elements]
    first_g: dict = {}
    stab = []
    for g in range(n):
        key = _conjugate_key(base_elems, _rho_images(G, g))
        if key == base_key:
            stab.append(g)
        if key not in first_g:
            first_g[key] = g
    built = []
    for key, g in first_g.items():
        if key == base_key:
            member = N
        else:
            member = certify(
                G, perm_group_from_elements(key), type_label=N._type_label
            )
        built.append((member.canonical_key(), member, g))
    built.sort(key=lambda t: t[0])
    members = [m for _, m, _ in built]
    carrier = [g for _, _, g in built]
    stabilizer = subgroup_closure(G, stab)
    if stabilizer.order != len(stab):
        raise InvariantError("stabilizer set failed to close")
    if len(members) * stabilizer.order != n:
        raise InvariantError("orbit-stabilizer count mismatch")
    return RhoOrbit(G, N, members, carrier, stabilizer)


def rho_partition(inventory: HgsInventory) -> list:
    """Split an inventory into right-translation orbits.

    Every conjugate of an inventory member must again be in the inventory;
    a miss means the inventory was filtered or incomplete.
    """
    index = {s.perms.element_set: s for s in inventory}
    consumed: set = set()
    orbits = []
    for s in inventory:
        key = s.perms.element_set
        if key in consumed:
            continue
        orbit = rho_orbit(s)
        for m in orbit.members:
            mk = m.perms.element_set
            if mk not in index:
                raise ValueError(
                    "a conjugate left the inventory; pass a complete inventory"
                )
            consumed.add(mk)
        orbits.append(orbit)
    return orbits


def same_conjugate(N1: RegularSubgroup, N2: RegularSubgroup) -> Optional[int]:
    """Smallest g with rho(g) . N1 . rho(g)^-1 == N2, or None."""
    if N1.group is not N2.group:
        raise ValueError("structures live on different groups")
    G = N1.group
    elems = [p.images for p in N1.perms.elements]
    target = N2.perms.element_set
    for g in range(G.order):
        if _conjugate_key(elems, _rho_images(G, g)) == target:
            return g
    return None


def opposite_conjugate_commute(N: RegularSubgroup, g: int) -> bool:
    """Whether taking the opposite commutes with conjugating by rho(g)."""
    lhs = opposite(rho_conjugate(N, g)).perms.element_set
    rhs = rho_conjugate(opposite(N), g).perms.element_set
    return lhs == rhs
