"""Conjugation of structures by right translations.

Conjugating a structure N by rho(g) gives another structure, and since
rho(g) = lambda(g)^-1 . inn(g) with inn(g) the conjugation permutation
x -> g x g^-1, the result equals inn(g) N inn(g)^-1.  The map g -> N_g is a
left action of G on the inventory; this module computes its orbits and
stabilizers.  An orbit is searched breadth first over the generators of G
only, recording for each member M a transversal element t_M with
N_{t_M} = M; the stabilizer is closed from Schreier generators, and the
elements reaching M form the coset t_M . Stab, whose least element is M's
carrier.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvariantError
from .groups import FiniteGroup, Subgroup, subgroup_closure
from .hgs import HgsInventory, RegularSubgroup, certify, opposite
from .perms import _conjugate_all, _normalizes, perm_group_from_elements


def _rho_images(G: FiniteGroup, g: int) -> tuple:
    ginv = G.inverse[g]
    return tuple(G.table[x][ginv] for x in range(G.order))


def _conjugate_key(elements, q: tuple, qinv: tuple) -> frozenset:
    """Element set of q . N . q^-1 from raw image tuples; for q = rho(g)
    the inverse qinv is rho(g^-1), so q is never inverted."""
    return frozenset(_conjugate_all(elements, q, qinv))


def rho_conjugate(N: RegularSubgroup, g: int) -> RegularSubgroup:
    """The structure rho(g) . N . rho(g)^-1, certified."""
    G = N.group
    key = _conjugate_key(
        (p.images for p in N.perms.elements),
        _rho_images(G, g),
        _rho_images(G, G.inverse[g]),
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


def _orbit_search(N: RegularSubgroup) -> tuple:
    """(transversal, stabilizer) of N: transversal maps each member's
    element set M to t_M with N_{t_M} = M, and the stabilizer is closed from
    the Schreier generators t_{s.M}^-1 . s . t_M (Holt-Eick-O'Brien,
    Handbook of Computational Group Theory, 4.1)."""
    G = N.group
    table, inverse = G.table, G.inverse
    gens = [
        (s, _rho_images(G, s), _rho_images(G, inverse[s]))
        for s in G.generating_set()
    ]
    base_key = N.perms.element_set
    transversal = {base_key: 0}
    queue = [base_key]
    schreier = set()
    for M in queue:
        t = transversal[M]
        for s, q, qinv in gens:
            K = _conjugate_key(M, q, qinv)
            st = table[s][t]
            if K in transversal:
                schreier.add(table[inverse[transversal[K]]][st])
            else:
                transversal[K] = st
                queue.append(K)
    stabilizer = subgroup_closure(G, schreier)
    if len(transversal) * stabilizer.order != G.order:
        raise InvariantError("orbit-stabilizer count mismatch")
    probes = [p.images for p in N.perms.generators]
    for h in stabilizer.elements:
        if not _normalizes([_rho_images(G, h)], probes, base_key):
            raise InvariantError(f"stabilizer element {h} moves the structure")
    return transversal, stabilizer


def _least_in_coset(G: FiniteGroup, t: int, stabilizer: Subgroup) -> int:
    """Least element of t . Stab, the smallest g with N_g = N_t."""
    row = G.table[t]
    return min(row[h] for h in stabilizer.elements)


def _build_orbit(
    N: RegularSubgroup, transversal: dict, stabilizer: Subgroup
) -> RhoOrbit:
    G = N.group
    built = []
    for key, t in transversal.items():
        if key == N.perms.element_set:
            member = N
        else:
            member = certify(
                G, perm_group_from_elements(key), type_label=N._type_label
            )
        built.append(
            (member.canonical_key(), member, _least_in_coset(G, t, stabilizer))
        )
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

    The whole orbit of N1 is searched, as the full stabilizer is needed.
    """
    if N1.group is not N2.group:
        raise ValueError("structures live on different groups")
    transversal, stabilizer = _orbit_search(N1)
    t = transversal.get(N2.perms.element_set)
    if t is None:
        return None
    return _least_in_coset(N1.group, t, stabilizer)


def opposite_conjugate_commute(N: RegularSubgroup, g: int) -> bool:
    """Whether taking the opposite commutes with conjugating by rho(g)."""
    lhs = opposite(rho_conjugate(N, g)).perms.element_set
    rhs = rho_conjugate(opposite(N), g).perms.element_set
    return lhs == rhs
