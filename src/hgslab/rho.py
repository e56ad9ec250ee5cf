"""Conjugation of structures by right translations.

Conjugating a structure N by rho(g) gives another structure, and since
rho(g) = lambda(g)^-1 . inn(g) with inn(g) the conjugation permutation
x -> g x g^-1, the result equals inn(g) N inn(g)^-1.  The map g -> N_g is a
left action of G on the inventory; this module computes its orbits and
stabilizers straight from orbit-stabilizer.  The stabilizer is the set of h
for which rho(h) normalizes N, checked on N's generators; the elements
reaching a member M form a coset t . Stab, so walking G in order and
skipping the cosets already met gives each member once, carried by the least
element of its coset.  N_g is N's own table eta relabelled by
b = rho(g)^-1 = rho(g^-1); _conjugate finds it for members and conjugates
alike by its probe, O(k n) work (a probe names one structure: the lemma in
hgs), and relabels N's whole table, O(n^2), only when none is live.

One search serves the whole orbit.  Since (N_t)_g = N_{gt}, every member of
an orbit has the same members, so the search only writes a record: the
conjugates' probes and member_of[x], the index of N_x, filled coset by
coset as it walks G.  _stamp sorts the members canonically and leaves
(keys, member_of, t) on each member M = N_t, and _read_orbit, the one place
an orbit is built, reads M's orbit off that record in O(|G|) steps without
touching a permutation: M_g = N_{gt} is member member_of[g t], and M's
stabilizer is the set of g with member_of[g t] = member_of[t], which is
t . Stab . t^-1.  rho_conjugate and same_conjugate read M_g off it too.
The record is read only when it gives what a fresh search would: hgs._held
still gives a structure for every member's probe and M's type label (type_of
may have filled one in since), M itself for M's.  Otherwise the search runs
again.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from .errors import InvariantError
from .groups import Subgroup, _check_id, _cycle_at_0, _join, subgroup_closure
from .hgs import (HgsInventory, RegularSubgroup, _conjugate_probe, _held, _probe,
                  _relabel, _structure, opposite)
from .perms import _escape, rho_embed


def _recorded(N: RegularSubgroup) -> Optional[tuple]:
    """(members, member_of, t) from N's orbit record, or None when there is
    none or it would not give what a fresh search gives."""
    if N._orbit is None:
        return None
    keys, member_of, t = N._orbit
    members = [_held(N.group, key, N._type_label) for key in keys]
    if members[member_of[t]] is not N or any(M is None for M in members):
        return None
    return members, member_of, t


def _conjugate(N: RegularSubgroup, g: int, orders) -> tuple:
    """(probe, make) of N_g = rho(g) . N . rho(g)^-1, make() giving what
    relabelling N's table by b = rho(g^-1) gives.  The probe, O(k n) work
    by _conjugate_probe, names N_g: it is N when the probes agree, else the
    structure _held under the probe and N's label; only on a miss is N's
    whole table relabelled, and certified by _structure.
    """
    G = N.group
    b = rho_embed(G, G.inverse[g])
    probe = _conjugate_probe(N, b, rho_embed(G, g))
    if probe == _probe(G, N.eta):
        return probe, lambda: N
    M = _held(G, probe, N._type_label)
    if M is not None:
        return probe, lambda: M
    eta, perms = _relabel(N.eta, orders, b)
    return probe, lambda: _structure(G, eta, perms, N._type_label)


def rho_conjugate(N: RegularSubgroup, g: int) -> RegularSubgroup:
    """The structure rho(g) . N . rho(g)^-1, certified (or the live one).

    With a valid orbit record, N = N'_t for its search base N', it is
    member member_of[g t]; otherwise _conjugate finds it.
    """
    G = N.group
    _check_id(G, g)
    record = _recorded(N)
    if record:
        members, member_of, t = record
        return members[member_of[G.table[g][t]]]
    return _conjugate(N, g, lambda: tuple(map(_cycle_at_0, N.eta)))[1]()


def _is_conjugate(N: RegularSubgroup, g: int, M: RegularSubgroup) -> bool:
    """Whether rho(g) . N . rho(g)^-1 == M, decided on N's generators.

    M is a certified structure on the same G, so a group with |G| elements.
    The conjugate is generated by the conjugates of N's generators; when
    those lie in M the whole conjugate does, and equal orders make it M.
    """
    G = N.group
    pair = (rho_embed(G, g), rho_embed(G, G.inverse[g]))
    return _escape([pair], N.generators, M) is None


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


def _stabilizer(G, fixing: list) -> Subgroup:
    stabilizer = subgroup_closure(G, fixing)
    if stabilizer.order != len(fixing):
        raise InvariantError("the elements fixing the structure do not close")
    return stabilizer


def _normalizers(N: RegularSubgroup) -> set:
    """Stab, the h for which rho(h) normalizes N, found by cosets: G is
    walked in order and only an h not yet placed is tested.  A yes joins h
    to S, the part of Stab found so far; a no places h's coset h . S, none
    of which is in Stab (h s in Stab would put h there)."""
    table, stab, gens = N.group.table, {0}, []
    placed = set(stab)
    for h in range(1, N.group.order):
        if h not in placed:
            if _is_conjugate(N, h, N):
                stab = _join(table, stab, gens, (h,))
                gens.append(h)
                placed |= stab
            else:
                placed.update(map(table[h].__getitem__, stab))
    return stab


def _orbit_search(N: RegularSubgroup) -> tuple:
    """(found, member_of) of N's orbit: {probe: make} of the
    conjugates in the order met, from _conjugate, and member_of[x], the
    index in found of N_x.  G is walked in order; each element not yet
    placed is the least of its coset g . Stab, Stab from _normalizers, and
    carries the next conjugate to the whole coset; the coset of 0 gives N."""
    G, table = N.group, N.group.table
    orders = cache(lambda: tuple(map(_cycle_at_0, N.eta)))
    fixing = _normalizers(N)
    found, member_of = {}, [None] * G.order
    for g in range(G.order):
        if member_of[g] is None:
            for h in fixing:
                member_of[table[g][h]] = len(found)
            found.setdefault(*_conjugate(N, g, orders))
    if len(found) * len(fixing) != G.order:
        raise InvariantError("two cosets of the stabilizer give one conjugate")
    return found, member_of


def _stamp(found: dict, member_of: list) -> tuple:
    """Make a search's members, live or certified, sort them canonically
    and leave (keys, member_of, t) on each member N_t; returns the record of
    the search's base N, t = 0."""
    found = [make() for make in found.values()]
    order = sorted(range(len(found)), key=lambda i: found[i].canonical_key())
    members = [found[i] for i in order]
    rank = {i: r for r, i in enumerate(order)}
    member_of = tuple(rank[i] for i in member_of)
    # the members' probes, so the record keeps no conjugate alive
    keys = tuple(_probe(m.group, m.eta) for m in members)
    for i, member in enumerate(members):
        member._orbit = (keys, member_of, member_of.index(i))
    return members, member_of, 0


def _read_orbit(N: RegularSubgroup, members: list, member_of: tuple, t: int):
    """N's orbit off its record: N_g is member member_of[g t], carried by
    the least such g, and the stabilizer holds the g with
    member_of[g t] = member_of[t]."""
    G = N.group
    at = [member_of[row[t]] for row in G.table]
    first: dict = {}
    for g, i in enumerate(at):
        first.setdefault(i, g)
    carrier = [first[i] for i in range(len(members))]
    fixing = [g for g, i in enumerate(at) if i == at[0]]
    return RhoOrbit(G, N, members, carrier, _stabilizer(G, fixing))


def rho_orbit(N: RegularSubgroup) -> RhoOrbit:
    """Orbit of N under conjugation by all right translations: read off N's
    record, or off the one a fresh search leaves when N has no valid one."""
    return _read_orbit(N, *(_recorded(N) or _stamp(*_orbit_search(N))))


def rho_partition(inventory: HgsInventory) -> list:
    """Split an inventory into right-translation orbits.

    Every conjugate of an inventory member must again be in the inventory;
    a miss means the inventory was filtered or incomplete.  It is checked
    before any member of the orbit is certified.
    """
    keys = {_probe(s.group, s.eta) for s in inventory}
    consumed: set = set()
    orbits = []
    for s in inventory:
        if _probe(s.group, s.eta) in consumed:
            continue
        record = _recorded(s)
        found, member_of = (s._orbit[0], None) if record else _orbit_search(s)
        if not keys.issuperset(found):
            raise ValueError(
                "a conjugate left the inventory; pass a complete inventory"
            )
        consumed.update(found)
        orbits.append(_read_orbit(s, *(record or _stamp(found, member_of))))
    return orbits


def same_conjugate(N1: RegularSubgroup, N2: RegularSubgroup) -> Optional[int]:
    """Smallest g with rho(g) . N1 . rho(g)^-1 == N2, or None.

    With a valid orbit record on N1 = N_t, it is the least g with
    member_of[g t] the index of N2, and None when N2 is not a member.
    Otherwise the elements of G are tried in order, each decided on N1's
    generators by _is_conjugate; no conjugate and no orbit is built.
    """
    G = N1.group
    if G is not N2.group:
        raise ValueError("structures live on different groups")
    record = _recorded(N1)
    if record:
        members, member_of, t = record
        if N2 not in members:
            return None
        i = members.index(N2)
        hits = (g for g, row in enumerate(G.table) if member_of[row[t]] == i)
    else:
        hits = (g for g in range(G.order) if _is_conjugate(N1, g, N2))
    return next(hits, None)


def opposite_conjugate_commute(N: RegularSubgroup, g: int) -> bool:
    """Whether taking the opposite commutes with conjugating by rho(g)."""
    return _is_conjugate(opposite(N), g, opposite(rho_conjugate(N, g)))
