"""Stable subgroups of a structure and the subgroups of G they fix.

A subgroup P of a structure N is stable when conjugation by every left
translation maps P into itself.  Each stable P pins down a subgroup U of G
generated by the points its members pull back to the identity; the pairs
(P, U) form a lattice whose behaviour under rho-conjugation is checked
here as well.

The stable subgroups are found in N's own Cayley table: a member is named
by its image of 0, and eta[a] . eta[b] = eta[eta[a][b]], so the rows of eta
are that table.  Conjugation by lambda(h) permutes these indices, and a
subgroup is stable exactly when it is a union of lambda(G)-orbits.  So the
lattice is made of the joins of orbit closures (groups._join_closures),
built breadth first from the trivial subgroup and capped at
groups.LATTICE_LIMIT entries; the subgroups of N are never all listed.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import CorrespondenceError
from .groups import Subgroup, _join_closures, subgroup_closure
from .hgs import RegularSubgroup
from .perms import (
    PermGroup,
    _conjugate_all,
    _escape,
    _left_translations,
    rho_embed,
)
from .rho import rho_conjugate


def _lambda_orbits(N: RegularSubgroup, table: list) -> list:
    """Orbits of conjugation by lambda(G) on N's indices other than 0; the
    conjugate of eta[a] by lambda(h) sends 0 to h * eta[a][h^-1]."""
    G = N.group
    moves = [[G.table[h][row[G.inverse[h]]] for row in table]
             for h in G.generating_set()]
    orbits, seen = [], {0}
    for a in range(1, len(table)):
        if a not in seen:
            seen.add(a)
            orbit = [a]
            for x in orbit:
                for y in {move[x] for move in moves} - seen:
                    seen.add(y)
                    orbit.append(y)
            orbits.append(tuple(orbit))
    return orbits


def g_stable_subgroups(N: RegularSubgroup) -> List[PermGroup]:
    """All subgroups of N stable under the translation action, sorted by
    order and element list: the joins of closures of lambda(G)-orbits."""
    found = _join_closures(N.eta, _lambda_orbits(N, N.eta))
    out = [PermGroup(N.eta[a] for a in key) for key in found]
    out.sort(key=lambda P: (P.order, P.canonical_key()))
    return out


def fixed_subgroup(N: RegularSubgroup, P: PermGroup) -> Subgroup:
    """The subgroup of G generated by the preimages of 0 under P's members.

    The order must come out equal to |P|; anything else means P was not a
    stable subgroup of the structure.
    """
    if not P.element_set <= N.perms.element_set:
        raise CorrespondenceError("P is not a subgroup of the structure")
    if _escape(_left_translations(N.group), P.generators, P.element_set) is not None:
        raise CorrespondenceError("P is not stable under the translation action")
    points = {p.index(0) for p in P.elements}
    U = subgroup_closure(N.group, points)
    if len(U.elements) != P.order:
        raise CorrespondenceError(
            f"fixed subgroup has order {len(U.elements)}, expected {P.order}"
        )
    return U


class RealizableLattice:
    """All pairs (stable P, fixed U) of one structure."""

    __slots__ = ("structure", "entries")

    def __init__(self, structure: RegularSubgroup, entries):
        self.structure = structure
        self.entries = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.lattice/1",
            "structure": self.structure.canonical_hash(),
            "entries": [
                {
                    "order": p.order,
                    "stable_subgroup": [list(q) for q in p.elements],
                    "fixed_subgroup": list(u.elements),
                }
                for p, u in self.entries
            ],
        }


def realizable_lattice(N: RegularSubgroup) -> RealizableLattice:
    """All (P, U) pairs, with the structural sanity checks applied.

    The map P -> U must be injective and preserve inclusions, the trivial
    pair and the full pair must both appear.  The result is kept on N.
    """
    if N._lattice is None:
        N._lattice = _build_lattice(N)
    return N._lattice


def _build_lattice(N: RegularSubgroup) -> RealizableLattice:
    entries: List[Tuple[PermGroup, Subgroup]] = []
    for P in g_stable_subgroups(N):
        entries.append((P, fixed_subgroup(N, P)))
    seen = {}
    for P, U in entries:
        if U.elements in seen:
            raise CorrespondenceError("two stable subgroups fix the same subgroup")
        seen[U.elements] = P
    n = N.group.order
    orders = sorted(len(u.elements) for _, u in entries)
    if orders[0] != 1 or orders[-1] != n:
        raise CorrespondenceError("lattice misses the trivial or the full pair")
    for P1, U1 in entries:
        for P2, U2 in entries:
            if P1.element_set <= P2.element_set and not (
                U1.element_set <= U2.element_set
            ):
                raise CorrespondenceError("the correspondence broke an inclusion")
    return RealizableLattice(N, entries)


def _transport_matches(G, lat1: RealizableLattice,
                       lat2: RealizableLattice, g: int) -> bool:
    """Does conjugating lat1 entrywise by g reproduce lat2 exactly?"""
    rho_g, rho_ginv = rho_embed(G, g), rho_embed(G, G.inverse[g])
    transported = {}
    for P, U in lat1:
        key = frozenset(_conjugate_all(P.elements, rho_g, rho_ginv))
        transported[key] = tuple(sorted(G.conj(u, g) for u in U.elements))
    if len(transported) != len(lat2.entries):
        return False
    for P, U in lat2:
        want = transported.get(P.element_set)
        if want is None or want != U.elements:
            return False
    return True


def lattice_transport_check(N: RegularSubgroup, g: int) -> bool:
    """Conjugating the structure by rho(g) must carry its lattice to the
    conjugated lattice: P -> rho(g) P rho(g)^-1 paired with U -> g U g^-1."""
    G = N.group
    lat1 = realizable_lattice(N)
    lat2 = realizable_lattice(rho_conjugate(N, g))
    return _transport_matches(G, lat1, lat2, g)
