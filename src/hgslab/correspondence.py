"""Stable subgroups of a structure and the subgroups of G they fix.

A subgroup P of a structure N is stable when conjugation by every left
translation maps P into itself.  Each stable P pins down a subgroup U of G
generated by the points its members pull back to the identity; the pairs
(P, U) form a lattice whose behaviour under rho-conjugation is checked
here as well.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import CorrespondenceError
from .groups import FiniteGroup, Subgroup, all_subgroups, subgroup_closure
from .hgs import RegularSubgroup
from .perms import (
    PermGroup,
    _conjugate_all,
    _normalizes,
    perm_group_as_group,
    perm_group_from_elements,
)
from .rho import _rho_images, rho_conjugate


def _is_translation_stable(N: RegularSubgroup, members: frozenset, gens) -> bool:
    """Conjugation by lambda(g) must keep the subgroup inside itself;
    group generators suffice on both sides."""
    G = N.group
    return _normalizes((G.table[h] for h in G.generating_set()), gens, members)


def g_stable_subgroups(N: RegularSubgroup) -> List[PermGroup]:
    """All subgroups of N stable under the translation action, sorted by
    order and element list."""
    abstract, elems = perm_group_as_group(N.perms)
    out = []
    for sub in all_subgroups(abstract):
        perms = [elems[i] for i in sub.elements]
        members = frozenset(p.images for p in perms)
        gens = [elems[i].images for i in sub.generators] or [p.images for p in perms]
        if _is_translation_stable(N, members, gens):
            out.append(perm_group_from_elements(members))
    out.sort(key=lambda P: (P.order, P.canonical_key()))
    return out


def fixed_subgroup(N: RegularSubgroup, P: PermGroup) -> Subgroup:
    """The subgroup of G generated by the preimages of 0 under P's members.

    The order must come out equal to |P|; anything else means P was not a
    stable subgroup of the structure.
    """
    if not P.element_set <= N.perms.element_set:
        raise CorrespondenceError("P is not a subgroup of the structure")
    gens = [p.images for p in P.generators]
    if not _is_translation_stable(N, P.element_set, gens):
        raise CorrespondenceError("P is not stable under the translation action")
    points = {p.images.index(0) for p in P.elements}
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

    def subgroups_of_g(self) -> list:
        return [u for _, u in self.entries]

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.lattice/1",
            "structure": self.structure.canonical_hash(),
            "entries": [
                {
                    "order": p.order,
                    "stable_subgroup": [list(q.images) for q in p.elements],
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
    rho_g, rho_ginv = _rho_images(G, g), _rho_images(G, G.inverse[g])
    transported = {}
    for P, U in lat1:
        key = frozenset(
            _conjugate_all((p.images for p in P.elements), rho_g, rho_ginv)
        )
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
