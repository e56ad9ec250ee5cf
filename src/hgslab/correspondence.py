"""Stable subgroups of a structure and the subgroups of G they fix.

A subgroup P of a structure N is stable when conjugation by every left
translation maps P into itself.  Each stable P pins down a subgroup U of G,
its orbit of 0; the pairs (P, U) form a lattice whose behaviour under
rho-conjugation is checked here as well.

The stable subgroups are found in N's own Cayley table: a member is named by
its image of 0, and eta[a] . eta[b] = eta[eta[a][b]], so the rows of eta are
that table.  Conjugation by lambda(h) permutes these indices, and a subgroup
is stable exactly when it is a union of lambda(G)-orbits.  So the lattice is
made of the joins of orbit closures (groups._join_closures), capped at
groups.LATTICE_LIMIT; N's subgroups are never all listed.  Each P is built
once, from its greedy walk over the orbits (a join that reaches an earlier
orbit stops, as that walk picks it first), and keeps its picks as generators.

A stable P is a left ideal of N's skew brace, so its ids are a subgroup U of
G: for p, q in P with p(0) = u and q(0) = v, the member
(lambda(u) q lambda(u)^-1) p of P sends 0 to u v.  So U is P's index set and
P = {eta[u] : u in U}.  N keeps only the Us, each closed in G once (_fixed);
the Ps are read off eta for the caller, and the transport compares ids.
Only a P from outside is checked to be stable (fixed_subgroup).
"""

from __future__ import annotations

from typing import List

from .errors import CorrespondenceError
from .groups import (FiniteGroup, Subgroup, _join_closures, _orbits,
                     inner_automorphism, subgroup_closure)
from .hgs import RegularSubgroup
from .perms import PermGroup, _escape, _left_translations, rho_embed
from .rho import _is_conjugate, rho_conjugate


def _lambda_orbits(N: RegularSubgroup) -> list:
    """Orbits of conjugation by lambda(G) on N's indices other than 0; the
    conjugate of eta[a] by lambda(h) sends 0 to h * eta[a][h^-1]."""
    G = N.group
    moves = [[G.table[h][row[G.inverse[h]]] for row in N.eta]
             for h in G.generating_set()]
    return _orbits(moves, len(N.eta))[1:]


def _fixed(G: FiniteGroup, ids, order: int) -> Subgroup:
    """The closure of P's ids in G, refused unless its order is |P|.

    Then U is exactly the ids.  N is regular, so a member is named by its
    image of 0, and P -> U is injective, keeps inclusions and sends {id} to
    {0} and N to G: the lattice needs no further check.
    """
    U = subgroup_closure(G, ids)
    if U.order != order:
        raise CorrespondenceError(
            f"fixed subgroup has order {U.order}, expected {order}"
        )
    return U


def _fixed_subgroups(N: RegularSubgroup) -> tuple:
    """The fixed subgroup U of every stable P, sorted by order and elements
    (eta is sorted, so this is the order of the Ps), each generated by its
    picks; the tuple is kept on N."""
    if N._lattice is None:
        G, subs = N.group, []
        for key, picks in _join_closures(N.eta, _lambda_orbits(N)).items():
            _fixed(G, key, len(key))
            subs.append(Subgroup(G, key, picks, _closed=True))
        N._lattice = tuple(sorted(subs, key=lambda U: (U.order, U.elements)))
    return N._lattice


def _stable(eta, U: Subgroup) -> PermGroup:
    """The stable subgroup with index set U: eta read at U's elements,
    generated by eta at U's picks (the identity for the trivial one)."""
    return PermGroup._generated_by([eta[u] for u in U.elements],
                                   [eta[u] for u in U.generators or (0,)])


def g_stable_subgroups(N: RegularSubgroup) -> List[PermGroup]:
    """All subgroups of N stable under the translation action, sorted by
    order and element list: the joins of closures of lambda(G)-orbits, each
    generated by its picked members."""
    return [_stable(N.eta, U) for U in _fixed_subgroups(N)]


def fixed_subgroup(N: RegularSubgroup, P: PermGroup) -> Subgroup:
    """The subgroup of G generated by the orbit of 0 under P, which for a
    group is the set of preimages of 0 under P's members.

    P comes from outside, so it is checked to be a subgroup of the
    structure that the translations normalize; the order must come out
    equal to |P|.
    """
    if not all(p in N for p in P.elements):
        raise CorrespondenceError("P is not a subgroup of the structure")
    if _escape(_left_translations(N.group), P.generators, P.element_set) is not None:
        raise CorrespondenceError("P is not stable under the translation action")
    return _fixed(N.group, P.orbit(0), P.order)


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
    """All (P, U) pairs, each P read off eta at U; a new lattice on each
    call, of the Us kept on N."""
    return RealizableLattice(N, [(_stable(N.eta, U), U) for U in _fixed_subgroups(N)])


def _transport_matches(N: RegularSubgroup, N2: RegularSubgroup, g: int) -> bool:
    """Does conjugating N's lattice entrywise by rho(g) reproduce N2's?

    First rho(g) N rho(g)^-1 = N2, decided on N's generators.  Then the
    member eta[a] of a P goes to the member of N2 that sends 0 to
    rho(g)(eta[a](rho(g)^-1(0))) = rho(g)(eta[a](g)), so each U of N goes to
    those ids, which must be a U of N2, paired with g U g^-1.
    """
    if not _is_conjugate(N, g, N2):
        return False
    G, eta = N.group, N.eta
    rho_g, phi = rho_embed(G, g), inner_automorphism(G, g).images
    transported = {
        frozenset(rho_g[eta[a][g]] for a in U.elements):
            tuple(sorted(phi[u] for u in U.elements))
        for U in _fixed_subgroups(N)
    }
    lat2 = _fixed_subgroups(N2)
    return len(transported) == len(lat2) and all(
        transported.get(U.element_set) == U.elements for U in lat2)


def lattice_transport_check(N: RegularSubgroup, g: int) -> bool:
    """Conjugating the structure by rho(g) must carry its lattice to the
    conjugate's: P -> rho(g) P rho(g)^-1 paired with U -> g U g^-1.
    rho_conjugate refuses a g that is not an id of G."""
    return _transport_matches(N, rho_conjugate(N, g), g)
