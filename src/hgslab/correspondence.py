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
orbit stops, as that walk picks it first), keeps its picks as generators and
has its index set as U, closed in G only to confirm that it is a subgroup
(_fixed).  Only a P from outside is checked to be stable (fixed_subgroup).
"""

from __future__ import annotations

from typing import List

from .errors import CorrespondenceError
from .groups import (FiniteGroup, Subgroup, _check_id, _join_closures, _orbits,
                     inner_automorphism, subgroup_closure)
from .hgs import RegularSubgroup
from .perms import (
    PermGroup,
    _escape,
    _left_translations,
    rho_embed,
)
from .rho import rho_conjugate


def _lambda_orbits(N: RegularSubgroup) -> list:
    """Orbits of conjugation by lambda(G) on N's indices other than 0; the
    conjugate of eta[a] by lambda(h) sends 0 to h * eta[a][h^-1]."""
    G = N.group
    moves = [[G.table[h][row[G.inverse[h]]] for row in N.eta]
             for h in G.generating_set()]
    return _orbits(moves, len(N.eta))[1:]


def g_stable_subgroups(N: RegularSubgroup) -> List[PermGroup]:
    """All subgroups of N stable under the translation action, sorted by
    order and element list: the joins of closures of lambda(G)-orbits, each
    generated by its picked members."""
    eta = N.eta
    out = [
        PermGroup._generated_by((eta[a] for a in key), [eta[a] for a in gens or (0,)])
        for key, gens in _join_closures(eta, _lambda_orbits(N)).items()
    ]
    out.sort(key=lambda P: (P.order, P.canonical_key()))
    return out


def _fixed(G: FiniteGroup, P: PermGroup) -> Subgroup:
    """The subgroup of G that a stable P fixes: the closure of P's orbit of
    0, refused unless its order is |P|.

    Once |U| = |P|, U is exactly the orbit {p(0)}.  The structure is
    regular, so a member is named by its image of 0, and P -> U is
    injective, keeps inclusions and sends {id} to {0} and the structure to
    G: the lattice needs no further check.
    """
    U = subgroup_closure(G, P.orbit(0))
    if len(U.elements) != P.order:
        raise CorrespondenceError(
            f"fixed subgroup has order {len(U.elements)}, expected {P.order}"
        )
    return U


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
    return _fixed(N.group, P)


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
    """All (P, U) pairs, each U read off P by _fixed.  The result is kept
    on N."""
    if N._lattice is None:
        N._lattice = RealizableLattice(
            N, [(P, _fixed(N.group, P)) for P in g_stable_subgroups(N)]
        )
    return N._lattice


def _transport_matches(G, lat1: RealizableLattice,
                       lat2: RealizableLattice, g: int) -> bool:
    """Does conjugating lat1 entrywise by g reproduce lat2 exactly?

    First rho(g) N rho(g)^-1 = N2 for the two structures, decided on N's
    generators (equal orders make inclusion equality).  Then a member p of
    a P goes to the member of N2 that sends 0 to rho(g)(p(rho(g)^-1(0))),
    so each P is compared with lat2's entries by the ids {p(0)}.  For a
    lat2 entry (P, U) those ids are U's elements: _fixed refuses any U whose
    order is not |P|, and U holds the orbit {p(0)}, so U.element_set is read.
    """
    rho_g, rho_ginv = rho_embed(G, g), rho_embed(G, G.inverse[g])
    N, N2 = lat1.structure, lat2.structure
    if _escape([(rho_g, rho_ginv)], N.generators, N2) is not None:
        return False
    phi, r0 = inner_automorphism(G, g).images, rho_ginv[0]
    transported = {}
    for P, U in lat1:
        key = frozenset(rho_g[p[r0]] for p in P.elements)
        transported[key] = tuple(sorted(phi[u] for u in U.elements))
    if len(transported) != len(lat2.entries):
        return False
    for _, U in lat2:
        want = transported.get(U.element_set)
        if want is None or want != U.elements:
            return False
    return True


def lattice_transport_check(N: RegularSubgroup, g: int) -> bool:
    """Conjugating the structure by rho(g) must carry its lattice to the
    conjugated lattice: P -> rho(g) P rho(g)^-1 paired with U -> g U g^-1."""
    G = N.group
    _check_id(G, g)
    lat1 = realizable_lattice(N)
    lat2 = realizable_lattice(rho_conjugate(N, g))
    return _transport_matches(G, lat1, lat2, g)
