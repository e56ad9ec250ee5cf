"""Builders that produce Hopf-Galois structures from group data.

The bridge is the holomorph embedding: a structure of type M on G is the
same thing as an injective homomorphism of G into Hol(M) whose image acts
regularly on M.  On top of that sit three concrete factories: fixed point
free pairs of homomorphisms, endomorphisms with abelian image, and
structures induced from a subgroup with a normal complement.  Every factory
routes its output through certify, so a malformed input cannot produce an
uncertified structure.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import ConstructionError, HgsError, UnsupportedOrder
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _is_prime,
    automorphisms,
    are_isomorphic,
    build_group,
    catalog_specs,
    inner_automorphism,
    is_homomorphism,
)
from .hgs import RegularSubgroup, _structure_from_embedding, certify
from .perms import (
    CosetSpace,
    GPerm,
    PermGroup,
    _compose,
    _conjugate_all,
    _greedy_close,
    _invert,
    _normalizes,
    _tuple_order,
    coset_space,
    in_holomorph,
    left_translation,
    left_translation_image,
    perm_group_from_elements,
)
from .rho import rho_conjugate


# ---------------------------------------------------------------------------
# Holomorph embeddings


class HolEmbedding:
    """An injective homomorphism of G into Hol(M) with regular image.

    beta[g] is a permutation of M; regularity means g -> beta[g][0] is a
    bijection onto M.  Instances are built through hol_embedding, which
    checks all of this.
    """

    __slots__ = ("source", "target", "beta")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, beta):
        self.source = source
        self.target = target
        self.beta = tuple(beta)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HolEmbedding)
            and self.source is other.source
            and self.target is other.target
            and self.beta == other.beta
        )

    def __hash__(self) -> int:
        return hash((id(self.source), id(self.target), self.beta))

    def __repr__(self) -> str:
        return (
            f"HolEmbedding(|G|={self.source.order}, "
            f"target={self.target.spec or self.target.order})"
        )

    def base_point_map(self) -> tuple:
        """g -> beta(g)[identity of M]; a bijection by regularity."""
        return tuple(b[0] for b in self.beta)

    def precompose(self, phi: GroupHom) -> "HolEmbedding":
        """The embedding g -> beta(phi(g)); phi must be an automorphism."""
        if phi.domain is not self.source or phi.codomain is not self.source:
            raise ConstructionError("phi must be an automorphism of the source")
        return hol_embedding(
            self.source, self.target, [self.beta[phi.images[g]] for g in range(self.source.order)]
        )

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.embedding/1",
            "source": str(self.source.spec) if self.source.spec else None,
            "target": str(self.target.spec) if self.target.spec else None,
            "beta": [list(b) for b in self.beta],
        }


def hol_embedding(G: FiniteGroup, M: FiniteGroup, beta) -> HolEmbedding:
    """Validate and wrap an embedding given by its image permutations.

    Checks, in order: shape, the homomorphism property, injectivity,
    regularity at the base point, and holomorph membership of every image
    (each beta(g) must factor as translation followed by automorphism).
    """
    n = G.order
    if M.order != n:
        raise ConstructionError("source and target must have equal order")
    rows = [tuple(b.images) if isinstance(b, GPerm) else tuple(b) for b in beta]
    if len(rows) != n:
        raise ConstructionError("beta must assign one permutation per element")
    for row in rows:
        if len(row) != n or set(row) != set(range(n)):
            raise ConstructionError("beta images must be permutations of M")
    tg = G.table
    for g in range(n):
        bg = rows[g]
        for h in range(n):
            if rows[tg[g][h]] != _compose(bg, rows[h]):
                raise ConstructionError(
                    f"beta is not a homomorphism at ({g}, {h})"
                )
    if len(set(rows)) != n:
        raise ConstructionError("beta is not injective")
    base = [row[0] for row in rows]
    if len(set(base)) != n:
        raise ConstructionError("embedding image is not regular at the base point")
    for g, row in enumerate(rows):
        if not in_holomorph(M, GPerm(row, check=False)):
            raise ConstructionError(
                f"beta({g}) does not factor as translation times automorphism"
            )
    return HolEmbedding(G, M, rows)


def structure_group(N: RegularSubgroup) -> FiniteGroup:
    """The abstract group carried by the eta indexing of a structure.

    Row a of the table is eta_a's image array: eta_a . eta_b = eta_{eta_a[b]}.
    """
    return FiniteGroup([p.images for p in N.eta], check=False)


def to_hol_embedding(
    N: RegularSubgroup,
    target: Optional[FiniteGroup] = None,
    iota: Optional[Sequence[int]] = None,
) -> HolEmbedding:
    """The embedding behind a structure, for a chosen identification iota.

    iota[mu] names the member eta_{iota[mu]} that the abstract element mu
    maps to; it must be an isomorphism from the target onto the structure.
    When omitted, an isomorphism is searched for (target defaults to the
    structure's own eta-indexed group).
    """
    G = N.group
    n = G.order
    star = structure_group(N)
    if target is None:
        if iota is None:
            target, iota = star, tuple(range(n))
        else:
            target = star
    if iota is None:
        iso = are_isomorphic(target, star)
        if iso is None:
            raise ConstructionError("target group is not isomorphic to the structure")
        iota = iso.images
    iota = tuple(iota)
    if sorted(iota) != list(range(n)):
        raise ConstructionError("iota is not a bijection")
    ts, tm = star.table, target.table
    for mu in range(n):
        row = ts[iota[mu]]
        for nu in range(n):
            if iota[tm[mu][nu]] != row[iota[nu]]:
                raise ConstructionError("iota is not an isomorphism onto the structure")
    inv = [0] * n
    for mu, a in enumerate(iota):
        inv[a] = mu
    tg = G.table
    beta = [tuple(inv[tg[g][a]] for a in iota) for g in range(n)]
    return hol_embedding(G, target, beta)


def from_hol_embedding(emb: HolEmbedding) -> RegularSubgroup:
    """The structure behind an embedding: conjugate the left translations
    of the target back to Perm(G) along the base point bijection."""
    key, _ = _structure_from_embedding(emb.source, emb.target, emb.beta)
    label = emb.target.spec
    return certify(emb.source, perm_group_from_elements(key), type_label=label)


def equivalent_embeddings(e1: HolEmbedding, e2: HolEmbedding) -> Optional[GroupHom]:
    """An automorphism theta of the target with e2 = theta . e1 . theta^-1.

    Returns None when no such automorphism exists.  This is the equivalence
    under which from_hol_embedding is injective.
    """
    if e1.source is not e2.source or e1.target.table != e2.target.table:
        raise ConstructionError("embeddings must share source and target")
    for aut in automorphisms(e1.target):
        th = aut.images
        if _conjugate_all(e1.beta, th, _invert(th)) == list(e2.beta):
            return aut
    return None


def embedding_conjugation_check(emb: HolEmbedding, g: int) -> bool:
    """Precomposing with conjugation by g^-1 tracks rho-conjugation.

    from_hol_embedding(beta . inn(g^-1)) must equal the rho-conjugate by g
    of from_hol_embedding(beta).
    """
    G = emb.source
    twisted = emb.precompose(inner_automorphism(G, G.inverse[g]))
    lhs = from_hol_embedding(twisted)
    rhs = rho_conjugate(from_hol_embedding(emb), g)
    return lhs.perms.element_set == rhs.perms.element_set


# ---------------------------------------------------------------------------
# Fixed point free pairs


def fpf_check(f1: GroupHom, f2: GroupHom) -> bool:
    """True when the homomorphisms agree only at the identity."""
    if f1.domain is not f2.domain or f1.codomain is not f2.codomain:
        raise ConstructionError("the pair must share domain and codomain")
    if f1.domain.order != f1.codomain.order:
        raise ConstructionError("domain and codomain must have equal order")
    a, b = f1.images, f2.images
    return all(a[h] != b[h] for h in range(1, len(a)))


def fpf_embedding(f1: GroupHom, f2: GroupHom) -> HolEmbedding:
    """The embedding h -> lambda(f1(h)) . rho(f2(h)) on the shared target."""
    for f in (f1, f2):
        if not is_homomorphism(f.domain, f.codomain, f.images):
            raise ConstructionError("both factors must be homomorphisms")
    if not fpf_check(f1, f2):
        raise ConstructionError("the pair is not fixed point free")
    G, M = f1.domain, f1.codomain
    tm, inv = M.table, M.inverse
    beta = []
    for h in range(G.order):
        row = tm[f1.images[h]]
        bi = inv[f2.images[h]]
        beta.append(tuple(row[tm[m][bi]] for m in range(M.order)))
    return hol_embedding(G, M, beta)


def hgs_from_fpf(f1: GroupHom, f2: GroupHom) -> RegularSubgroup:
    return from_hol_embedding(fpf_embedding(f1, f2))


def fpf_transport_check(f1: GroupHom, f2: GroupHom, g: int) -> bool:
    """Precomposing both factors with inn(g) lands on the rho-conjugate by
    g^-1 of the original structure."""
    G = f1.domain
    phi = inner_automorphism(G, g)
    base = hgs_from_fpf(f1, f2)
    twisted = hgs_from_fpf(f1.compose(phi), f2.compose(phi))
    target = rho_conjugate(base, G.inverse[g])
    return twisted.perms.element_set == target.perms.element_set


# ---------------------------------------------------------------------------
# Abelian maps


class AbelianMap:
    """An endomorphism whose image is abelian."""

    __slots__ = ("hom",)

    def __init__(self, hom: GroupHom):
        if hom.domain is not hom.codomain:
            raise ConstructionError("an abelian map is an endomorphism")
        if not is_homomorphism(hom.domain, hom.codomain, hom.images):
            raise ConstructionError("the map is not a homomorphism")
        G = hom.domain
        image = sorted(set(hom.images))
        for a in image:
            row = G.table[a]
            for b in image:
                if row[b] != G.table[b][a]:
                    raise ConstructionError("the image is not abelian")
        self.hom = hom

    @property
    def group(self) -> FiniteGroup:
        return self.hom.domain

    @property
    def images(self) -> tuple:
        return self.hom.images

    def __call__(self, a: int) -> int:
        return self.hom.images[a]

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianMap) and self.hom == other.hom

    def __hash__(self) -> int:
        return hash(self.hom)

    def __repr__(self) -> str:
        return f"AbelianMap({self.hom.images})"

    def to_json(self) -> dict:
        return {"schema": "hgslab.abelian_map/1", "images": list(self.hom.images)}


def abelian_maps(G: FiniteGroup) -> list:
    """All endomorphisms of G with abelian image, sorted by image array.

    Backtracks over generator images; a generator of order k can only map
    to an element whose order divides k.
    """
    from .groups import extend_generator_images

    gens = G.generating_set()
    orders = G.element_orders
    candidates = []
    for g in gens:
        o = orders[g]
        candidates.append([x for x in range(G.order) if o % orders[x] == 0])
    out = []
    for combo in itertools.product(*candidates):
        images = extend_generator_images(G, gens, combo, G)
        if images is None:
            continue
        try:
            out.append(AbelianMap(GroupHom(G, G, images)))
        except ConstructionError:
            continue
    out.sort(key=lambda m: m.hom.images)
    return out


def hgs_from_abelian_map(am: AbelianMap) -> RegularSubgroup:
    """The structure whose member indexed by h is
    lambda(h psi(h)^-1) . rho(psi(h)^-1)."""
    G = am.group
    tm, inv = G.table, G.inverse
    n = G.order
    columns = tuple(zip(*tm))
    elems = []
    for h in range(n):
        p = am.images[h]
        arow = tm[tm[h][inv[p]]]
        # rho(psi(h)^-1) sends m to m . psi(h), column p of the table
        elems.append(_compose(arow, columns[p]))
    members = set(elems)
    if len(members) != n or _greedy_close(elems, members) is None:
        raise ConstructionError("abelian map did not produce a subgroup")
    try:
        return certify(G, perm_group_from_elements(elems))
    except HgsError as exc:
        raise ConstructionError(f"abelian map construction failed: {exc}") from exc


def abelian_transport_check(am: AbelianMap, g: int) -> bool:
    """Conjugating the map by inn(g) tracks rho-conjugation by g."""
    G = am.group
    phi = inner_automorphism(G, g)
    phi_inv = inner_automorphism(G, G.inverse[g])
    conj = AbelianMap(phi.compose(am.hom.compose(phi_inv)))
    lhs = rho_conjugate(hgs_from_abelian_map(am), g)
    rhs = hgs_from_abelian_map(conj)
    return lhs.perms.element_set == rhs.perms.element_set


# ---------------------------------------------------------------------------
# Induced structures


class InducedInput:
    """Data for inducing a structure from a subgroup with normal complement.

    T is the subgroup, S the normal complement; every g factors uniquely as
    s . t.  A is a translation-stable regular subgroup on the cosets G/T,
    B a stable regular subgroup on T itself.  Built via induced_input.
    """

    __slots__ = (
        "group",
        "t_sub",
        "s_sub",
        "quotient",
        "a_structure",
        "b_structure",
        "t_group",
        "t_elements",
        "s_of_coset",
    )

    def __init__(self, group, t_sub, s_sub, quotient, a_structure, b_structure,
                 t_group, t_elements, s_of_coset):
        self.group = group
        self.t_sub = t_sub
        self.s_sub = s_sub
        self.quotient = quotient
        self.a_structure = a_structure
        self.b_structure = b_structure
        self.t_group = t_group
        self.t_elements = t_elements
        self.s_of_coset = s_of_coset

    def to_json(self) -> dict:
        return {
            "schema": "hgslab.induced_input/1",
            "subgroup": list(self.t_sub.elements),
            "complement": list(self.s_sub.elements),
            "quotient_structure": self.a_structure.to_json(),
            "subgroup_structure": self.b_structure.to_json(),
        }


def _check_coset_stable(cs: CosetSpace, A: PermGroup) -> None:
    """A must be normalized by every left translation of the full group;
    generators suffice on both sides."""
    lts = (left_translation(cs, h).images for h in cs.group.generating_set())
    if not _normalizes(lts, [p.images for p in A.generators], A.element_set):
        raise ConstructionError(
            "quotient structure is not stable under left translation"
        )


def _check_subgroup_stable(t_group: FiniteGroup, B: PermGroup) -> None:
    lts = (t_group.table[u] for u in t_group.generating_set())
    if not _normalizes(lts, [p.images for p in B.generators], B.element_set):
        raise ConstructionError(
            "subgroup structure is not stable under its translations"
        )


def induced_input(
    G: FiniteGroup, T: Subgroup, S: Subgroup, A: PermGroup, B: PermGroup
) -> InducedInput:
    """Validate the pieces of an induced construction."""
    if T.parent is not G or S.parent is not G:
        raise ConstructionError("subgroup and complement must live in the group")
    if not S.is_normal():
        raise ConstructionError("the complement must be normal")
    if S.element_set & T.element_set != {0}:
        raise ConstructionError("complement and subgroup must intersect trivially")
    if len(S.elements) * len(T.elements) != G.order:
        raise ConstructionError("orders do not factor the group")
    cs = coset_space(G, T)
    s_of = [-1] * cs.degree
    for s in S.elements:
        c = cs.coset_of[s]
        if s_of[c] != -1:
            raise ConstructionError("complement does not biject onto the cosets")
        s_of[c] = s
    if -1 in s_of:
        raise ConstructionError("complement does not biject onto the cosets")
    if A.base != cs.degree or not A.is_regular():
        raise ConstructionError("quotient structure must be regular on the cosets")
    _check_coset_stable(cs, A)
    t_group, t_elements = T.as_group()
    if B.base != len(t_elements) or not B.is_regular():
        raise ConstructionError("subgroup structure must be regular on the subgroup")
    _check_subgroup_stable(t_group, B)
    return InducedInput(G, T, S, cs, A, B, t_group, t_elements, tuple(s_of))


def induced_hgs(inp: InducedInput) -> RegularSubgroup:
    """The structure sending s.t to a[s].b[t], over all pairs (a, b)."""
    G = inp.group
    tm = G.table
    n = G.order
    tpos = {t: i for i, t in enumerate(inp.t_elements)}
    fac = [None] * n
    for s in inp.s_sub.elements:
        row = tm[s]
        ci = inp.quotient.coset_of[s]
        for t in inp.t_elements:
            g = row[t]
            if fac[g] is not None:
                raise ConstructionError("factorization s.t is not unique")
            fac[g] = (ci, tpos[t])
    s_of = inp.s_of_coset
    telems = inp.t_elements
    elems = []
    for a in inp.a_structure.elements:
        ai = a.images
        for b in inp.b_structure.elements:
            bi = b.images
            img = [0] * n
            for g in range(n):
                ci, ti = fac[g]
                img[g] = tm[s_of[ai[ci]]][telems[bi[ti]]]
            elems.append(tuple(img))
    members = set(elems)
    if len(members) != n or _greedy_close(elems, members) is None:
        raise ConstructionError("induced family is not a subgroup")
    try:
        return certify(G, perm_group_from_elements(elems))
    except HgsError as exc:
        raise ConstructionError(f"induced construction failed: {exc}") from exc


def _automorphism_or_error(G: FiniteGroup, phi: GroupHom) -> None:
    if phi.domain is not G or phi.codomain is not G:
        raise ConstructionError("phi must be an automorphism of the group")
    if sorted(phi.images) != list(range(G.order)) or not is_homomorphism(
        G, G, phi.images
    ):
        raise ConstructionError("phi must be an automorphism of the group")


def transport_quotient_structure(
    cs: CosetSpace, A: PermGroup, phi: GroupHom
) -> tuple:
    """Move a stable regular quotient structure along an automorphism.

    Returns the coset space of phi(T) and the transported subgroup, which
    is revalidated on the new space.
    """
    G = cs.group
    _automorphism_or_error(G, phi)
    T = cs.subgroup
    T2 = Subgroup(G, (phi.images[t] for t in T.elements),
                  generators=tuple(phi.images[t] for t in T.generators))
    cs2 = coset_space(G, T2)
    mapping = tuple(cs2.coset_of[phi.images[r]] for r in cs.representatives)
    if sorted(mapping) != list(range(cs.degree)):
        raise ConstructionError("automorphism does not permute the cosets")
    A2 = perm_group_from_elements(
        _conjugate_all((p.images for p in A.elements), mapping, _invert(mapping))
    )
    if not A2.is_regular():
        raise ConstructionError("transported quotient structure lost regularity")
    _check_coset_stable(cs2, A2)
    return cs2, A2


def transport_subgroup_structure(
    T: Subgroup, B: PermGroup, phi: GroupHom
) -> tuple:
    """Move a stable regular structure on T along an automorphism of G."""
    G = T.parent
    _automorphism_or_error(G, phi)
    T2 = Subgroup(G, (phi.images[t] for t in T.elements),
                  generators=tuple(phi.images[t] for t in T.generators))
    t2_group, t2_elements = T2.as_group()
    pos2 = {t: i for i, t in enumerate(t2_elements)}
    mapping = tuple(pos2[phi.images[t]] for t in T.elements)
    B2 = perm_group_from_elements(
        _conjugate_all((p.images for p in B.elements), mapping, _invert(mapping))
    )
    if not B2.is_regular():
        raise ConstructionError("transported subgroup structure lost regularity")
    _check_subgroup_stable(t2_group, B2)
    return T2, B2


def induced_transport_check(inp: InducedInput, g: int) -> bool:
    """Inner transport of both components tracks rho-conjugation by g."""
    G = inp.group
    phi = inner_automorphism(G, g)
    s_set = inp.s_sub.element_set
    if any(phi.images[s] not in s_set for s in inp.s_sub.elements):
        raise ConstructionError("automorphism does not preserve the complement")
    cs2, A2 = transport_quotient_structure(inp.quotient, inp.a_structure, phi)
    T2 = cs2.subgroup
    T2b, B2 = transport_subgroup_structure(inp.t_sub, inp.b_structure, phi)
    inp2 = induced_input(G, T2b, inp.s_sub, A2, B2)
    lhs = rho_conjugate(induced_hgs(inp), g)
    rhs = induced_hgs(inp2)
    return lhs.perms.element_set == rhs.perms.element_set


def normal_complements(G: FiniteGroup, T: Subgroup) -> list:
    """All normal subgroups S with S.T = G and trivial intersection."""
    from .groups import normal_subgroups

    out = []
    want = G.order // len(T.elements)
    for S in normal_subgroups(G):
        if len(S.elements) != want:
            continue
        if S.element_set & T.element_set == {0}:
            out.append(S)
    return out


# ---------------------------------------------------------------------------
# Stable regular subgroups on a coset space


def _coset_brute(cs: CosetSpace, L: PermGroup) -> list:
    """Oracle enumeration for small degree: every regular subgroup is a
    bijection-conjugate of some left translation table."""
    d = cs.degree
    lgens = [p.images for p in L.generators]
    found = []
    seen = set()
    for spec in catalog_specs(d):
        tmm = build_group(spec).table
        for rest in itertools.permutations(range(1, d)):
            b = (0,) + rest
            elems = frozenset(_conjugate_all(tmm, b, _invert(b)))
            if elems in seen:
                continue
            seen.add(elems)
            if _normalizes(lgens, elems, elems):
                found.append(perm_group_from_elements(elems))
    found.sort(key=lambda P: P.canonical_key())
    return found


def _coset_prime(cs: CosetSpace, L: PermGroup) -> list:
    """Prime degree: the only candidate is the cycle group of any order-p
    element of the translation image.

    If a normalized regular Q existed, <sigma> Q would be a p-group of
    order p^2 inside Sym(p) unless Q = <sigma>; Sylow p-subgroups of Sym(p)
    only have order p, so Q = <sigma> is forced for every such sigma.
    """
    d = cs.degree
    sigma = next(p for p in L.elements if _tuple_order(p.images) == d)
    elems = []
    cur = tuple(range(d))
    for _ in range(d):
        elems.append(cur)
        cur = _compose(sigma.images, cur)
    eset = frozenset(elems)
    if not _normalizes((q.images for q in L.elements), elems, eset):
        return []
    return [perm_group_from_elements(eset)]


def coset_stable_regular_subgroups(G: FiniteGroup, T: Subgroup) -> list:
    """All regular subgroups of Perm(G/T) normalized by the translation
    image of G; brute force for degree <= 8, uniqueness argument for prime
    degree."""
    cs = coset_space(G, T)
    d = cs.degree
    if d == 1:
        return [perm_group_from_elements([(0,)])]
    L = left_translation_image(cs)
    if d <= 8:
        return _coset_brute(cs, L)
    if _is_prime(d):
        return _coset_prime(cs, L)
    raise UnsupportedOrder(f"coset degree {d} is beyond the search range")
