"""Named end-to-end checks over worked example families and coherence laws.

Each check reverifies a block of behaviour from scratch and returns a
pass/fail verdict with a one-line detail.  The suite is what the `verify`
command runs; the checks assert the behaviour this library actually
exhibits, each one recomputed rather than read from stored constants.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Tuple

from .braces import (
    brace_from_subgroup,
    inner_stabilizer,
    is_two_sided,
    mixed_inverse_identity,
    rho_fix_criteria,
    compare_braces,
    ybe_map,
)
from .constructions import (
    abelian_maps,
    abelian_transport_check,
    embedding_conjugation_check,
    fpf_transport_check,
    hgs_from_abelian_map,
    hgs_from_fpf,
    induced_input,
    induced_hgs,
    induced_transport_check,
    coset_stable_regular_subgroups,
    to_hol_embedding,
)
from .correspondence import lattice_transport_check, realizable_lattice
from .errors import HgsError
from .groups import (
    FiniteGroup,
    GroupHom,
    all_subgroups,
    build_group,
    catalog_specs,
    inner_automorphism,
    parse_spec,
    subgroup_closure,
)
from .hgs import (
    RegularSubgroup,
    brute_force_inventory,
    certify,
    enumerate_hgs,
    opposite,
    type_of,
)
from .perms import (
    PermGroup,
    _compose,
    _conjugate,
    _escape,
    generated_perm_group,
    lambda_embed,
    rho_embed,
)
from .rho import (
    _is_conjugate,
    rho_conjugate,
    rho_orbit,
    rho_partition,
)


@functools.cache
def _inventory(spec: str):
    return enumerate_hgs(build_group(spec))


# ---------------------------------------------------------------------------
# Example family builders


def metacyclic_base_structure(G: FiniteGroup) -> RegularSubgroup:
    """The cyclic-type structure generated by lambda(s) rho(t).

    G.spec.params is (p, q, d), with s at index q and t at index 1.
    """
    _, q, _ = G.spec.params
    gen = _compose(lambda_embed(G, q), rho_embed(G, 1))
    return certify(G, generated_perm_group([gen]))


def metacyclic_cyclic_family(G: FiniteGroup) -> list:
    """Members generated by lambda(s) rho(s^{i(1-d)} t), one per i."""
    p, q, d = G.spec.params
    out = []
    for i in range(p):
        e = (i * (1 - d)) % p
        u = q * e + 1
        gen = _compose(lambda_embed(G, q), rho_embed(G, u))
        out.append(certify(G, generated_perm_group([gen])))
    return out


def metacyclic_sibling_family(G: FiniteGroup) -> list:
    """Members generated by lambda(s) and x -> t x (s^k t), one per k.

    The second generator pairs left translation by t with right
    multiplication by s^k t itself, so the inverse index is handed to
    rho_embed; using s^k t there instead would leave a point fixed.
    """
    p, q, _ = G.spec.params
    out = []
    for k in range(p):
        u = q * k + 1
        mixed = _compose(lambda_embed(G, 1), rho_embed(G, G.inverse[u]))
        gens = [lambda_embed(G, q), mixed]
        out.append(certify(G, generated_perm_group(gens)))
    return out


def dihedral_index(n: int, i: int, j: int) -> int:
    return 2 * (i % n) + (j % 2)


def dihedral_two_generator_family(n: int) -> tuple:
    """(G, members): N_k generated by lambda(r) rho(r^{2k} s) and lambda(s).

    The list has one entry per k in range(n // 2).  The rotation r^{n/2} is
    central for every even n; when n/2 is also even, the (1 + n/2)-th power
    of the generator of N_k is the generator of N_{k+n/4}, so entries repeat
    and only n/4 of them are distinct.
    """
    G = build_group(f"dihedral:{n}")
    members = []
    for k in range(n // 2):
        a = _compose(lambda_embed(G, 2), rho_embed(G, dihedral_index(n, 2 * k, 1)))
        b = lambda_embed(G, 1)
        members.append(certify(G, generated_perm_group([a, b])))
    return G, members


def dihedral_mu(n: int, k: int) -> tuple:
    """mu_k sends r^i s^j to r^{i+(-1)^{i+j+k}} s^j."""
    images = [0] * (2 * n)
    for i in range(n):
        for j in range(2):
            e = (i + (-1) ** ((i + j + k) % 2)) % n
            images[dihedral_index(n, i, j)] = dihedral_index(n, e, j)
    return tuple(images)


def dihedral_opposite_generators(G: FiniteGroup, n: int, k: int) -> frozenset:
    """The subgroup generated by rho(r^{2k} s) and mu_k, as an element set."""
    gens = [rho_embed(G, dihedral_index(n, 2 * k, 1)), dihedral_mu(n, k)]
    return generated_perm_group(gens).element_set


def dihedral_fpf_pair(G: FiniteGroup, n: int, k: int) -> tuple:
    """f1 = identity, f2 sends r^i s^j to (r^{2k} s)^i."""
    m = 2 * n
    f1 = GroupHom(G, G, range(m))
    w = dihedral_index(n, 2 * k, 1)
    images = [0] * m
    for i in range(n):
        acc = 0
        for _ in range(i):
            acc = G.table[acc][w]
        images[dihedral_index(n, i, 0)] = acc
        images[dihedral_index(n, i, 1)] = acc
    return f1, GroupHom(G, G, images)


# ---------------------------------------------------------------------------
# Checks


def check_metacyclic_cyclic_family() -> Tuple[bool, str]:
    G = build_group("metacyclic:7:3:2")
    base = metacyclic_base_structure(G)
    orbit = rho_orbit(base)
    family = metacyclic_cyclic_family(G)
    if orbit.size != 7:
        return False, f"orbit size {orbit.size}, expected 7"
    if set(orbit.members) != set(family):
        return False, "orbit members do not match the generator formula"
    if orbit.stabilizer.elements != (0, 1, 2):
        return False, f"stabilizer {orbit.stabilizer.elements}, expected (0, 1, 2)"
    filtered = enumerate_hgs(G, type_filter=parse_spec("cyclic:21"))
    if set(filtered.structures) != set(family):
        return False, "cyclic-type enumeration does not equal the family"
    return True, "orbit of 7, stabilizer of order 3, enumeration agrees"


def check_dihedral_family() -> Tuple[bool, str]:
    details = []
    for n in (4, 6):
        G, members = dihedral_two_generator_family(n)
        distinct = len(set(members))
        orbit = rho_orbit(members[0])
        # r^{n/2} is central, so lambda and rho agree on it; when n/2 is
        # even this identifies N_k with N_{k+n/4}, leaving n/4 members.
        expected = n // 4 if n % 4 == 0 else n // 2
        if distinct != expected or orbit.size != expected:
            return False, (
                f"n={n}: {distinct} distinct members, orbit {orbit.size}, "
                f"expected {expected}"
            )
        for k in range(n // 2):
            want = dihedral_opposite_generators(G, n, k)
            if frozenset(opposite(members[k]).eta) != want:
                return False, f"n={n} k={k}: opposite generator formula failed"
        details.append(f"n={n}: {distinct} distinct, opposites match")
    return True, "; ".join(details)


def check_abelian_degeneration() -> Tuple[bool, str]:
    specs = ["cyclic:4", "cyclic:6", "cyclic:8", "cyclic:9",
             "elemab:2:2", "product:cyclic:2,cyclic:4", "elemab:3:2"]
    total = 0
    for spec in specs:
        inv = _inventory(spec)
        for S in inv.structures:
            orb = rho_orbit(S)
            if orb.size != 1:
                return False, f"{spec}: structure with orbit size {orb.size}"
            total += 1
    return True, f"all {total} structures across {len(specs)} groups are fixed"


def check_oracle_equivalence() -> Tuple[bool, str]:
    count = 0
    for order in range(1, 9):
        for spec in catalog_specs(order):
            text = str(spec)
            fast = set(_inventory(text).structures)
            slow = set(brute_force_inventory(build_group(spec)).structures)
            if fast != slow:
                return False, f"{spec}: holomorph search disagrees with brute force"
            count += len(fast)
    return True, f"{count} structures agree across all catalog groups of order <= 8"


def _brace_coherent(G: FiniteGroup, S: RegularSubgroup) -> Optional[str]:
    B = brace_from_subgroup(S)
    orbit = rho_orbit(S)
    stab = inner_stabilizer(B)
    if orbit.size * len(stab.elements) != G.order:
        return "orbit size is not |G| / |inner stabilizer|"
    fixed_all = True
    for g in range(G.order):
        crit = rho_fix_criteria(B, g)
        if len(set(crit)) != 1:
            return f"fix criteria disagree at g={g}: {crit}"
        direct = _is_conjugate(S, g, S)
        if crit[0] != direct:
            return f"criteria contradict direct conjugation at g={g}"
        fixed_all = fixed_all and direct
    if is_two_sided(B) != fixed_all:
        return "two-sidedness does not match translation-normalization"
    if not mixed_inverse_identity(B):
        return "mixed inverse identity failed"
    ybe_map(B)  # raises on bijectivity or braid failure
    return None


def check_brace_coherence() -> Tuple[bool, str]:
    count = 0
    for order in range(1, 13):
        for spec in catalog_specs(order):
            G = build_group(spec)
            for S in _inventory(str(spec)).structures:
                problem = _brace_coherent(G, S)
                if problem:
                    return False, f"{spec}: {problem}"
                count += 1
    return True, f"{count} braces coherent through order 12"


def _opposite_transport_failure(structures) -> Optional[int]:
    """The first g at which taking the opposite fails to commute with
    conjugating by rho(g), as opposite_conjugate_commute decides it, or
    None; each opposite is built once per element set."""
    opp = functools.cache(opposite)
    for S in structures:
        for g in range(S.group.order):
            if not _is_conjugate(opp(S), g, opp(rho_conjugate(S, g))):
                return g
    return None


def check_opposite_transport() -> Tuple[bool, str]:
    count = 0
    for order in range(1, 13):
        for spec in catalog_specs(order):
            structures = _inventory(str(spec)).structures
            g = _opposite_transport_failure(structures)
            if g is not None:
                return False, f"{spec}: failed at g={g}"
            count += len(structures)
    G = build_group("metacyclic:7:3:2")
    members = rho_orbit(metacyclic_base_structure(G)).members
    g = _opposite_transport_failure(members)
    if g is not None:
        return False, f"metacyclic orbit member failed at g={g}"
    count += len(members)
    return True, f"{count} structures commute with opposite under conjugation"


def check_metacyclic_sibling_family() -> Tuple[bool, str]:
    G = build_group("metacyclic:7:3:2")
    p, q, d = G.spec.params
    family = metacyclic_sibling_family(G)
    if len(set(family)) != 7:
        return False, f"only {len(set(family))} distinct members"
    for k, N in enumerate(family):
        if str(type_of(N)) != "metacyclic:7:3:2":
            return False, f"member {k} is not of metacyclic type"
        # conjugation by rho(t) multiplies the index by d, so only the
        # k = 0 member is fixed by it
        if not _is_conjugate(N, 1, family[(d * k) % p]):
            return False, f"rho(t) does not send member {k} to member dk"
        if not _is_conjugate(N, q, family[(k + 1 - d) % p]):
            return False, f"rho(s) does not shift member {k} by 1-d"
    orbit = rho_orbit(family[0])
    if set(orbit.members) != set(family):
        return False, "the family is not a single conjugation orbit"
    if orbit.stabilizer.elements != (0, 1, 2):
        return False, f"stabilizer {orbit.stabilizer.elements}, expected (0, 1, 2)"
    opps = {opposite(N) for N in family}
    if len(opps) != 7 or opps & set(family):
        return False, "opposites are not a disjoint family of 7"
    if set(rho_orbit(opposite(family[0])).members) != opps:
        return False, "opposites do not form a single orbit"
    return True, "a 7-member orbit with index actions k -> dk and k -> k+1-d"


def _abelian_transport_exhaustive(G: FiniteGroup) -> Optional[str]:
    """Set-level transport for every abelian map and every g."""
    maps = abelian_maps(G)
    n = G.order
    families = {am.images: hgs_from_abelian_map(am) for am in maps}
    inner = [inner_automorphism(G, g).images for g in range(n)]
    for am in maps:
        probes = families[am.images].generators
        for g in range(n):
            phi, phi_inv = inner[g], inner[G.inverse[g]]
            expected = families.get(_conjugate(am.images, phi, phi_inv))
            if expected is None:
                return f"conjugated map left the family at g={g}"
            # stability makes conjugation by rho(g) equal conjugation by
            # the inner automorphism of g; generators decide, as in certify
            if _escape([(phi, phi_inv)], probes, expected) is not None:
                return f"transport failed for map {am.images[:4]}..., g={g}"
    return None


def check_construction_transports() -> Tuple[bool, str]:
    # embeddings: metacyclic base + a nonabelian dihedral structure
    G = build_group("metacyclic:7:3:2")
    base = metacyclic_base_structure(G)
    emb = to_hol_embedding(base)
    if not all(embedding_conjugation_check(emb, g) for g in range(21)):
        return False, "embedding conjugation failed on the metacyclic structure"
    D4, members4 = dihedral_two_generator_family(4)
    emb4 = to_hol_embedding(members4[0])
    if not all(embedding_conjugation_check(emb4, g) for g in range(8)):
        return False, "embedding conjugation failed on the dihedral structure"
    # fixed point free pairs reproduce the dihedral family, then transport
    for n in (4, 6):
        Dn, members = dihedral_two_generator_family(n)
        for k in range(n // 2):
            f1, f2 = dihedral_fpf_pair(Dn, n, k)
            N = hgs_from_fpf(f1, f2)
            if N != members[k]:
                return False, f"fpf pair n={n} k={k} missed the family"
            if not all(fpf_transport_check(f1, f2, g) for g in range(2 * n)):
                return False, f"fpf transport failed at n={n} k={k}"
    # abelian maps: exhaustive on sym(3) via the reference check, then sym(5)
    S3 = build_group("sym:3")
    for am in abelian_maps(S3):
        if not all(abelian_transport_check(am, g) for g in range(6)):
            return False, "abelian transport failed on sym:3"
    problem = _abelian_transport_exhaustive(build_group("sym:5"))
    if problem:
        return False, problem
    # induced structure on the metacyclic group
    T = subgroup_closure(G, [1])
    S_ = subgroup_closure(G, [3])
    (A,) = coset_stable_regular_subgroups(G, T)
    t_group, _ = T.as_group()
    B = PermGroup([tuple(t_group.table[u]) for u in range(len(T.elements))])
    inp = induced_input(G, T, S_, A, B)
    N = induced_hgs(inp)
    if N not in rho_orbit(base):
        return False, "induced structure is not in the cyclic-type orbit"
    if not all(induced_transport_check(inp, g) for g in range(21)):
        return False, "induced transport failed"
    return True, "embedding, fpf, abelian and induced transports all hold"


def check_s5_abelian_maps() -> Tuple[bool, str]:
    G = build_group("sym:5")
    maps = abelian_maps(G)
    if len(maps) != 26:
        return False, f"{len(maps)} abelian maps, expected 26"
    structures = [hgs_from_abelian_map(am) for am in maps]
    if len(set(structures)) != 26:
        return False, "structures from distinct maps coincide"
    classes = rho_partition(structures)
    sizes = sorted(len(c) for c in classes)
    if sizes != [1, 10, 15]:
        return False, f"partition sizes {sizes}, expected [1, 10, 15]"
    return True, "26 distinct structures; orbit sizes 1, 10, 15"


def check_correspondence_lattices() -> Tuple[bool, str]:
    count = 0
    for order in range(1, 13):
        for spec in catalog_specs(order):
            for S in _inventory(str(spec)).structures:
                for g in range(S.group.order):
                    if not lattice_transport_check(S, g):
                        return False, f"{spec}: lattice transport failed at g={g}"
                count += 1
    # the metacyclic family: 4 entries each, order-3 parts distinct, covering
    G = build_group("metacyclic:7:3:2")
    members = rho_orbit(metacyclic_base_structure(G)).members
    q_subs = set()
    for M in members:
        lat = realizable_lattice(M)
        orders = sorted(len(u.elements) for _, u in lat)
        if orders != [1, 3, 7, 21]:
            return False, f"metacyclic lattice orders {orders}"
        (u3,) = [u for _, u in lat if len(u.elements) == 3]
        q_subs.add(u3.elements)
        for g in range(21):
            if not lattice_transport_check(M, g):
                return False, "metacyclic lattice transport failed"
        count += 1
    all_q = {s.elements for s in all_subgroups(G) if len(s.elements) == 3}
    if q_subs != all_q:
        return False, "order-3 fixed subgroups do not cover all candidates"
    return True, f"{count} lattices verified; metacyclic family covers all 7"


def check_brace_comparison_census() -> Tuple[bool, str]:
    """Report how often rho-conjugate structures give the same brace versus
    merely isomorphic ones; the consistency flags must always hold."""
    equal = iso_only = neither = 0
    for spec in ("sym:3", "dihedral:4", "quaternion:8"):
        inv = _inventory(spec)
        index = {s: i for i, s in enumerate(inv)}
        for orbit in rho_partition(inv):
            ids = sorted(index[m] for m in orbit.members)
            for i, j in combinations(ids, 2):
                cmpres = compare_braces(inv[i], inv[j])
                if not cmpres.consistent:
                    return False, f"{spec}: inconsistent comparison criteria"
                if cmpres.equal:
                    equal += 1
                elif cmpres.isomorphic:
                    iso_only += 1
                else:
                    neither += 1
    return True, (
        f"conjugate pairs: {equal} equal, {iso_only} isomorphic-only, "
        f"{neither} unrelated braces"
    )


@dataclass
class CheckResult:
    check_id: str
    description: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self, timing: bool = False) -> dict:
        payload = {
            "id": self.check_id,
            "description": self.description,
            "passed": self.passed,
            "detail": self.detail,
        }
        if timing:
            payload["seconds"] = round(self.seconds, 3)
        return payload


CHECKS: List[Tuple[str, str, Callable[[], Tuple[bool, str]]]] = [
    ("metacyclic-cyclic-family",
     "orbit, stabilizer and enumeration of the cyclic-type metacyclic family",
     check_metacyclic_cyclic_family),
    ("dihedral-family",
     "two-generator dihedral family: conjugate count and opposite generators",
     check_dihedral_family),
    ("abelian-degeneration",
     "every structure on a small abelian group is conjugation-fixed",
     check_abelian_degeneration),
    ("oracle-equivalence",
     "holomorph enumeration equals brute force through order 8",
     check_oracle_equivalence),
    ("brace-coherence",
     "fix criteria, orbit counting, two-sidedness, inverses and braid checks",
     check_brace_coherence),
    ("opposite-transport",
     "opposite and conjugation commute through order 12 and on the family",
     check_opposite_transport),
    ("metacyclic-sibling-family",
     "the metacyclic-type family of 7 with its opposite orbit",
     check_metacyclic_sibling_family),
    ("construction-transports",
     "embedding, fixed-point-free, abelian-map and induced transports",
     check_construction_transports),
    ("s5-abelian-maps",
     "26 abelian maps on sym:5 with orbit sizes 1, 10 and 15",
     check_s5_abelian_maps),
    ("correspondence-lattices",
     "stable-subgroup lattices, their sizes and conjugation transport",
     check_correspondence_lattices),
    ("brace-comparison-census",
     "same-brace versus isomorphic-brace statistics over conjugate pairs",
     check_brace_comparison_census),
]


def check_ids() -> list:
    return [check_id for check_id, _, _ in CHECKS]


def run_checks(only: Optional[list] = None) -> List[CheckResult]:
    wanted = set(only) if only else None
    if wanted:
        unknown = wanted - set(check_ids())
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    results = []
    for check_id, description, fn in CHECKS:
        if wanted and check_id not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except HgsError as exc:
            passed, detail = False, f"error: {exc}"
        results.append(
            CheckResult(check_id, description, passed,
                        detail, time.perf_counter() - start)
        )
    return results
