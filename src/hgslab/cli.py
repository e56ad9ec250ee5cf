"""Command line front door.

Verbs: group, hgs, brace, construct, correspondence, verify.  Every verb
emits either a deterministic text report or canonical JSON (`--json`); JSON
output is byte-identical across runs, so wall-clock timings only appear
when `--timing` is passed.  Exit codes: 0 success, 1 usage error, 2
computation error, 3 verification check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import List, Optional, Tuple

from . import __version__
from .braces import brace_from_subgroup, compare_braces, inner_stabilizer, is_two_sided
from .constructions import (
    abelian_maps,
    coset_stable_regular_subgroups,
    hgs_from_abelian_map,
    hgs_from_fpf,
    induced_hgs,
    induced_input,
)
from .correspondence import lattice_transport_check, realizable_lattice
from .errors import HgsError, UnknownType, UsageError
from .groups import FiniteGroup, GroupHom, build_group, parse_spec, subgroup_closure
from .hgs import (
    RegularSubgroup,
    certify,
    enumerate_hgs,
    lambda_structure,
    opposite,
    rho_structure,
    type_of,
)
from .perms import PermGroup, generated_perm_group
from .rho import rho_orbit, rho_partition
from .verify import check_ids, run_checks, CHECKS

SCHEMA = "hgslab.report/1"


class _Parser(argparse.ArgumentParser):
    """Argparse variant that raises instead of exiting on bad input."""

    def error(self, message: str):
        raise UsageError(message)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds in the report")


def build_parser() -> _Parser:
    parser = _Parser(prog="hgslab",
                     description="Hopf-Galois structure workbench")
    parser.add_argument("--version", action="version",
                        version=f"hgslab {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_group = sub.add_parser("group", parents=[], help="describe a group")
    p_group.add_argument("spec", help="group spec, e.g. metacyclic:7:3:2")
    _common_flags(p_group)

    p_hgs = sub.add_parser("hgs", help="enumerate and inspect structures")
    hsub = p_hgs.add_subparsers(dest="action", required=True)
    p_enum = hsub.add_parser("enumerate", help="list all structures")
    p_enum.add_argument("--group", required=True)
    p_enum.add_argument("--type", default=None,
                        help="restrict to one structure type")
    _common_flags(p_enum)
    p_orb = hsub.add_parser("rho-orbits",
                            help="partition the inventory into orbits")
    p_orb.add_argument("--group", required=True)
    p_orb.add_argument("--type", default=None)
    _common_flags(p_orb)
    p_show = hsub.add_parser("show", help="inspect one structure")
    p_show.add_argument("--group", required=True)
    p_show.add_argument("--structure", required=True,
                        help="lambda | rho | index:<i> | hash:<prefix> "
                             "| gens:<imgs;imgs>")
    _common_flags(p_show)

    p_brace = sub.add_parser("brace", help="skew brace of a structure")
    p_brace.add_argument("--group", required=True)
    p_brace.add_argument("--structure", required=True)
    p_brace.add_argument("--compare", default=None,
                         help="second structure reference to compare with")
    p_brace.add_argument("--tables", action="store_true",
                         help="include the full multiplication tables")
    _common_flags(p_brace)

    p_con = sub.add_parser("construct", help="build structures from data")
    csub = p_con.add_subparsers(dest="action", required=True)
    p_ab = csub.add_parser("abelian-maps",
                           help="all abelian-image endomorphisms")
    p_ab.add_argument("--group", required=True)
    _common_flags(p_ab)
    p_fpf = csub.add_parser("fpf",
                            help="structure from a fixed point free pair")
    p_fpf.add_argument("--group", required=True)
    p_fpf.add_argument("--f1", required=True,
                       help="comma-separated endomorphism images")
    p_fpf.add_argument("--f2", required=True)
    _common_flags(p_fpf)
    p_ind = csub.add_parser("induced",
                            help="induced structures from a factorization")
    p_ind.add_argument("--group", required=True)
    p_ind.add_argument("--t-gens", required=True,
                       help="comma-separated generators of the subgroup T")
    p_ind.add_argument("--s-gens", required=True,
                       help="comma-separated generators of the complement S")
    _common_flags(p_ind)

    p_cor = sub.add_parser("correspondence",
                           help="stable subgroups and fixed subgroups")
    p_cor.add_argument("--group", required=True)
    p_cor.add_argument("--structure", required=True)
    p_cor.add_argument("--transport", type=int, default=None,
                       help="also verify transport under this group element")
    _common_flags(p_cor)

    p_ver = sub.add_parser("verify", help="run the named check suite")
    p_ver.add_argument("--only", default=None,
                       help="comma-separated check ids")
    p_ver.add_argument("--list", action="store_true", dest="list_checks",
                       help="list check ids and exit")
    _common_flags(p_ver)

    return parser


# ---------------------------------------------------------------------------
# Structure references


def _parse_int_list(text: str, what: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers: {text!r}")


def _inventory_once(G: FiniteGroup):
    """A callable returning G's inventory, kept from its first success."""
    return functools.cache(lambda: enumerate_hgs(G))


def resolve_structure(G: FiniteGroup, ref: str, inventory=None) -> RegularSubgroup:
    """Resolve lambda | rho | index:<i> | hash:<prefix> | gens:<imgs;imgs>;
    index: and hash: call inventory (default: enumerate G) for G's inventory."""
    inventory = inventory or _inventory_once(G)
    if ref == "lambda":
        return lambda_structure(G)
    if ref == "rho":
        return rho_structure(G)
    if ref.startswith("index:"):
        try:
            i = int(ref[len("index:"):])
        except ValueError:
            raise UsageError(f"bad structure index in {ref!r}")
        inv = inventory()
        if not 0 <= i < len(inv):
            raise UsageError(
                f"index {i} out of range; the inventory has {len(inv)} entries"
            )
        return inv[i]
    if ref.startswith("hash:"):
        prefix = ref[len("hash:"):]
        inv = inventory()
        hits = [s for s in inv if s.canonical_hash().startswith(prefix)]
        if not hits:
            raise UsageError(f"no structure hash starts with {prefix!r}")
        if len(hits) > 1:
            raise UsageError(f"hash prefix {prefix!r} is ambiguous")
        return hits[0]
    if ref.startswith("gens:"):
        body = ref[len("gens:"):]
        gens = []
        for chunk in body.split(";"):
            images = _parse_int_list(chunk, "generator images")
            if sorted(images) != list(range(G.order)):
                raise UsageError(
                    f"generator {chunk!r} is not a permutation of 0..{G.order - 1}"
                )
            gens.append(images)
        return certify(G, generated_perm_group(gens))
    raise UsageError(f"unknown structure reference {ref!r}")


def _inventory_index(inventory) -> dict:
    """{structure: index} over inventory(), or {} when it cannot be built."""
    try:
        inv = inventory()
    except HgsError:
        return {}
    return {s: i for i, s in enumerate(inv)}


def _type_or_none(N: RegularSubgroup) -> Optional[str]:
    try:
        return str(type_of(N))
    except (UnknownType, HgsError):
        return None


# ---------------------------------------------------------------------------
# Verb handlers: each returns (payload, text_lines)


def cmd_group(args) -> Tuple[dict, List[str]]:
    G = build_group(args.spec)
    n = G.order
    center = G.center()
    orders = {}
    for k in G.element_orders:
        orders[k] = orders.get(k, 0) + 1
    payload = {
        "order": n,
        "abelian": G.is_abelian,
        "center_order": len(center),
        "element_order_histogram": {str(k): v for k, v in sorted(orders.items())},
        "generators": list(G.generating_set()),
    }
    lines = [f"group {G.spec}",
             f"  order: {n}",
             f"  abelian: {payload['abelian']}",
             f"  center order: {len(center)}",
             f"  element orders: " + ", ".join(
                 f"{v}x order {k}" for k, v in sorted(orders.items())),
             f"  generators: {payload['generators']}"]
    return payload, lines


def _inventory_for(args):
    G = build_group(args.group)
    tf = parse_spec(args.type) if getattr(args, "type", None) else None
    return G, enumerate_hgs(G, type_filter=tf)


def cmd_hgs_enumerate(args) -> Tuple[dict, List[str]]:
    G, inv = _inventory_for(args)
    payload = inv.to_json()
    lines = [f"{len(inv)} structures on {G.spec} (complete={inv.complete})"]
    for i, s in enumerate(inv):
        lines.append(
            f"  [{i}] type={_type_or_none(s)} hash={s.canonical_hash()}"
        )
    return payload, lines


def cmd_hgs_rho_orbits(args) -> Tuple[dict, List[str]]:
    G, inv = _inventory_for(args)
    index = {s: i for i, s in enumerate(inv)}
    orbits = rho_partition(inv)
    rows = []
    for orb in orbits:
        members = sorted(index[m] for m in orb.members)
        rows.append({
            "representative": members[0],
            "size": len(orb),
            "stabilizer_order": len(orb.stabilizer.elements),
            "members": members,
        })
    rows.sort(key=lambda r: r["representative"])
    payload = {
        "group": str(G.spec),
        "complete": inv.complete,
        "structure_count": len(inv),
        "orbit_count": len(rows),
        "orbits": rows,
    }
    lines = [f"{len(rows)} orbits over {len(inv)} structures on {G.spec}"]
    for r in rows:
        lines.append(
            f"  orbit at [{r['representative']}]: size={r['size']} "
            f"stabilizer={r['stabilizer_order']} members={r['members']}"
        )
    return payload, lines


def cmd_hgs_show(args) -> Tuple[dict, List[str]]:
    G = build_group(args.group)
    inventory = _inventory_once(G)
    N = resolve_structure(G, args.structure, inventory)
    orb = rho_orbit(N)
    opp = opposite(N)
    payload = {
        "group": str(G.spec),
        "structure": N.to_json(),
        "type": _type_or_none(N),
        "abelian": N.is_abelian(),
        "index": _inventory_index(inventory).get(N),
        "orbit_size": orb.size,
        "stabilizer_order": len(orb.stabilizer.elements),
        "translation_normalized": orb.size == 1,
        "opposite_hash": opp.canonical_hash(),
        "self_opposite": opp == N,
    }
    lines = [f"structure on {G.spec}",
             f"  hash: {N.canonical_hash()}",
             f"  type: {payload['type']}",
             f"  abelian: {payload['abelian']}",
             f"  inventory index: {payload['index']}",
             f"  orbit size: {orb.size}"
             f" (stabilizer order {payload['stabilizer_order']})",
             f"  normalized by all right translations: {orb.size == 1}",
             f"  opposite: hash={payload['opposite_hash']}"
             f" self_opposite={payload['self_opposite']}"]
    return payload, lines


def cmd_brace(args) -> Tuple[dict, List[str]]:
    G = build_group(args.group)
    inventory = _inventory_once(G)
    N = resolve_structure(G, args.structure, inventory)
    B = brace_from_subgroup(N)
    stab = inner_stabilizer(B)
    payload = {
        "group": str(G.spec),
        "structure_hash": N.canonical_hash(),
        "additive_type": _type_or_none(N),
        "two_sided": is_two_sided(B),
        "inner_stabilizer_order": len(stab.elements),
        "inner_stabilizer": list(stab.elements),
    }
    lines = [f"brace of structure {N.canonical_hash()} on {G.spec}",
             f"  additive type: {payload['additive_type']}",
             f"  two-sided: {payload['two_sided']}",
             f"  inner stabilizer: order {len(stab.elements)}"
             f" elements {list(stab.elements)}"]
    if args.tables:
        payload["star"] = [list(row) for row in B.star]
        payload["circ"] = [list(row) for row in B.circ]
        lines.append("  star table:")
        lines.extend(f"    {list(row)}" for row in B.star)
        lines.append("  circ table:")
        lines.extend(f"    {list(row)}" for row in B.circ)
    if args.compare:
        M = resolve_structure(G, args.compare, inventory)
        cmp_res = compare_braces(N, M)
        payload["compare"] = {
            "other_hash": M.canonical_hash(),
            "equal": cmp_res.equal,
            "isomorphic": cmp_res.isomorphic,
            "subgroup_criterion": cmp_res.subgroup_criterion,
            "same_criterion": cmp_res.same_criterion,
            "consistent": cmp_res.consistent,
        }
        lines.append(f"  compared with {M.canonical_hash()}:"
                     f" equal={cmp_res.equal}"
                     f" isomorphic={cmp_res.isomorphic}"
                     f" consistent={cmp_res.consistent}")
    return payload, lines


def cmd_construct_abelian_maps(args) -> Tuple[dict, List[str]]:
    G = build_group(args.group)
    maps = abelian_maps(G)
    structures = [hgs_from_abelian_map(am) for am in maps]
    orbits = rho_partition(structures)
    rows = [{"images": list(am.images), "hash": s.canonical_hash()}
            for am, s in zip(maps, structures)]
    payload = {
        "group": str(G.spec),
        "count": len(maps),
        "maps": rows,
        "orbit_sizes": sorted(len(o) for o in orbits),
    }
    lines = [f"{len(maps)} abelian maps on {G.spec};"
             f" orbit sizes {payload['orbit_sizes']}"]
    for r in rows:
        lines.append(f"  {r['hash']}  images={r['images']}")
    return payload, lines


def cmd_construct_fpf(args) -> Tuple[dict, List[str]]:
    G = build_group(args.group)
    f1 = GroupHom(G, G, _parse_int_list(args.f1, "--f1"))
    f2 = GroupHom(G, G, _parse_int_list(args.f2, "--f2"))
    N = hgs_from_fpf(f1, f2)
    payload = {
        "group": str(G.spec),
        "structure": N.to_json(),
        "type": _type_or_none(N),
        "index": _inventory_index(_inventory_once(G)).get(N),
    }
    lines = [f"fixed point free pair on {G.spec} builds"
             f" hash={N.canonical_hash()} type={payload['type']}"
             f" index={payload['index']}"]
    return payload, lines


def cmd_construct_induced(args) -> Tuple[dict, List[str]]:
    G = build_group(args.group)
    T = subgroup_closure(G, _parse_int_list(args.t_gens, "--t-gens"))
    S = subgroup_closure(G, _parse_int_list(args.s_gens, "--s-gens"))
    a_candidates = coset_stable_regular_subgroups(G, T)
    t_group, t_elems = T.as_group()
    b_inventory = enumerate_hgs(t_group)
    bs = [PermGroup._generated_by(B.eta, B.generators) for B in b_inventory]
    built = [
        (ai, bi, induced_hgs(induced_input(G, T, S, A, B)))
        for ai, A in enumerate(a_candidates)
        for bi, B in enumerate(bs)
    ]
    index = _inventory_index(_inventory_once(G)) if built else {}
    rows = [
        {
            "quotient_choice": ai,
            "subgroup_choice": bi,
            "hash": N.canonical_hash(),
            "type": _type_or_none(N),
            "index": index.get(N),
        }
        for ai, bi, N in built
    ]
    payload = {
        "group": str(G.spec),
        "t_order": len(t_elems),
        "s_order": len(S.elements),
        "quotient_structures": len(a_candidates),
        "subgroup_structures": len(b_inventory),
        "induced": rows,
    }
    lines = [f"{len(rows)} induced structures on {G.spec}"
             f" from {len(a_candidates)} quotient-level and"
             f" {len(b_inventory)} subgroup-level choices"]
    for r in rows:
        lines.append(f"  A[{r['quotient_choice']}] B[{r['subgroup_choice']}]"
                     f" -> hash={r['hash']} type={r['type']}"
                     f" index={r['index']}")
    return payload, lines


def cmd_correspondence(args) -> Tuple[dict, List[str]]:
    G = build_group(args.group)
    N = resolve_structure(G, args.structure)
    lat = realizable_lattice(N)
    entries = []
    for P, U in lat:
        entries.append({
            "stable_order": P.order,
            "stable_hash": P.canonical_hash(),
            "fixed_subgroup": list(U.elements),
        })
    payload = {
        "group": str(G.spec),
        "structure_hash": N.canonical_hash(),
        "entries": entries,
    }
    lines = [f"{len(entries)} stable subgroups of {N.canonical_hash()}"
             f" on {G.spec}"]
    for e in entries:
        lines.append(f"  order {e['stable_order']:>3}"
                     f" hash={e['stable_hash']}"
                     f" fixes {e['fixed_subgroup']}")
    if args.transport is not None:
        g = args.transport
        if not 0 <= g < G.order:
            raise UsageError(f"--transport element {g} outside 0..{G.order - 1}")
        holds = lattice_transport_check(N, g)
        payload["transport"] = {"element": g, "holds": holds}
        lines.append(f"  transport under element {g}: {holds}")
    return payload, lines


def cmd_verify(args) -> Tuple[dict, List[str], bool]:
    if args.list_checks:
        ids = check_ids()
        payload = {"checks": [
            {"id": cid, "description": desc} for cid, desc, _ in CHECKS
        ]}
        lines = [f"{cid}: {desc}" for cid, desc, _ in CHECKS]
        return payload, lines, True
    only = None
    if args.only:
        only = [tok.strip() for tok in args.only.split(",") if tok.strip()]
    try:
        results = run_checks(only=only)
    except ValueError as exc:
        raise UsageError(str(exc))
    all_pass = all(r.passed for r in results)
    payload = {
        "checks": [r.to_json(timing=args.timing) for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        suffix = f"  ({r.seconds:.2f}s)" if args.timing else ""
        lines.append(f"{mark} {r.check_id}: {r.detail}{suffix}")
    lines.append(f"{payload['passed']} passed, {payload['failed']} failed")
    return payload, lines, all_pass


_HANDLERS = {
    ("group", None): cmd_group,
    ("hgs", "enumerate"): cmd_hgs_enumerate,
    ("hgs", "rho-orbits"): cmd_hgs_rho_orbits,
    ("hgs", "show"): cmd_hgs_show,
    ("brace", None): cmd_brace,
    ("construct", "abelian-maps"): cmd_construct_abelian_maps,
    ("construct", "fpf"): cmd_construct_fpf,
    ("construct", "induced"): cmd_construct_induced,
    ("correspondence", None): cmd_correspondence,
}


def _emit(args, command: str, payload: dict, lines: List[str],
          seconds: float) -> None:
    if args.json:
        report = {
            "schema": SCHEMA,
            "version": __version__,
            "command": command,
            "payload": payload,
        }
        if args.timing:
            report["seconds"] = round(seconds, 3)
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        if args.timing:
            print(f"({seconds:.2f}s)")
    sys.stdout.flush()  # a closed pipe raises here, inside main


# exit code when stdout is closed before the report is written: 128 + SIGPIPE,
# what a shell reports for a process that SIGPIPE ended
EXIT_CLOSED_STDOUT = 141


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        verb = args.verb
        action = getattr(args, "action", None)
        command = verb if action is None else f"{verb} {action}"
        start = time.perf_counter()
        if verb == "verify":
            payload, lines, ok = cmd_verify(args)
            _emit(args, command, payload, lines, time.perf_counter() - start)
            return 0 if ok else 3
        handler = _HANDLERS[(verb, action)]
        payload, lines = handler(args)
        _emit(args, command, payload, lines, time.perf_counter() - start)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (hgslab ... | head); what is left unwritten
        # goes to devnull, so the flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
