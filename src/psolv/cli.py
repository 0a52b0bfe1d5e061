"""Command line front end.

Exit codes: 0 when every emitted verdict is consistent, 2 when at least one
is a finding (a proved statement failing on a concrete instance), 1 for
usage or input errors. InternalMismatch is never caught here: it means a
bug in this package and should crash loudly.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .battery import run_catalog
from .catalog import (
    DEFAULT_CATALOG,
    Report,
    build_group,
    canonical_recipe,
    emit_group,
    emit_report,
    parse_group,
)
from .errors import (
    GroupParseError,
    InternalMismatch,
    PsolvError,
    UnsupportedParameters,
)
from .filtrations import (
    Filtration,
    _ekr_pieces,
    compute_ekr,
    pf_embedded_search,
    verify_potent_filtration,
)
from .group import PermutationGroup, trivial_group
from .perm import parse_cycles
from .series import gamma, o_p, o_pprime, sylow
from .subgroups import is_subgroup
from .theorems import (
    analyze_group,
    check_O24_inclusion,
    hall_higman_bound,
    question7_scan,
    verify_lemma8,
    verify_main,
    verify_prop3,
    verify_prop4,
    verify_thm6,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for findings here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_group(args):
    if args.recipe is not None:
        return build_group(args.recipe), canonical_recipe(args.recipe)
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise GroupParseError(
                f"the document is not UTF-8: {e.reason} at byte {e.start}"
            ) from None
    return parse_group(text), f"file:{args.file}"


def _index(text: str, token: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UnsupportedParameters(
            f"bad index {text!r} in subgroup token {token!r}") from None


def resolve_subgroup(token: str, G: PermutationGroup,
                     p: int) -> PermutationGroup:
    """Named subgroups usable anywhere the CLI takes one.

    trivial, full, V4, sylow, op, opprime, gamma:i, ekr:k:r, and
    gens:<cycles>;<cycles>. gamma and ekr are computed on the Sylow
    p-subgroup; V4 is the Klein group on the first four points and must
    actually lie inside the group.
    """
    t = token.strip()
    if t == "trivial":
        return trivial_group(G.degree)
    if t == "full":
        return G
    if t == "sylow":
        return sylow(G, p)
    if t == "op":
        return o_p(G, p)
    if t == "opprime":
        return o_pprime(G, p)
    if t == "V4":
        if G.degree < 4:
            raise UnsupportedParameters(
                "V4 needs a group on at least 4 points")
        gens = [parse_cycles("(1 2)(3 4)", G.degree),
                parse_cycles("(1 3)(2 4)", G.degree)]
        H = PermutationGroup(G.degree, gens)
        if not is_subgroup(H, G):
            raise UnsupportedParameters(
                "the Klein group on points 1-4 does not lie in this group")
        return H
    if t.startswith("gamma:"):
        return gamma(sylow(G, p), _index(t.split(":", 1)[1], t))
    if t.startswith("ekr:"):
        parts = t.split(":")
        if len(parts) != 3:
            raise UnsupportedParameters("ekr takes two indices, ekr:k:r")
        return compute_ekr(sylow(G, p), p, _index(parts[1], t),
                           _index(parts[2], t))
    if t.startswith("gens:"):
        body = t[len("gens:"):]
        try:
            gens = [parse_cycles(part, G.degree)
                    for part in body.split(";") if part.strip()]
        except ValueError as e:
            raise UnsupportedParameters(
                f"bad subgroup token {t!r}: {e}") from None
        if not gens:
            raise UnsupportedParameters("gens: needs at least one cycle "
                                        "expression")
        H = PermutationGroup(G.degree, gens)
        if not is_subgroup(H, G):
            raise UnsupportedParameters(
                "the listed generators do not all lie in this group")
        return H
    raise UnsupportedParameters(f"unknown subgroup token {t!r}")


def _emit_reports(args, reports):
    sys.stdout.write(emit_report(reports, args.format))
    return 2 if any(r.verdict.get("is_finding") for r in reports) else 0


def _emit_verdicts(args, gid, verdicts):
    return _emit_reports(args, [Report.of(gid, v) for v in verdicts])


def _emit_object(args, payload, text_lines):
    if args.format == "structured":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")
    return 0


def _cmd_analyze(args):
    G, gid = _load_group(args)
    return _emit_verdicts(args, gid, [
        analyze_group(G, args.p)])


def _cmd_ekr(args):
    G, gid = _load_group(args)
    P = sylow(G, args.p)
    E, pieces = _ekr_pieces(P, args.p, args.k, args.r)
    payload = {
        "group_id": gid,
        "p": args.p,
        "k": args.k,
        "r": args.r,
        "sylow_order": P.order(),
        "order": E.order(),
        "pieces": [{"i": i, "j": j, "order": S.order()}
                   for i, j, S in pieces],
        "group": json.loads(emit_group(E)),
    }
    lines = [f"{gid} | E_({args.k},{args.r}) of the Sylow {args.p}-subgroup: "
             f"order {E.order()}"]
    for i, j, S in pieces:
        lines.append(f"  term i={i} j={j}: order {S.order()}")
    lines.append(f"  generators: "
                 f"{'; '.join(g.cycle_string() for g in E.generators) or '()'}")
    return _emit_object(args, payload, lines)


def _chain(args, G, p):
    P = sylow(G, p)
    terms = tuple(resolve_subgroup(t, G, p) for t in args.term)
    return P, terms


def _cmd_pf_verify(args):
    G, gid = _load_group(args)
    P, terms = _chain(args, G, args.p)
    F = Filtration(P, args.p, args.ell, terms)
    v = verify_potent_filtration(F)
    payload = {"group_id": gid, "filtration": F.to_payload(),
               "verdict": v.to_payload()}
    if v.valid:
        lines = [f"{gid} | chain of type {args.ell}: valid"]
    else:
        w = v.witness.cycle_string() if v.witness is not None else "-"
        lines = [f"{gid} | chain of type {args.ell}: fails condition "
                 f"{v.failed_condition} at term {v.failed_index}, "
                 f"witness {w}"]
    for n in v.notes:
        lines.append(f"  note: {n}")
    return _emit_object(args, payload, lines)


def _cmd_pf_search(args):
    G, gid = _load_group(args)
    P = sylow(G, args.p)
    N = resolve_subgroup(args.normal, G, args.p)
    out = pf_embedded_search(P, args.p, N, args.ell)
    payload = {"group_id": gid, "n_order": N.order(), "p": args.p,
               "ell": args.ell, "outcome": out.to_payload()}
    lines = [f"{gid} | start of a type-{args.ell} chain from a subgroup of "
             f"order {N.order()}: {out.status} ({out.nodes} nodes)"]
    if out.filtration is not None:
        lines.append(f"  term orders: {out.filtration.orders()}")
    for n in out.notes:
        lines.append(f"  note: {n}")
    return _emit_object(args, payload, lines)


def _cmd_verify_length(args):
    G, gid = _load_group(args)
    return _emit_verdicts(args, gid, [args.checker(G, args.p, args.ell)])


def _cmd_verify_prop(args):
    G, gid = _load_group(args)
    P, terms = _chain(args, G, args.p)
    if args.normal is not None:
        N = resolve_subgroup(args.normal, G, args.p)
    elif terms:
        N = terms[0]
    else:
        raise UnsupportedParameters("give --normal or at least one --term")
    F = Filtration(P, args.p, args.p - args.gap, terms)
    return _emit_verdicts(args, gid, [args.checker(G, args.p, N, F)])


def _cmd_verify_lemma8(args):
    G, gid = _load_group(args)
    N = resolve_subgroup(args.normal, G, args.p)
    return _emit_verdicts(args, gid, [verify_lemma8(G, args.p, N, args.l)])


def _cmd_verify_o24(args):
    G, gid = _load_group(args)
    V = resolve_subgroup(args.v, G, args.p)
    M = resolve_subgroup(args.m, G, args.p)
    return _emit_verdicts(args, gid, [
        check_O24_inclusion(G, V, M, args.p, args.r, args.l)])


def _cmd_scan_question7(args):
    G, gid = _load_group(args)
    return _emit_verdicts(args, gid, question7_scan(G, args.p, args.ell))


def _cmd_verify_hall_higman(args):
    G, gid = _load_group(args)
    return _emit_verdicts(args, gid, [hall_higman_bound(G, args.p)])


def _cmd_catalog_list(args):
    for gid in DEFAULT_CATALOG:
        sys.stdout.write(f"{gid}  order {build_group(gid).order()}\n")
    return 0


def _cmd_catalog_run(args):
    return _emit_reports(args, run_catalog(args.p, args.seed, args.only))


def _add_common(sub, group_source=True):
    if group_source:
        src = sub.add_mutually_exclusive_group(required=True)
        src.add_argument("--recipe", help="catalog recipe, e.g. dihedral:4")
        src.add_argument("--file", help="path to a group JSON document")
    sub.add_argument("--p", type=int, required=True, help="the prime")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed of the linear-action sampling; only "
                          "catalog run reads it")
    sub.add_argument("--format", choices=("text", "structured"),
                     default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psolv",
                     description="potent filtrations and p-length checks "
                                 "on finite permutation groups")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("analyze", help="profile a group at a prime")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_analyze)

    sub = commands.add_parser("ekr", help="compute the power-of-lower-"
                                          "central product subgroup E_{k,r}")
    _add_common(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.set_defaults(handler=_cmd_ekr)

    pf = commands.add_parser("pf", help="potent filtration operations")
    pf_sub = pf.add_subparsers(dest="pf_command", required=True)
    sub = pf_sub.add_parser("verify", help="check a chain given term by term")
    _add_common(sub)
    sub.add_argument("--ell", type=int, default=1)
    sub.add_argument("--term", action="append", required=True,
                     help="subgroup token; repeat once per chain term")
    sub.set_defaults(handler=_cmd_pf_verify)
    sub = pf_sub.add_parser("search",
                            help="decide whether a subgroup starts a chain")
    _add_common(sub)
    sub.add_argument("--ell", type=int, default=1)
    sub.add_argument("--normal", required=True, help="subgroup token")
    sub.set_defaults(handler=_cmd_pf_search)

    verify = commands.add_parser("verify", help="check a statement")
    verify_sub = verify.add_subparsers(dest="statement", required=True)
    for name, checker in (("main", verify_main), ("thm6", verify_thm6)):
        sub = verify_sub.add_parser(name)
        _add_common(sub)
        sub.add_argument("--ell", type=int, default=None)
        sub.set_defaults(handler=_cmd_verify_length, checker=checker)
    # the chain's type is p - gap
    for name, checker, gap in (("prop3", verify_prop3, 2),
                               ("prop4", verify_prop4, 1)):
        sub = verify_sub.add_parser(name)
        _add_common(sub)
        sub.add_argument("--normal", default=None,
                         help="chain start; defaults to the first --term")
        sub.add_argument("--term", action="append", required=True)
        sub.set_defaults(handler=_cmd_verify_prop, checker=checker, gap=gap)
    sub = verify_sub.add_parser("lemma8")
    _add_common(sub)
    sub.add_argument("--normal", required=True)
    sub.add_argument("--l", type=int, required=True,
                     help="commutator depth")
    sub.set_defaults(handler=_cmd_verify_lemma8)
    sub = verify_sub.add_parser("o24")
    _add_common(sub)
    sub.add_argument("--v", required=True, help="subgroup token for V")
    sub.add_argument("--m", required=True, help="subgroup token for M")
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.set_defaults(handler=_cmd_verify_o24)
    sub = verify_sub.add_parser("hall-higman")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_hall_higman)

    scan = commands.add_parser("scan", help="sweep a family of instances")
    scan_sub = scan.add_subparsers(dest="scan_command", required=True)
    sub = scan_sub.add_parser("question7")
    _add_common(sub)
    sub.add_argument("--ell", type=int, default=1)
    sub.set_defaults(handler=_cmd_scan_question7)

    catalog = commands.add_parser("catalog", help="built-in group list")
    catalog_sub = catalog.add_subparsers(dest="catalog_command",
                                         required=True)
    sub = catalog_sub.add_parser("list")
    sub.set_defaults(handler=_cmd_catalog_list)
    sub = catalog_sub.add_parser("run", help="run the statement battery")
    _add_common(sub, group_source=False)
    sub.add_argument("--only", default=None,
                     help="only run groups whose id contains this text")
    sub.set_defaults(handler=_cmd_catalog_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's live containers (S8's conjugation maps and classes,
    # 40,320 positions each) are what the cyclic collector would scan;
    # the garbage it would find is a few hundred objects from argparse and
    # json whatever the group, so it is paused while the handler runs and
    # the caller's setting is put back after.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except InternalMismatch:
        raise
    except PsolvError as e:
        detail = str(e)
        where = getattr(e, "location", None)
        line = getattr(e, "line", None)
        if where:
            detail += f" (at {where})"
        elif line is not None:
            detail += f" (line {line}, column {getattr(e, 'column', '?')})"
        sys.stderr.write(f"psolv: error: {detail}\n")
        return 1
    except OSError as e:
        sys.stderr.write(f"psolv: error: {e}\n")
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
