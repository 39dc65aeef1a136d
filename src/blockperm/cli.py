"""Command line front end.

Groups are named with a small spec language (sym:n, alt:n, cyclic:n,
sylow:sym:n:p, json:FILE, or inline JSON), fields as p or p^e.  Every
subcommand takes --seed for the random choices and --json/--pretty for
machine-readable output.  Exit status: 0 on success, 1 when a requested
check or property fails, 2 on usage errors and bad input, 3 when an internal
certificate fails (gfq.CertificateError, an AssertionError, or
RuntimeError), 4 when the input would exceed a size cap (ResourceCap).
"""

import argparse
import json
import sys

from . import algebra
from . import blocks
from . import brauertree
from . import checks
from . import gfq
from . import modules
from . import symchars
from . import vertexweight
from .permgrp import PermGroup, ResourceCap, parse_group


def _emit(args, payload, human=None):
    if getattr(args, "pretty", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human if human is not None
              else json.dumps(payload, indent=2, sort_keys=True))


def _add_common(sp, group=True):
    if group:
        sp.add_argument("--group", required=True, help="group spec")
        sp.add_argument("--field", required=True, help="p or p^e")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--pretty", action="store_true")


def _group_field(args):
    return parse_group(args.group), gfq.GF.parse(args.field)


def cmd_blocks(args):
    g, field = _group_field(args)
    ga = blocks.GroupAlgebra(g, field)
    sylow = g.sylow_subgroup(field.p) if g.order() % field.p == 0 else None
    out = []
    for b in ga.blocks(seed=args.seed):
        entry = {
            "dim": b.dim,
            "defect_order": b.defect_group().order(),
            "is_principal": bool(b.is_principal),
        }
        if sylow is not None and b.defect_group().order() > 1:
            entry["num_simples"] = b.number_of_simples(sylow, seed=args.seed)
            spm = b.source_permutation_module(b.defect_group(),
                                              seed=args.seed)
            entry["source_perm_dim"] = spm.dim
        else:
            entry["num_simples"] = 1
            entry["source_perm_dim"] = 1
        out.append(entry)
    _emit(args, out)
    return 0


def _decompose_target(args, g, field):
    if args.subgroup:
        h = _subgroup_of(g, args.subgroup)
        return modules.GModule.permutation(g, h, field)
    return modules.GModule.regular(g, field)


def _subgroup_of(g, spec):
    h = parse_group(spec)
    if h.degree != g.degree:
        raise ValueError("subgroup degree mismatch")
    return h


def cmd_decompose(args):
    g, field = _group_field(args)
    m = _decompose_target(args, g, field)
    report = modules.decomposition_report(m, seed=args.seed,
                                          with_vertex=args.vertices)
    _emit(args, report)
    return 0


def cmd_vertex(args):
    args.vertices = True
    return cmd_decompose(args)


def cmd_source_perm(args):
    g, field = _group_field(args)
    ga = blocks.GroupAlgebra(g, field)
    blist = ga.blocks(seed=args.seed)
    if args.block is not None and not 0 <= args.block < len(blist):
        raise ValueError("no block %d: kG has %d" % (args.block, len(blist)))
    b = blist[args.block] if args.block is not None else \
        [x for x in blist if x.is_principal][0]
    spm = b.source_permutation_module(b.defect_group(), seed=args.seed)
    report = modules.decomposition_report(spm, seed=args.seed)
    report["block_dim"] = b.dim
    report["defect_order"] = b.defect_group().order()
    _emit(args, report)
    return 0


def cmd_weights(args):
    g, field = _group_field(args)
    ga = blocks.GroupAlgebra(g, field)
    blist = ga.blocks(seed=args.seed)
    grouped = {}
    for w in vertexweight.weights(g, field, seed=args.seed):
        b = vertexweight.block_of_weight(ga, w, seed=args.seed)
        bid = blist.index(b)
        key = (w.q.order(), w.normalizer.order() // w.q.order(), bid)
        grouped[key] = grouped.get(key, 0) + 1
    out = [{"q_order": q, "n_quotient_order": nq, "num_weights": c,
            "block_id": bid}
           for (q, nq, bid), c in sorted(grouped.items())]
    _emit(args, out)
    return 0


def _parse_tree(args):
    if args.line:
        return brauertree.line_tree(args.line)
    if args.star:
        parts = args.star.split(":")
        m = int(parts[1]) if len(parts) > 1 else None
        return brauertree.star_tree(int(parts[0]), m=m)
    with open(args.tree) as fh:
        return brauertree.BrauerTree.from_json(json.load(fh))


def cmd_brauer_tree(args):
    tree = _parse_tree(args)
    if args.end_of_u:
        descs = brauertree.end_of_U_sum(tree)
        payload = [{"num_simples": d.num_simples,
                    "proj_length": d.proj_length,
                    "orbit": list(d.orbit)} for d in descs]
        _emit(args, payload)
    else:
        _emit(args, tree.to_json())
    return 0


def _parse_algebra(spec, field):
    if spec.startswith("nakayama:"):
        _, s, ell = spec.split(":")
        return algebra.nakayama_algebra(field, int(s), int(ell))
    if spec.startswith("json:"):
        with open(spec[5:]) as fh:
            return algebra.FinDimAlgebra.from_json(json.load(fh))
    raise ValueError("unknown algebra spec %r" % spec)


def cmd_selfinj(args):
    field = gfq.GF.parse(args.field)
    alg = _parse_algebra(args.algebra, field)
    verdict, witness = alg.self_injective_witness(seed=args.seed)
    payload = {"self_injective": bool(verdict),
               "witness": witness if verdict
               else {"failing_injective": witness}}
    _emit(args, payload, human="true" if verdict else "false")
    return 0


def cmd_chars(args):
    n = args.n
    if args.subgroup:
        spec = args.subgroup
        if spec.startswith("sylow:") and spec.count(":") == 1:
            h = PermGroup.sylow_of_symmetric(n, int(spec.split(":")[1]))
        else:
            h = parse_group(spec)
            if h.degree != n:
                raise ValueError("subgroup degree mismatch")
    else:
        h = PermGroup.cyclic(n)
    mult = symchars.perm_character_multiplicities(n, h)
    payload = {",".join(str(x) for x in lam): int(c)
               for lam, c in mult.items()}
    lines = ["%-16s %d" % (k, v) for k, v in sorted(payload.items())]
    _emit(args, payload, human="\n".join(lines))
    return 0


def cmd_paper_check(args):
    reports = checks.run_suite(args.suite, seed=args.seed)
    if args.write_golden:
        with open(args.write_golden, "w") as fh:
            fh.write(checks.suite_json(reports))
    ok = all(r.passed for r in reports)
    if args.json or args.pretty:
        _emit(args, [r.to_json() for r in reports])
    else:
        for r in reports:
            spec = checks.CHECKS[r.id]
            print("%-24s %s  (%5.1fs)  %s" % (
                r.id, "PASS" if r.passed else "FAIL", r.wall_time,
                spec.anchor))
            if not r.passed:
                for a in r.assertions:
                    if not a["passed"]:
                        print("    FAIL %s: computed %r expected %r" % (
                            a["name"], a["computed"], a["expected"]))
    if args.golden:
        with open(args.golden) as fh:
            stored = fh.read()
        fresh = checks.suite_json(reports)
        if stored != fresh:
            print("golden mismatch against %s" % args.golden,
                  file=sys.stderr)
            return 1
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="blockperm")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("blocks", help="block decomposition of kG")
    _add_common(sp)
    sp.set_defaults(fn=cmd_blocks)

    sp = sub.add_parser("decompose", help="indecomposable summands of a "
                        "permutation (or regular) module")
    _add_common(sp)
    sp.add_argument("--subgroup", help="point stabilizer group spec")
    sp.add_argument("--vertices", action="store_true",
                    help="annotate summands with vertex orders")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("vertex", help="decompose with vertex annotations")
    _add_common(sp)
    sp.add_argument("--subgroup", help="point stabilizer group spec")
    sp.set_defaults(fn=cmd_vertex)

    sp = sub.add_parser("source-perm", help="decomposition of the source "
                        "permutation module of a block")
    _add_common(sp)
    sp.add_argument("--block", type=int,
                    help="block index (default: principal)")
    sp.set_defaults(fn=cmd_source_perm)

    sp = sub.add_parser("weights", help="weight counts per block")
    _add_common(sp)
    sp.set_defaults(fn=cmd_weights)

    sp = sub.add_parser("brauer-tree", help="Brauer tree utilities")
    sp.add_argument("--line", type=int, help="line tree with N edges")
    sp.add_argument("--star", help="star tree N or N:m")
    sp.add_argument("--tree", help="JSON file with a tree")
    sp.add_argument("--end-of-u", action="store_true",
                    help="print the serial descriptors of the rho-orbits")
    _add_common(sp, group=False)
    sp.set_defaults(fn=cmd_brauer_tree)

    sp = sub.add_parser("selfinj", help="self-injectivity of an algebra")
    sp.add_argument("--algebra", required=True,
                    help="nakayama:s:L or json:FILE")
    sp.add_argument("--field", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(fn=cmd_selfinj)

    sp = sub.add_parser("chars", help="permutation character multiplicities"
                        " for S_n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--subgroup", help="subgroup spec (sylow:p shorthand "
                    "for a Sylow subgroup of S_n)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(fn=cmd_chars)

    sp = sub.add_parser("paper-check", help="run a named check suite")
    sp.add_argument("--suite", default="all", choices=checks.SUITES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--pretty", action="store_true")
    sp.add_argument("--golden", help="compare against a stored golden file")
    sp.add_argument("--write-golden", help="write the canonical JSON here")
    sp.set_defaults(fn=cmd_paper_check)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceCap as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print("internal error: %r" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
