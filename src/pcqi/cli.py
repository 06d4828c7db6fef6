"""Command-line interface: one subcommand per module operation, JSON in,
JSON out, deterministic given its inputs.

Exit codes: 0 success / positive verdict, 1 negative verdict (unless
--always-zero), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bisim, classify, embeddings, graphs, ntrees, patches, rigidity, words


def _write(text, out=None):
    """Print `text`, or write it with a trailing newline to the file `out`."""
    if out:
        with open(out, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def _dump(data, out=None):
    _write(json.dumps(data, indent=2, sort_keys=True), out)


def _to_dot(g: graphs.SimplicialGraph) -> str:
    lines = [f'  "{v}";' for v in g.vertices]
    lines += [f'  "{a}" -- "{b}";' for a, b in sorted(sorted(e) for e in g.edges)]
    return "graph G {\n" + "\n".join(lines) + "\n}"


def cmd_predicates(args):
    g = graphs.load_graph(args.graph)
    atomic, violation = graphs.is_atomic(g)
    shape = graphs.classify_shape(g)
    _dump({
        "vertices": g.n,
        "edges": len(g.edges),
        "connected": graphs.is_connected(g),
        "diameter": graphs.diameter(g),
        "girth": graphs.girth(g),
        "tree": graphs.is_tree(g),
        "chordal": graphs.is_chordal(g),
        "triangle_built": graphs.is_triangle_built(g),
        "atomic": atomic,
        "atomic_violation": None if violation is None
            else {"condition": violation.condition,
                  "witness": list(violation.witness)},
        "shape": shape.to_json(),
    }, args.out)
    return 0


def cmd_nf(args):
    g = graphs.load_graph(args.graph)
    w = words.word(g, args.word)
    nf = words.normal_form(w)
    _dump({
        "input": args.word,
        "normal_form": words.format_word(nf),
        "trivial": words.is_trivial(w),
        "support": sorted(words.support(w)),
    }, args.out)
    return 0


def cmd_patch(args):
    g = graphs.load_graph(args.graph)
    if args.ball is not None:
        if args.double:
            raise ValueError("--double cannot be combined with --ball")
        p = patches.ball_patch(g, args.ball)
    else:
        p = patches.base_patch(g)
        for step in args.double or []:
            if ":" in step:
                name, exp = step.rsplit(":", 1)
                exponent = int(exp)
            else:
                name, exponent = step, 1
            named = patches.named_vertices(p)
            if name not in named:
                raise ValueError(f"--double: no patch vertex named {name!r}")
            p = patches.double_along_star(p, named[name], exponent)
    if args.format == "dot":
        _write(_to_dot(patches.to_simplicial(p)), args.out)
    else:
        _dump(patches.patch_to_json(p), args.out)
    return 0


def cmd_embed(args):
    dom = graphs.load_graph(args.domain)
    cod = graphs.load_graph(args.codomain)
    budget = embeddings.SearchBudget(max_depth=args.depth)
    cert = embeddings.search_embedding(dom, cod, budget)
    if cert is None:
        _dump({"result": "Exhausted", "depth": args.depth,
               "note": "no embedding within the explored patch family; "
                       "not a proof of non-embeddability"}, args.out)
        return 1
    _dump({
        "result": "Found",
        "mapping": {v: {"base": cg.base, "conj": words.format_letters(cg.conj)}
                    for v, cg in cert.mapping},
        "provenance": patches.provenance_to_json(cert.provenance),
        "verified": embeddings.verify_certificate(cert),
    }, args.out)
    return 0


def cmd_gph(args):
    with open(args.complex) as fh:
        k = ntrees.complex_from_json(fh.read())
    cg = ntrees.build_gph(k)
    _dump(json.loads(bisim.colored_to_json(cg)), args.out)
    return 0


def cmd_bisim(args):
    with open(args.a) as fh:
        ga = bisim.colored_from_json(fh.read())
    with open(args.b) as fh:
        gb = bisim.colored_from_json(fh.read())
    if args.n is not None:
        ok, perm, _ = bisim.bisimilar_up_to_pcolor_permutation(ga, gb, args.n)
        _dump({"bisimilar": ok, "permutation": perm}, args.out)
    else:
        ok, witness = bisim.bisimilar(ga, gb)
        _dump({"bisimilar": ok,
               "quotient": None if not ok
               else json.loads(bisim.colored_to_json(witness["quotient"]))},
              args.out)
    return 0 if ok else 1


def cmd_classify(args):
    a = graphs.load_graph(args.a)
    b = graphs.load_graph(args.b)
    budget = embeddings.SearchBudget(max_depth=args.budget)
    if args.criterion:
        rep = classify.qi_via_extension_criterion(a, b, budget)
        _dump({
            "classify": rep["classify"].to_json(),
            "forward_found": rep["forward_found"],
            "backward_found": rep["backward_found"],
            "consistent": rep["consistent"],
            "flags": rep["flags"],
        }, args.out)
        verdict = rep["classify"].verdict
    else:
        v = classify.classify_pair(a, b)
        _dump(v.to_json(), args.out)
        verdict = v.verdict
    return 1 if verdict == "NotQI" else 0


def cmd_rigidity(args):
    g = graphs.load_graph(args.graph)
    report = rigidity.rigidity_experiment(g, args.depth)
    _dump(report.to_json(), args.report)
    return 1 if report.failures else 0


def build_parser():
    ap = argparse.ArgumentParser(prog="pcqi")
    ap.add_argument("--always-zero", action="store_true",
                    help="exit 0 even on negative verdicts")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predicates", help="structural predicates of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predicates)

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("patch", help="build an extension-graph patch")
    p.add_argument("--graph", required=True)
    p.add_argument("--double", action="append", metavar="VERTEX[:EXP]")
    p.add_argument("--ball", type=int)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_patch)

    p = sub.add_parser("embed", help="search an induced embedding")
    p.add_argument("--domain", required=True)
    p.add_argument("--codomain", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("gph", help="invariant bipartite tree of an n-tree")
    p.add_argument("--complex", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gph)

    p = sub.add_parser("bisim", help="bisimilarity of colored graphs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("classify", help="quasi-isometry verdict for a pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--budget", type=int, default=3)
    p.add_argument("--criterion", action="store_true",
                   help="also run the mutual-embeddability report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rigidity", help="atomic rigidity experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--report")
    p.set_defaults(func=cmd_rigidity)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        status = args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.always_zero:
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
