"""Command-line interface.

Subcommands::

    construct  build a family ordering, report value=/predicted=, optionally
               render the biadjacency matrix view
    check      compute the matching number of an ordering file
    solve      exact decision / optimization for an arbitrary graph (JSON),
               optionally seeded with a known ordering
    verify     run the construction-vs-formula-vs-solver harness
    explore    experiment drivers q1 (edge multiplication), q2 (ms-cms gap),
               q3 (doubled graphs)

Exit codes: 0 success/pass, 1 verification failure, 2 input error,
3 budget exhaustion (a ``solve`` out of budget, an ``explore`` result with
unsolved cells, or a ``verify`` run with no failure but an unresolved row).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, constructions, graphs, orderings, solver
from .errors import FormatError, MatchseqError

_FAMILY_ALIASES = {"bipartite": "complete_bipartite"}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="matchseq",
        description="Edge orderings whose consecutive windows form matchings.")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a known-value family ordering")
    c.add_argument("--family", required=True,
                   choices=[*constructions.FAMILIES, *_FAMILY_ALIASES])
    c.add_argument("--params", required=True, type=int, nargs="+")
    c.add_argument("--mode", choices=list(orderings.MODES), default=orderings.CYCLIC)
    c.add_argument("--matrix", action="store_true",
                   help="print the labeled biadjacency matrix (bipartite hosts)")
    c.add_argument("--out", help="write the ordering file here instead of stdout")
    c.add_argument("--graph-out", help="also write the graph's edge list here")

    k = sub.add_parser("check", help="matching number of an ordering file")
    k.add_argument("--graph", required=True)
    k.add_argument("--ordering", required=True)
    k.add_argument("--mode", required=True, choices=list(orderings.MODES))

    s = sub.add_parser("solve", help="exact solve for an arbitrary graph")
    s.add_argument("--graph", required=True)
    s.add_argument("--mode", required=True, choices=list(orderings.MODES))
    s.add_argument("--target", type=int,
                   help="decide existence of an ordering with value >= target")
    s.add_argument("--ordering",
                   help="a known ordering file of the graph: its checked value "
                        "is the floor, and only the targets above it are searched")
    s.add_argument("--budget-seconds", type=_positive_seconds, default=300.0)

    v = sub.add_parser("verify", help="constructions vs formulas vs solver")
    v.add_argument("--max-complete", type=int, default=8)
    v.add_argument("--max-cycle", type=int, default=16)
    v.add_argument("--exact-up-to-edges", type=int, default=12)
    v.add_argument("--json-out", help="also write the JSON report here")

    e = sub.add_parser("explore", help="open-question experiment drivers")
    e.add_argument("question", choices=["q1", "q2", "q3"])
    e.add_argument("--graph", help="edge-list file (q1, q3)")
    e.add_argument("--k-max", type=int, default=2, help="q1: test kG for k <= k-max")
    e.add_argument("--max-n", type=int, default=5, help="q2: vertex bound")
    e.add_argument("--connected-only", action="store_true", help="q2 filter")
    e.add_argument("--budget-seconds", type=_positive_seconds, default=300.0,
                   help="time budget of the whole command, shared by its "
                        "exact solves; cells left when it runs out show ?")
    return top


def _positive_seconds(text: str) -> float:
    """The type of the --budget-seconds flags: a number above 0, not NaN."""
    try:
        if float(text) > 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")


def _read_text(path: str) -> str:
    """The text of an input file; FormatError, naming it, if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _read_graph(path: str) -> graphs.Graph:
    return graphs.read_edge_list(_read_text(path))


def _cmd_construct(args) -> int:
    family = _FAMILY_ALIASES.get(args.family, args.family)
    ordering = constructions.family_ordering(family, tuple(args.params), args.mode)
    pred = catalog.predicted(family, args.mode, tuple(args.params))
    value = orderings.matching_number(ordering).value
    if args.matrix:
        spec = constructions.FamilySpec(family, tuple(args.params))
        rows, cols = constructions.biadjacency_layout(spec)
        sys.stdout.write(orderings.render_biadjacency(ordering, rows, cols))
    if args.graph_out:
        with open(args.graph_out, "w", encoding="utf-8") as fh:
            fh.write(graphs.write_edge_list(ordering.graph))
    line = orderings.write_ordering(ordering)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line)
    else:
        sys.stdout.write(line)
    print(f"value={value} predicted={pred.value}")
    return 0 if value == pred.value else 1


def _cmd_check(args) -> int:
    g = _read_graph(args.graph)
    ordering = orderings.read_ordering(_read_text(args.ordering), g, args.mode)
    report = orderings.matching_number(ordering)
    print(f"value={report.value}")
    if report.violating_pair is None:
        print("violating_pair=none (the graph is a matching)")
    else:
        a, b, gap = report.violating_pair
        print(f"violating_pair=edge {a} {{{g.us[a]},{g.vs[a]}}} at position "
              f"{ordering.position(a)}, edge {b} {{{g.us[b]},{g.vs[b]}}} at position "
              f"{ordering.position(b)}, gap {gap}")
    return 0


def _cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    budget = solver.SolveBudget(max_seconds=args.budget_seconds)
    seed = None
    if args.ordering:
        if args.target is not None:
            raise MatchseqError("--ordering seeds an exact solve; "
                                "it does not combine with --target")
        seed = orderings.read_ordering(_read_text(args.ordering), g, args.mode)
    if args.target is not None:
        result = solver.exists_ordering(g, args.target, args.mode, budget)
    elif args.mode == orderings.LINEAR:
        result = solver.ms_exact(g, budget, seed)
    else:
        result = solver.cms_exact(g, budget, seed)
    payload = result.summary_dict()
    payload["mode"] = args.mode
    payload["target"] = args.target
    # the value the seed proves, which an out-of-budget solve leaves unset
    payload["seed_value"] = (orderings.matching_number(seed).value
                             if seed is not None else None)
    payload["witness"] = (orderings.write_ordering(result.witness).strip()
                          if result.witness is not None else None)
    print(json.dumps(payload, indent=2))
    return 3 if result.status == solver.BUDGET_EXCEEDED else 0


def _cmd_verify(args) -> int:
    report = catalog.verify_families(max_complete=args.max_complete,
                                     max_cycle=args.max_cycle,
                                     exact_up_to_edges=args.exact_up_to_edges)
    sys.stdout.write(report.to_text())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_obj(), fh, indent=2)
            fh.write("\n")
    if report.failed:
        return 1
    return 3 if report.unresolved else 0


def _cmd_explore(args) -> int:
    budget = solver.SolveBudget(max_seconds=args.budget_seconds)
    if args.question in ("q1", "q3") and not args.graph:
        raise MatchseqError(f"{args.question} needs --graph")
    if args.question == "q1":
        result = catalog.explore_q1(_read_graph(args.graph), args.k_max, budget)
        print(f"matching number p = {result.matching_number}")
        print(f"{'k':>3} {'ms(kG)':>7} {'cms(kG)':>8} {'ms==p':>6} {'cms==p':>7}")
        for row in result.rows:
            print(f"{row.k:>3} {_cell(row.ms_value):>7} {_cell(row.cms_value):>8} "
                  f"{_cell(row.ms_reached):>6} {_cell(row.cms_reached):>7}")
        resolved = all(row.resolved for row in result.rows)
    elif args.question == "q2":
        result = catalog.explore_q2(args.max_n, budget,
                                    connected_only=args.connected_only)
        print(f"graphs on <= {result.n_max} vertices: {len(result.rows)} classes"
              f"{' (PARTIAL: budget hit)' if result.partial else ''}")
        print(f"max ms-cms gap = {result.max_gap}")
        for row in result.witnesses:
            print(f"  gap {row.gap}: ms={row.ms_value} cms={row.cms_value} "
                  f"edges={list(row.edges)}")
        resolved = not result.partial
    else:
        result = catalog.explore_q3(_read_graph(args.graph), budget)
        print(f"ms(G)   = {_cell(result.ms_single)}")
        print(f"cms(2G) = {_cell(result.cms_doubled)}")
        print(f"equal   = {_cell(result.equal)}")
        resolved = result.resolved
    return 0 if resolved else 3


def _cell(x) -> str:
    return "?" if x is None else str(x)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "check": _cmd_check,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "explore": _cmd_explore,
    }
    try:
        return handlers[args.command](args)
    except (MatchseqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
