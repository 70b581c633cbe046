"""Edge orderings and their matching number.

An :class:`EdgeOrdering` assigns positions 1..m bijectively to the edges of
a graph, read either linearly or cyclically.  Its matching number is the
largest d such that every d consecutive positions (wrapping in cyclic mode)
hold a matching.

The fast computation rests on a window/gap duality: a window of size w
contains two given edges iff their position gap (cyclic gap in cyclic mode)
is at most w-1.  Hence the largest all-matching window size equals the
minimum gap over adjacent edge pairs, or m when the graph has no adjacent
pair at all (i.e. the graph is itself a matching).

Ordering file format: a single line of m whitespace-separated tokens, one
per position, each ``u-v`` or ``u-v#j`` for the j-th parallel copy
(0-based, in edge-id order).  ``_tokens`` is the writer's table, one token
per edge id, and the reader inverts it: only a token not in it is parsed.

Bipartite orderings can be rendered as a labeled biadjacency matrix: cell
(i, j) shows the position of the edge joining the i-th row vertex to the
j-th column vertex, ``.`` where there is no edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterable, Literal, Sequence

from .errors import FormatError, InvalidEdgeId, InvalidOrdering
from .graphs import Graph, _on_endpoints, _vertex_names

LINEAR = "linear"
CYCLIC = "cyclic"
Mode = Literal["linear", "cyclic"]
MODES = (LINEAR, CYCLIC)


@dataclass(frozen=True)
class EdgeOrdering:
    """A permutation of a graph's edge ids plus a linear/cyclic mode flag.

    ``sequence[t-1]`` is the edge id at position t.
    """

    graph: Graph
    sequence: tuple[int, ...]
    mode: Mode

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidOrdering(f"mode must be one of {MODES}, got {self.mode!r}")
        m = self.graph.num_edges
        if m == 0:
            raise InvalidOrdering("orderings of edgeless graphs are rejected")
        ids = set(self.sequence)  # m distinct ids covering 0..m-1: no sort
        if not (len(self.sequence) == len(ids) == m and ids.issuperset(range(m))):
            raise InvalidOrdering(
                f"sequence is not a permutation of the {m} edge ids")

    @property
    def length(self) -> int:
        return len(self.sequence)

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        pos = [0] * self.length
        for t, eid in enumerate(self.sequence, start=1):
            pos[eid] = t
        return tuple(pos)

    def position(self, edge_id: int) -> int:
        """1-based position of an edge id."""
        if not (0 <= edge_id < self.length):
            raise InvalidEdgeId(f"edge id {edge_id} not in [0, {self.length})")
        return self._positions[edge_id]


@dataclass(frozen=True)
class MatchingNumberReport:
    """Matching number d plus one adjacent pair realizing the minimum gap.

    ``violating_pair`` is ``(edge_id_a, edge_id_b, gap)`` with a at the
    earlier position; it is None exactly when the graph is a matching, in
    which case d = m.
    """

    value: int
    violating_pair: tuple[int, int, int] | None


def is_matching(g: Graph, edge_ids: Iterable[int]) -> bool:
    """True iff the given edges are pairwise non-adjacent."""
    seen: set[int] = set()
    for eid in set(edge_ids):
        if not (0 <= eid < g.num_edges):
            raise InvalidEdgeId(f"edge id {eid} not in [0, {g.num_edges})")
        u, v = g.us[eid], g.vs[eid]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def matching_number(o: EdgeOrdering) -> MatchingNumberReport:
    """Exact matching number via the minimum gap over adjacent edge pairs.

    Every adjacent pair shares a vertex, so the minimum is realized by two
    positions that are consecutive among one vertex's incident edges, or,
    in cyclic mode, by a vertex's first and last position (the wrap-around
    pair, gap m - (last - first)).  One sweep over the positions keeps each
    vertex's first and last position seen so far and compares the gap to
    the previous one as each edge arrives; the wrap-around pairs are
    compared after the sweep.  Ties among minimizing pairs are broken by
    smallest earlier position, then smallest later position, so reports
    are deterministic: the sweep meets the pairs of one gap in order of
    their later position, so only a strictly smaller gap replaces the best.

    Where the order exceeds twice the edges, the first/last tables cover
    only the vertices with edges, relabelled in ascending order, so they
    never outgrow the edges; a vertex's positions keep their meaning.
    """
    m = o.length
    g = _on_endpoints(o.graph)
    us, vs, order = g.us, g.vs, g.order
    first = [0] * order  # 0: vertex not met yet
    last = [0] * order
    gap, lo, hi = m + 1, 0, 0  # best (gap, pos_lo, pos_hi); m + 1: no pair yet
    for t, eid in enumerate(o.sequence, start=1):
        u = us[eid]
        v = vs[eid]
        p = last[u]
        if not p:
            first[u] = t
        elif t - p < gap:
            gap, lo, hi = t - p, p, t
        last[u] = t
        p = last[v]
        if not p:
            first[v] = t
        elif t - p < gap:
            gap, lo, hi = t - p, p, t
        last[v] = t
    if o.mode == CYCLIC:
        for f, l in zip(first, last):
            if f != l and m - (l - f) <= gap and (m - (l - f), f, l) < (gap, lo, hi):
                gap, lo, hi = m - (l - f), f, l

    if gap > m:
        return MatchingNumberReport(m, None)
    return MatchingNumberReport(gap, (o.sequence[lo - 1], o.sequence[hi - 1], gap))


def matching_number_bruteforce(o: EdgeOrdering) -> int:
    """Oracle: scan every window of every size, independent of the gap rule.

    A non-matching window of size d extends to a non-matching window of
    every larger size, so the scan stops at the first failing size.
    """
    m = o.length
    seq = o.sequence
    for d in range(2, m + 1):
        starts = range(m) if o.mode == CYCLIC else range(m - d + 1)
        for s in starts:
            window = [seq[(s + i) % m] for i in range(d)]
            if not is_matching(o.graph, window):
                return d - 1
    return m


def rotate(o: EdgeOrdering, s: int) -> EdgeOrdering:
    """Cyclic shift: the edge at old position 1+s moves to position 1."""
    if o.mode != CYCLIC:
        raise InvalidOrdering("rotate is only defined for cyclic orderings")
    m = o.length
    s %= m
    return EdgeOrdering(o.graph, o.sequence[s:] + o.sequence[:s], CYCLIC)


def reflect(o: EdgeOrdering) -> EdgeOrdering:
    return EdgeOrdering(o.graph, tuple(reversed(o.sequence)), o.mode)


def with_mode(o: EdgeOrdering, mode: Mode) -> EdgeOrdering:
    """Same sequence, read in the other mode."""
    return EdgeOrdering(o.graph, o.sequence, mode)


def random_ordering(g: Graph, mode: Mode, rng: random.Random) -> EdgeOrdering:
    seq = list(range(g.num_edges))
    rng.shuffle(seq)
    return EdgeOrdering(g, tuple(seq), mode)


# ---------------------------------------------------------------------------
# ordering file format

def _tokens(g: Graph) -> list[str]:
    """The token of each edge, by edge id: ``u-v``, or ``u-v#j`` for copy j
    of a pair with several copies, in id order."""
    names = _vertex_names(g)
    tokens = [f"{names[u]}-{names[v]}" for u, v in zip(g.us, g.vs)]
    if g.allow_parallel:
        for u, v in set(zip(g.us, g.vs)):
            ids = g.edge_ids_between(u, v)
            if len(ids) > 1:
                for j, eid in enumerate(ids):
                    tokens[eid] += f"#{j}"
    return tokens


def write_ordering(o: EdgeOrdering) -> str:
    tokens = _tokens(o.graph)
    return " ".join(map(tokens.__getitem__, o.sequence)) + "\n"


def read_ordering(text: str, g: Graph, mode: Mode) -> EdgeOrdering:
    """Parse an ordering file of g.  Each token is looked up in the inverse
    of ``_tokens(g)``; only a token that misses (``v-u``, ``u-v#0`` on a
    pair with one copy, a bare ``u-v`` on one with several, or no edge's
    token at all) is parsed, in index order, so the first bad token raises
    its error."""
    tokens = text.split()
    if len(tokens) != g.num_edges:
        raise FormatError(
            f"expected {g.num_edges} ordering tokens, found {len(tokens)}", 1)
    seq = [*map(dict(zip(_tokens(g), count())).get, tokens)]
    if None in seq:
        between = g.edge_ids_between
        for k, token in enumerate(tokens):
            if seq[k] is not None:
                continue
            body, _, copy = token.partition("#")
            u_s, _, v_s = body.partition("-")
            try:
                u, v = int(u_s), int(v_s)
                j = int(copy) if copy else 0
            except ValueError:
                raise FormatError(f"bad ordering token {token!r} (index {k})", 1) from None
            ids = between(u, v)
            if not ids:
                raise FormatError(f"token {token!r}: no edge {{{u},{v}}} in graph", 1)
            if not (0 <= j < len(ids)):
                raise FormatError(
                    f"token {token!r}: copy index {j} out of range (have {len(ids)})", 1)
            seq[k] = ids[j]
    try:
        return EdgeOrdering(g, tuple(seq), mode)
    except InvalidOrdering as exc:
        raise FormatError(str(exc), 1) from None


# ---------------------------------------------------------------------------
# biadjacency matrix rendering

def render_biadjacency(o: EdgeOrdering, rows: Sequence[int],
                       cols: Sequence[int]) -> str:
    """Render the labeled biadjacency matrix of a bipartite ordering.

    ``rows``/``cols`` give the vertex of each matrix row/column.  Cells are
    right-justified to the width of the largest label with '.' for non-edges,
    single-space separated, so output is byte-stable.
    """
    if o.graph.allow_parallel:
        raise InvalidOrdering("matrix rendering requires a simple graph")
    between = o.graph.edge_ids_between
    cell: dict[tuple[int, int], int] = {}
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            ids = between(r, c)
            if ids:
                cell[(i, j)] = o.position(ids[0])
    # each edge in exactly one cell: m cells holding m distinct positions
    if not len(cell) == len(set(cell.values())) == o.length:
        raise InvalidOrdering(
            "row/column vertex classes do not put every edge in exactly one cell")
    width = len(str(o.length))
    lines = []
    for i in range(len(rows)):
        parts = [str(cell.get((i, j), ".")).rjust(width) for j in range(len(cols))]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_biadjacency(text: str, g: Graph, rows: Sequence[int],
                      cols: Sequence[int], mode: Mode) -> EdgeOrdering:
    """Inverse of :func:`render_biadjacency` (tolerant of extra whitespace)."""
    matrix = [line.split() for line in text.splitlines() if line.strip()]
    if len(matrix) != len(rows):
        raise FormatError(f"expected {len(rows)} matrix rows, found {len(matrix)}")
    between = g.edge_ids_between
    seq: list[int | None] = [None] * g.num_edges
    for i, row in enumerate(matrix):
        if len(row) != len(cols):
            raise FormatError(f"expected {len(cols)} cells", i + 1)
        for j, token in enumerate(row):
            if token == ".":
                continue
            try:
                label = int(token)
            except ValueError:
                raise FormatError(f"bad cell {token!r}", i + 1) from None
            ids = between(rows[i], cols[j])
            if not ids:
                raise FormatError(
                    f"cell ({i + 1},{j + 1}) labels a non-edge", i + 1)
            if not (1 <= label <= g.num_edges) or seq[label - 1] is not None:
                raise FormatError(f"label {label} out of range or repeated", i + 1)
            seq[label - 1] = ids[0]
    if any(x is None for x in seq):
        raise FormatError("matrix does not label every edge")
    return EdgeOrdering(g, tuple(seq), mode)  # type: ignore[arg-type]
