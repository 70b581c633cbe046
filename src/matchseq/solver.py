"""Exact decision and optimization of ms/cms by pruned backtracking.

A window of one edge is a matching, so every ordering attains d = 1 in
either mode: ``exists_ordering`` returns the identity at d = 1, in 0 nodes.
Every d >= 2 runs through one budgeted search core, ``_search``, which
decides one target d; ``exists_ordering`` validates and calls it at most
once.  ``ms_exact``/``cms_exact`` validate and take two bounds: the
maximum-matching bound ν above, and a floor L below, 1 or the value that
``matching_number`` re-checks of an optional seed, a known ordering of the
same graph.  They try d = ν, ν-1, ..., L+1 under one absolute deadline:
a d that the spacing rule below refutes costs 0 nodes, and the first
other d builds the search tables, once, in ``_tables``, which stops in
0 nodes if the deadline passes first; the core then runs each such d
with the node budget still left, possibly 0.  So a
node-budget hit reports exactly ``max_nodes + 1`` nodes in total.  If
every d is refuted, the seed is the witness (any ordering, unseeded), so
a seed at ν costs no search at all; out of budget, the seed stays the
witness.

The core places edges into positions 1..m depth-first, in one loop over m
preallocated slots per position, so its depth is not bounded by Python's
recursion limit.  One candidate rule, ``_window_rule``, serves the DFS and
the greedy restarts: the next edge shares no vertex with the last d-1
placed nor, in cyclic mode, with the opening ones its window wraps onto.
Each candidate e of index i is tested before it is placed: its successors
are ``X_i & compat[e]``, where ``X_i = free & W_i`` and W_i, the rule's AND
of compat over the window of index i+1 minus index i, is computed once per
entry into index i.  ``free`` may be read before e is placed: ``flip[e]``
holds e's bit and its next twin's, and ``compat[e]`` holds neither, since e
meets itself and a twin f meets e (f is not in ``compat[f] = compat[e]``).
An empty mask before index m-1 is a dead end, counted but never placed, at
the cost of one AND.  A placed node costs one call of the rule: at most
three ANDs, plus O(d) per entry into every (d-1)-th index.

The rule also spaces the edges at each vertex d apart, as they must be in
any ordering of value >= d: they form a clique of the line graph, and any
two of them closer than d share a window.  ``_spacing`` reads it, per d
from the degrees taken once per solve, as a mask per index.
In cyclic mode a vertex of degree r needs r*d <= m; at equality, Δ*d = m
for the largest degree Δ, a vertex of degree Δ fills one residue class of
positions mod d, so an edge uv between two of them forces all Δ edges at u
to join u and v.  In linear mode, with
m - 1 = R*d + s and 0 <= s < d, it needs r <= R + 1, and a vertex of degree
R + 1 has its edges at positions p with (p-1) mod d <= s: every other
index holds only edges with no such endpoint.  A tree that breaks the
degree bound, has such an edge uv of multiplicity below Δ, or has an index
that may hold no edge, is refuted in 0 nodes, before any table is built:
P16 linear d=8, which took 442,193 nodes before the rule, is one, and so
are P_2k+1 and C_2k cyclic at d = k (P21 took 16,148,331 nodes) and
every r-regular simple host, r >= 2, on an even number n of vertices at
d = n/2.  So cms <= n/2 - 1 on such a host, K_2m and Petersen among them.
Where some index is tight, a placed node pays one more AND, folded into
W; elsewhere it pays nothing.  Every ordering of value >= d obeys the
rule, the ones the symmetry rules below keep included, so it needs no
argument joint with them.

Symmetry breaking has three rules, proved together in ``_tables``, each a
lex-leader rule in the sense of Crawford, Ginsberg, Luks and Roy (KR 1996).
Cyclic mode pins edge id 0 to position 1.  Twins, edges that share a vertex
with exactly the same edges, are placed in ascending id: a twin becomes
free only once its next-lower twin is placed, so a placement and a pop each
flip that twin's bit in the same XOR that flips the placed edge.
On K_s (s >= 4) and K_{A,B} (|A|, |B| >= 2), found from the edges whatever
their labels, a fixed matching M, edge 0 first, fills positions 1..d: the
automorphisms S_s and S_A x S_B map any d disjoint edges, in order, onto
M's first d.  ``_search`` takes one pinned prefix, M[:d], else edge 0 in
cyclic mode, else none, and reads successors from ``lead``: compat, but a
pinned edge's mask keeps only the next pinned edge, so other hosts pay
nothing per node.  cms(K9) = 3 is certified in 23,266 nodes (12,083,634
without M) and cms(K11) = 4 in 567,427, each well under a second.

ms(G) and cms(G) are the antibandwidth and the cyclic antibandwidth of the
line graph L(G): the largest, over orderings, of the least position gap
between two edges that meet.
See Raspaud, Schröder, Sýkora, Török and Vrťo, "Antibandwidth and cyclic
antibandwidth of meshes and hypercubes", Discrete Math. 309 (2009).

The DFS tries candidates in ascending edge id.  Its find side is
heavy-tailed under that fixed order (K8 linear d=3 took 759,509 nodes), so
each d's search, which counts nodes from 0, has checkpoints, met by one
comparison per node: node 1, every 4,096th node and node max_nodes + 1.
Each tests the budget; each 4,096th node then runs one slice of a fresh
``_greedy_restarts`` per d, which ends once it has scored 1,024 candidates.
A search that ends before node 4,096 never starts it, and a refutation
visits every consistent prefix whatever else runs, so its node count does
not move.  A seeded solve runs no slices: the seed is a witness already.
``nodes_explored`` and ``depth_histogram`` count DFS nodes, dead ends
included; ``greedy_placements``, at most 1,025 per slice, the greedy's.

Nonexistence is reported only when the pruned tree has been exhausted;
running out of budget is a distinct status, never conflated with a
certificate.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Iterator

from .errors import InvalidOrdering, InvalidTarget
from .graphs import Graph, _on_endpoints, degrees, max_matching_size
from .orderings import (CYCLIC, LINEAR, EdgeOrdering, Mode, matching_number,
                        with_mode)

VALUE_FOUND = "value_found"
NONEXISTENCE_CERTIFIED = "nonexistence_certified"
BUDGET_EXCEEDED = "budget_exceeded"

_BUDGET_CHECK_STRIDE = 4096
_GREEDY_SCANS = _BUDGET_CHECK_STRIDE // 4  # candidates scored per checkpoint
_GREEDY_SEED = 0


@dataclass(frozen=True)
class SolveBudget:
    max_nodes: int = 50_000_000
    max_seconds: float = 300.0

    def __post_init__(self):
        if not (self.max_nodes > 0 and self.max_seconds > 0):  # NaN fails too
            raise ValueError("budget limits must be positive")
        if self.max_nodes % 1:  # its checkpoint, node max_nodes + 1, never comes
            raise ValueError("max_nodes must be a whole number")


@dataclass(frozen=True)
class SolveResult:
    status: str
    value: int | None
    witness: EdgeOrdering | None
    nodes_explored: int
    depth_histogram: tuple[int, ...] = ()
    elapsed_seconds: float = 0.0
    # smallest d certified nonexistent before the budget ran out, if any
    certified_upper: int | None = None
    # edges placed by the greedy restarts at the budget checkpoints
    greedy_placements: int = 0

    def summary_dict(self) -> dict:
        return {
            "status": self.status,
            "value": self.value,
            "nodes": self.nodes_explored,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "depth_histogram": list(self.depth_histogram),
            "certified_upper": self.certified_upper,
            "greedy_placements": self.greedy_placements,
        }


def exists_ordering(g: Graph, d: int, mode: Mode,
                    budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Decide whether some ordering of g has matching number >= d.

    Returns a witness ordering on success (post-validated through the
    independent checker), a nonexistence certificate on full exhaustion,
    or a budget_exceeded result.  The time budget and ``elapsed_seconds``
    cover building the search tables, ``_tables``, as well as the search:
    tables still unbuilt at the deadline end the solve in 0 nodes.
    d = 1 needs no search: the identity ordering, in 0 nodes, whatever the
    budget.  Nor does a target that ``_spacing`` refutes: the certificate,
    in 0 nodes, comes before the tables are built.
    """
    m = g.num_edges
    if m == 0:
        raise InvalidTarget("graph has no edges")
    if not isinstance(d, int) or not (1 <= d <= m):
        raise InvalidTarget(f"target d={d!r} is not an integer in [1, {m}]")
    if mode not in (LINEAR, CYCLIC):
        raise InvalidTarget(f"bad mode {mode!r}")
    t0 = time.perf_counter()
    if d == 1:  # any ordering attains 1
        return SolveResult(VALUE_FOUND, 1, EdgeOrdering(g, tuple(range(m)), mode),
                           0, (0,) * m, time.perf_counter() - t0)
    h = _on_endpoints(g)  # the same edge ids, tables by vertex sized by them
    degree = degrees(h)
    room = _spacing(h, d, mode == CYCLIC, degree)
    if room is None:
        return SolveResult(NONEXISTENCE_CERTIFIED, None, None, 0, (0,) * m,
                           time.perf_counter() - t0)
    deadline = t0 + budget.max_seconds
    res = _search(h, d, mode, _tables(h, deadline), degree, room, budget.max_nodes,
                  deadline)
    return replace(res, witness=_on_host(g, res.witness),
                   elapsed_seconds=time.perf_counter() - t0)


def _on_host(g: Graph, o: EdgeOrdering | None) -> EdgeOrdering | None:
    """o, a witness found on ``_on_endpoints(g)``, as the same sequence of
    edge ids on g."""
    return o if o is None or o.graph is g else EdgeOrdering(g, o.sequence, o.mode)


def _search(g: Graph, d: int, mode: Mode,
            tables: tuple[list[int], list[int], int, tuple[int, ...]] | None,
            degree: list[int], room: list[int], max_nodes: int, deadline: float,
            heuristic: bool = True) -> SolveResult:
    """Decide target d >= 2 on validated input: budget_exceeded at node
    max_nodes + 1 or at the first checkpoint past ``deadline``, a
    perf_counter value.  ``tables`` is ``_tables(g, deadline)``: None, a
    set-up that ran past the deadline, is budget_exceeded in 0 nodes.
    ``degree`` is ``degrees(g)`` and ``room`` is what ``_spacing`` gives at
    d, not None: the caller refutes that case in 0 nodes.  The greedy restarts run at
    the checkpoints only if ``heuristic``.  The caller times the call:
    ``elapsed_seconds`` is left at 0."""
    m = g.num_edges
    if tables is None:
        return SolveResult(BUDGET_EXCEEDED, None, None, 0, (0,) * m)
    compat, flip, free, window = tables  # free: unplaced, every lower twin placed
    cyclic = mode == CYCLIC
    step = _window_rule(m, d, cyclic, compat, room)
    last = m - 1
    pin = window[:d] or ((0,) if cyclic else ())  # the pinned prefix
    lead = compat  # lead[e]: the edges that may follow e, a pinned one the next
    if len(pin) > 1:
        lead = compat[:]
        for e, f in zip(pin, pin[1:]):
            lead[e] = compat[e] & 1 << f

    # at each index i < p: the placed edge, the untried candidates and X_i
    seq, stack, shared = [0] * m, [0] * m, [0] * m
    p = 0
    cand = 1 << pin[0] if pin else free  # untried at index p; room[0] is all ones
    x = free & room[1]  # X_p: W_0 is index 1's room
    hist = [0] * m
    nodes = placed = 0
    greedy = None  # started at the first checkpoint
    check_at = 1  # the next checkpoint: node 1, each stride, node max_nodes+1

    while cand or p:
        if not cand:  # index p exhausted: backtrack
            p -= 1
            free ^= flip[seq[p]]
            cand = stack[p]
            x = shared[p]
            continue
        bit = cand & -cand
        cand ^= bit
        e = bit.bit_length() - 1
        succ = x & lead[e]  # e's successors, as if e were placed
        hist[p] += 1
        nodes += 1
        if nodes == check_at:
            if nodes > max_nodes or time.perf_counter() > deadline:
                return SolveResult(BUDGET_EXCEEDED, None, None, nodes, tuple(hist),
                                   greedy_placements=placed)
            check_at = min((nodes // _BUDGET_CHECK_STRIDE + 1) * _BUDGET_CHECK_STRIDE,
                           max_nodes + 1)
            if heuristic and nodes > 1 and p < last:  # run one greedy slice
                greedy = greedy or _greedy_restarts(g, d, cyclic, compat, degree, room)
                work, found = next(greedy)
                placed += work
                if found:
                    seq, p = found, m
                    break
        if not succ:
            if p < last:
                continue  # a dead end: counted, never placed
            seq[p], p = e, m  # the last index: a witness
            break
        seq[p] = e
        stack[p] = cand
        shared[p] = x
        free ^= flip[e]
        p += 1
        x = free & step(p - 1, e)
        cand = succ

    if p < m:
        return SolveResult(NONEXISTENCE_CERTIFIED, None, None, nodes,
                           tuple(hist), greedy_placements=placed)
    witness = EdgeOrdering(g, tuple(seq), mode)
    checked = matching_number(witness).value
    if checked < d:  # independent checker must agree; a miss is a solver bug
        raise AssertionError(
            f"witness fails validation: checker value {checked} < target {d}")
    return SolveResult(VALUE_FOUND, d, witness, nodes, tuple(hist),
                       greedy_placements=placed)


def _spacing(g: Graph, d: int, cyclic: bool, degree: list[int]) -> list[int] | None:
    """The spacing rule at d >= 2: ``room[i]``, the edges index i may hold
    (i <= m; index m is never filled), or None if the rule leaves the tree
    empty.  ``degree`` is ``degrees(g)``, taken once per solve; Δ is its
    largest.  Built in O(n + m).

    In an ordering of value >= d, two edges that meet lie at least d apart,
    cyclically in cyclic mode, as any two closer positions share a window:
    the edges at one vertex, a clique of the line graph, are spaced d apart
    (the clique bound of Leung, Vornberger and Witthoff, SIAM J. Comput.
    13, 1984).  Cyclic: r edges at a vertex leave r gaps of at least d
    around the cycle, so r*d <= m.  At Δ*d = m the gaps at a vertex u of
    degree Δ sum to m, so each is exactly d, and u's edges fill one whole
    residue class of positions mod d.  If an edge uv joins two vertices of
    degree Δ, its position lies in both classes, so they are one class;
    the one edge at each of its positions meets both u and v, so every
    edge at u joins u and v.  Hence the tree is empty if such an edge uv
    has fewer than Δ parallel copies: on a simple graph, whenever Δ >= 2
    and two vertices of degree Δ are adjacent.  Linear: r edges span
    (r-1)*d + 1 positions, so r <= R + 1, where m - 1 = R*d + s, 0 <= s <
    d.  At r = R + 1 the i-th edge sits at position 1 + (i-1)*d + t_i,
    with t_1 <= ... <= t_r <= s, so every edge at such a vertex sits at a
    position p with (p-1) mod d <= s.  Hence the tight indices i, those
    with i mod d > s, hold only edges with no endpoint of degree R + 1;
    only edges at a degree-Δ vertex can have one.  There is a tight index iff s < d - 1,
    and then index s + 1 < m is one (d <= m makes R >= 1).

    Every ordering of value >= d satisfies the rule, among them the one
    the rotation pin, the twin order and the first-window pin keep of any
    ordering of value >= d: so the rule holds jointly with those three.
    The tree is empty if a vertex breaks its mode's degree bound, if in
    cyclic mode at Δ*d = m an edge between two vertices of degree Δ has
    fewer than Δ copies, or if in linear mode a tight index may hold no
    edge.
    """
    m = g.num_edges
    top = max(degree)
    full = (1 << m) - 1
    if cyclic:
        if top * d == m and any(
                degree[u] == degree[v] == top and len(g.edge_ids_between(u, v)) < top
                for u, v in zip(g.us, g.vs)):
            return None
        return [full] * (m + 1) if top * d <= m else None
    span, s = divmod(m - 1, d)  # R and s
    if top > span + 1:
        return None
    if top <= span or s == d - 1:  # no vertex or no index is tight
        return [full] * (m + 1)
    loose = 0  # the edges a tight index may hold: no endpoint of degree Δ
    for e, (u, v) in enumerate(zip(g.us, g.vs)):
        if top not in (degree[u], degree[v]):
            loose |= 1 << e
    return [full if i % d <= s else loose for i in range(m + 1)] if loose else None


def _window_rule(m: int, d: int, cyclic: bool, compat: list[int], room: list[int]):
    """The solver's one candidate rule at d >= 2, as ``step(i, e) -> W_{i+1}``.

    Call ``step(i, e)`` when edge e is placed at index i < m-1; pops need no
    call.  W_{i+1} ANDs ``room[i+2]``, the edges ``_spacing`` lets index i+2
    hold, with the compat masks of the edges that index i+2 sees but index
    i+1: indices max(0, i-d+3)..i and, cyclic only, 0..i+d+1-m.  So a
    candidate f of index i+1 has the successors ``free & W_{i+1} &
    compat[f]``; W_0 is ``room[1]``, and index 0 takes every edge.
    Sliding-window ANDs by block prefixes and suffixes (van Herk, Pattern
    Recogn. Lett. 13, 1992; Gil and Werman, IEEE TPAMI 15, 1993): in blocks
    of k = d-1 indices, the window i-k+2..i is ``pre[i] & suf[i+2]``, or
    ``suf[i+2]`` alone where i ends its block.
    ``pre[i]`` ANDs from i's block start to i, ``suf[j+k]`` from j to its
    block's end (all ones where j is a block start or negative), rebuilt in
    O(k) from ``at`` when that end is placed: once per entry into a block.
    The cyclic wrap, in block 0, is ``pre`` at min(i, i+d+1-m); at i = m-2
    any placed mask would do, as index m-1's one candidate has no successor.
    So a call makes at most three ANDs, four if some index is tight, plus
    the rebuild.  Entries past index i go stale on a pop and are rewritten
    before they are read.  Memory: two m-bit masks per position.
    """
    full = (1 << m) - 1
    spaced = min(room) < full  # else skip room's AND
    k = d - 1
    pre = [full] * m
    suf = [full] * (m + k)
    at = [full] * m  # at[i]: the compat mask of the edge at index i
    reach = max(m - d - 1, 0) if cyclic else m  # from i = reach on, it wraps

    def step(i: int, e: int) -> int:
        c = at[i] = compat[e]
        o = i % k
        pre[i] = pre[i - 1] & c if o else c
        if o < k - 1:
            w = pre[i] & suf[i + 2]
        else:  # i ends its block: its suffixes, the last one the window
            w = full
            for j in range(i, i - k + 1, -1):
                w &= at[j]
                suf[j + k] = w
        if spaced:
            w &= room[i + 2]
        return w if i < reach else w & pre[i - reach]

    return step


def _greedy_restarts(g: Graph, d: int, cyclic: bool, compat: list[int],
                     degree: list[int], room: list[int]):
    """Seeded greedy restarts towards an ordering of matching number >= d.

    Runs in slices: each ``next`` resumes the restarts, a cut-off scan
    included, until they have scored _GREEDY_SCANS candidates, and returns
    (edges placed in the slice, finished sequence or None).  Position p
    takes a candidate allowed by ``_window_rule`` (edge 0 opens cyclic
    sequences, twins go in any order) whose two endpoints have the most
    unplaced edges, ties broken by a fixed-seed ``random.Random``.  A
    restart with no candidate left is dropped and the next one begins.
    ``_search`` re-checks finished sequences like any DFS witness.
    ``degree`` and ``room`` are ``_search``'s own.
    """
    m = g.num_edges
    step = _window_rule(m, d, cyclic, compat, room)
    ends = list(zip(g.us, g.vs))
    rand = random.Random(_GREEDY_SEED).random
    full = (1 << m) - 1
    placed = scanned = 0
    while True:  # one restart
        left = degree[:]  # unplaced edges at each vertex
        seq: list[int] = []
        free = full
        cand = 1 if cyclic else full  # room[0] is all ones
        w = room[1]  # W of the index being filled
        while True:
            best = []  # the candidates of top score, ascending id
            top = -1
            while cand:
                bit = cand & -cand
                cand ^= bit
                e = bit.bit_length() - 1
                u, v = ends[e]
                score = left[u] + left[v]
                if score > top:
                    best, top = [e], score
                elif score == top:
                    best.append(e)
                scanned += 1
                if scanned == _GREEDY_SCANS:
                    yield placed, None
                    placed = scanned = 0
            if not best:
                break
            e = best[int(rand() * len(best))]
            seq.append(e)
            free ^= 1 << e
            u, v = ends[e]
            left[u] -= 1
            left[v] -= 1
            placed += 1
            if len(seq) == m:
                yield placed, tuple(seq)
                placed = scanned = 0
                break
            cand = free & compat[e] & w
            w = step(len(seq) - 1, e)


def _tables(g: Graph, deadline: float = math.inf
            ) -> tuple[list[int], list[int], int, tuple[int, ...]] | None:
    """The search's tables, ``(compat, flip, start, window)``, or None once
    ``deadline``, a perf_counter value, has passed.  The masks are built in
    slices of ``_BUDGET_CHECK_STRIDE`` edges (:func:`_slices`), one pass
    for ``flip`` and the incidence masks, one for ``compat`` and the twin
    classes, and the deadline is tested between the slices of a pass.  So
    set-up runs under the time budget too, and a graph of at most one slice
    never tests it.

    ``compat[e]`` is the bitmask of edges sharing no endpoint with e.  It
    is built from per-vertex incidence masks, so e itself and its parallel
    copies, which share both endpoints, are never compatible.

    ``flip[e]`` is the bit of e plus the bit of e's next-higher twin, if
    any, and ``start`` has the bit of every edge but the twins that are
    not the lowest of their class.  Twins are edges e != f with
    ``compat[e] == compat[f]``: every other edge meets both or neither.
    Parallel copies and the pendant edges at one vertex are twins, for
    example.  Each ``1 << e`` is made once, for ``flip`` and the incidence
    masks alike.

    Why the search may place each class in ascending id: the value of an
    ordering depends only on which positions hold edges that meet, and
    swapping two twins keeps which edges meet.  So relabelling each class
    by position, lowest id first, keeps the value of any ordering.  In
    cyclic mode, first rotate edge 0 to position 1, which keeps the value
    too; edge 0 is the lowest id of its class and sits at the first
    position, so the relabelling leaves it there.  Hence an ordering of
    value >= d exists iff one exists that keeps the rotation pin and the
    twin order, and the search visits every prefix of those.

    ``window`` is ``_first_window(g)``, a matching M with M[0] = edge 0, or
    ().  Why the search may place M[:d] at positions 1..d when M is not
    empty and d >= 2, in either mode: take an ordering of value >= d.  Its
    positions 1..d form a window, so they hold d disjoint edges, and d <=
    |M| = ν (if d > ν no such ordering exists, and any pin is sound).  A
    vertex permutation maps them, in order, onto M[0..d-1]: on K_s, send
    the ends of the i-th onto those of M[i] and the other vertices
    anywhere; on K_{A,B}, do the same within A and within B, as every edge
    has one end in each.  Such a permutation maps g onto itself and keeps
    which edges meet, hence the value.  M[0] = edge 0 stands in for the
    rotation pin, and the twin order is empty, as these hosts have no
    twins: edges xy and xz differ on an edge yw, w outside {x, y, z} in K_s
    (s >= 4), w on x's side in K_{A,B}; disjoint edges e and f differ on
    f, which meets f but not e.
    """
    m, us, vs = g.num_edges, g.us, g.vs
    flip: list[int] = []
    incident = [0] * g.order
    for part in _slices(m, deadline):
        bits = [1 << e for e in range(m)[part]]
        flip += bits
        for bit, u, v in zip(bits, us[part], vs[part]):
            incident[u] |= bit
            incident[v] |= bit
    if len(flip) < m:  # the deadline passed
        return None
    start = full = (1 << m) - 1
    compat: list[int] = []
    classes: dict[int, list[int]] = {}
    for part in _slices(m, deadline):
        masks = [full ^ (incident[u] | incident[v]) for u, v in zip(us[part], vs[part])]
        for e, mask in enumerate(masks, part.start):
            classes.setdefault(mask, []).append(e)
        compat += masks
    if len(compat) < m:
        return None
    for ids in classes.values():
        for lo, hi in zip(ids, ids[1:]):  # ascending: flip[hi] is still a bit
            flip[lo] |= flip[hi]
            start ^= flip[hi]
    return compat, flip, start, _first_window(g)


def _slices(m: int, deadline: float) -> Iterator[slice]:
    """Edge ids 0..m-1 in slices of ``_BUDGET_CHECK_STRIDE``; before each
    slice but the first, stop if ``deadline`` has passed."""
    for lo in range(0, m, _BUDGET_CHECK_STRIDE):
        if lo and time.perf_counter() > deadline:
            return
        yield slice(lo, lo + _BUDGET_CHECK_STRIDE)


def _first_window(g: Graph) -> tuple[int, ...]:
    """M, a maximum matching taken greedily in id order, if the edges of g
    form K_s with s >= 4 or K_{A,B} with |A|, |B| >= 2 on its support, the
    vertices of positive degree; else ().  Found in O(n + m) from the edges
    alone, whatever the labels: K_s by the support's size, K_{A,B} by the
    2-colouring that puts the neighbours of edge 0's end b on one side."""
    us, vs, m = g.us, g.vs, g.num_edges
    if g.allow_parallel and len(set(zip(us, vs))) < m:
        return ()
    s = len(set(us) | set(vs))
    if not (s >= 4 and m == s * (s - 1) // 2):  # not K_s; K_{A,B}?
        b = vs[0]
        side = {u if v == b else v for u, v in zip(us, vs) if b in (u, v)}
        if not (2 <= len(side) <= s - 2 and m == len(side) * (s - len(side))
                and all((u in side) != (v in side) for u, v in zip(us, vs))):
            return ()
    covered: set[int] = set()
    pin = []
    for e, (u, v) in enumerate(zip(us, vs)):
        if u not in covered and v not in covered:
            covered |= {u, v}
            pin.append(e)
    return tuple(pin)


def _exact(g: Graph, mode: Mode, budget: SolveBudget,
           seed: EdgeOrdering | None) -> SolveResult:
    m = g.num_edges
    if m == 0:
        raise InvalidTarget("graph has no edges")
    t0 = time.perf_counter()
    deadline = t0 + budget.max_seconds
    if seed is None:
        floor = 1  # any ordering attains 1
    elif seed.graph != g:
        raise InvalidOrdering("the seed is an ordering of another graph")
    else:
        seed = seed if seed.mode == mode else with_mode(seed, mode)
        floor = matching_number(seed).value
    nu = max_matching_size(g)
    if nu > floor:  # else no d is searched
        h = _on_endpoints(g)  # the same edge ids, tables by vertex sized by them
        degree = degrees(h)
    tables = None  # built for the first d that spacing does not refute
    nodes = placed = 0
    hist = [0] * m
    certified: int | None = None
    for d in range(nu, floor, -1):
        room = _spacing(h, d, mode == CYCLIC, degree)
        if room is None:  # refuted in 0 nodes
            certified = d
            continue
        tables = tables or _tables(h, deadline)
        res = _search(h, d, mode, tables, degree, room, budget.max_nodes - nodes,
                      deadline, heuristic=seed is None)
        nodes += res.nodes_explored
        placed += res.greedy_placements
        hist = [a + b for a, b in zip(hist, res.depth_histogram)]
        if res.status != NONEXISTENCE_CERTIFIED:  # found, or out of budget
            # out of budget, a seed is still the best ordering known
            witness = _on_host(g, res.witness) if res.value is not None else seed
            return SolveResult(res.status, res.value, witness, nodes,
                               tuple(hist), time.perf_counter() - t0,
                               certified_upper=certified if res.value is None else None,
                               greedy_placements=placed)
        certified = d
    # every d above the floor refuted: the seed, or any ordering, is optimal
    witness = seed if seed is not None else EdgeOrdering(g, tuple(range(m)), mode)
    return SolveResult(VALUE_FOUND, floor, witness, nodes, tuple(hist),
                       time.perf_counter() - t0, greedy_placements=placed)


def ms_exact(g: Graph, budget: SolveBudget = SolveBudget(),
             seed: EdgeOrdering | None = None) -> SolveResult:
    """Exact matching sequencibility, searching d downward from the
    matching-number upper bound.

    ``seed``, an ordering of g in either mode, is a known witness: its
    linear value L is re-checked, and only the d above L are searched, with
    no greedy restarts.  If all are refuted, or the budget runs out first,
    the result's witness is the seed read in linear mode; out of budget,
    ``value`` stays None.
    """
    return _exact(g, LINEAR, budget, seed)


def cms_exact(g: Graph, budget: SolveBudget = SolveBudget(),
              seed: EdgeOrdering | None = None) -> SolveResult:
    """Exact cyclic matching sequencibility; ``seed`` as in ``ms_exact``,
    its value read in cyclic mode."""
    return _exact(g, CYCLIC, budget, seed)
