"""Graph values, graph builders, and matching utilities.

Graphs are immutable: a vertex count ``order`` plus two endpoint columns,
the int tuples ``us`` and ``vs``.  Edge i joins ``us[i] < vs[i]``; edge ids
are implicit, the index into the columns.  The builders fill the columns
directly and make no per-edge object.  :attr:`Graph.edges` gives the same
edges as a tuple of :class:`Edge`, but builds that tuple on every access, so
hot code reads ``us``/``vs`` instead.

Constructing a :class:`Graph` validates it; a graph is accepted iff

* ``order >= 1``;
* edge ids are dense: ``edges[i].id == i`` (a rule for the ``edges`` that
  ``Graph(order, edges)`` takes; the columns hold no ids);
* endpoints are normalized and in range: ``0 <= u < v < order``, so loops
  are always rejected;
* no vertex pair appears twice, unless ``allow_parallel`` is set, which is
  needed solely for edge-multiplied multigraphs.

A rejected graph raises ``ValueError`` naming its first faulty edge in id
order (the first edge whose id, endpoints or pair breaks a rule above).
The builders whose pairs are distinct by construction (``complete``,
``complete_bipartite``, ``cycle``, ``path``, ``circulant3``) skip only the
duplicate rule; every graph from outside runs all of them.

A vertex pair ``u < v`` is keyed by the int ``u * order + v``
(:func:`_pair_keys`), in this module only: the duplicate rule counts these
keys, and :meth:`Graph.edge_ids_between`, the one pair lookup that the
ordering reader, the rotation schemes and the matrix view call, reads the
dict ``Graph._pair_index`` from key to ids, built on first use.  The key
is one-to-one only on pairs inside ``[0, order)``: on K_5,
``0*5 + 8 == 1*5 + 3``, so the lookup range-checks a pair before it keys
it, and a pair outside the range is no edge.  The hosts that ``complete``
and ``complete_bipartite`` build key nothing: they declare their edges as
row runs, three int lists of length ``order`` (row a holds the columns
``lo[a] <= b < hi[a]`` at ids ``base[a] + b``), and hold no table per
edge.  Every other graph (read from a file, rebuilt by ``Graph(...)``,
multiplied, with pendants, a cycle, path or circulant) reads the dict.

Edge-list text format: a header line, then one line per edge with 0-based
endpoints; the edge id is the line order, and ``#`` starts a comment only
at the start of a line::

    n m [multi]
    u v

:func:`read_edge_list` reads lines in the form :func:`write_edge_list`
writes (``u v`` in ASCII digits, one space, ``u < v < n``, ``\\n`` ends)
in bulk, a piece of text at a time, and every other line as before, one at
a time, so a faulty line raises the same error with the same line number.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import add, eq, lt, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError, InvalidFamilyParams, InvalidVertex


Rows = tuple[list[int], list[int], list[int]]  # row runs: lo, hi, base


class Edge(NamedTuple):
    id: int
    u: int
    v: int


@dataclass(frozen=True, init=False)
class Graph:
    """A graph as two endpoint columns: edge i joins ``us[i] < vs[i]``.

    ``Graph(order, edges, allow_parallel)`` takes the edges as
    ``Edge(id, u, v)`` tuples and keeps only their endpoints; the builders
    below make the columns directly (:func:`_from_columns`).
    """

    order: int
    us: tuple[int, ...]
    vs: tuple[int, ...]
    allow_parallel: bool = False

    def __init__(self, order: int, edges: Iterable[Edge],
                 allow_parallel: bool = False):
        ids, us, vs = tuple(zip(*edges)) or ((), (), ())
        self._fill(order, us, vs, allow_parallel, ids)

    def _fill(self, order: int, us: tuple[int, ...], vs: tuple[int, ...],
              allow_parallel: bool, ids: tuple[int, ...] | None = None,
              distinct: bool = False, rows: Rows | None = None) -> None:
        """Set the fields and validate them, with the ids the edges were
        given with, if any.  ``distinct`` skips the duplicate-pair rule, for
        builders whose pairs are distinct by construction; ``rows`` are the
        row runs of such a builder, None for a graph looked up by dict."""
        put = object.__setattr__
        put(self, "order", order)
        put(self, "us", us)
        put(self, "vs", vs)
        put(self, "allow_parallel", allow_parallel)
        put(self, "_rows", rows)
        if order < 1:
            raise ValueError(f"graph order must be >= 1, got {order}")
        # Each rule as one pass over the columns; only a graph that breaks
        # one runs the per-edge loop, which names the first faulty edge.
        # The pair keys are counted only once the endpoints are in range.
        if us and not ((ids is None or all(map(eq, ids, count())))
                       and all(map(lt, us, vs)) and min(us) >= 0 and max(vs) < order
                       and (allow_parallel or distinct
                            or len(set(_pair_keys(order, us, vs))) == len(us))):
            self._raise_first_fault(ids)

    def _raise_first_fault(self, ids: tuple[int, ...] | None):
        """The per-edge check: raise for the first faulty edge in id order."""
        order = self.order
        seen: set[int] = set()
        for i, u, v in zip(count(), self.us, self.vs):
            if ids is not None and ids[i] != i:
                raise ValueError(f"edge ids must be dense: edges[{i}].id == {ids[i]}")
            if not (0 <= u < v < order):
                raise ValueError(f"bad edge {Edge(i, u, v)}: need 0 <= u < v < {order}")
            if u * order + v in seen and not self.allow_parallel:
                raise ValueError(f"duplicate edge {{{u},{v}}} in a simple graph")
            seen.add(u * order + v)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge(id, u, v)`` in id order, built anew on every
        access: read ``us``/``vs`` on hot paths."""
        return tuple(map(tuple.__new__, repeat(Edge),
                         zip(count(), self.us, self.vs)))

    @property
    def num_edges(self) -> int:
        return len(self.us)

    @cached_property
    def _pair_index(self) -> dict[int, tuple[int, ...]]:
        """Pair key ``u * order + v`` -> ids of the edges joining u < v,
        ascending.

        The key aliases pairs outside ``[0, order)`` onto edges (on K_5,
        ``0*5 + 8 == 1*5 + 3``), so its one reader, :meth:`edge_ids_between`,
        checks ``0 <= u`` and ``v < order`` before it forms one.  Only
        graphs without row runs build it.  A simple graph has one id per key, so its one-tuples
        come from C-level maps with no Python loop.
        """
        keys = _pair_keys(self.order, self.us, self.vs)
        if not self.allow_parallel:
            return dict(zip(keys, zip(count())))
        index: dict[int, tuple[int, ...]] = {}
        get = index.get
        for i, key in enumerate(keys):
            index[key] = get(key, ()) + (i,)
        return index

    def edge_ids_between(self, a: int, b: int) -> tuple[int, ...]:
        """Ids of all edges with endpoints {a, b}, ascending (several when
        parallel); ``()`` when either endpoint lies outside ``[0, order)``.
        Row runs answer without a key; a == b lies in no run."""
        n = self.order
        if a > b:
            a, b = b, a
        if a < 0 or b >= n:
            return ()
        if self._rows is None:
            return self._pair_index.get(a * n + b, ())
        lo, hi, base = self._rows
        return (base[a] + b,) if lo[a] <= b < hi[a] else ()


def _pair_keys(order: int, us: Iterable[int], vs: Iterable[int]) -> Iterator[int]:
    """The key ``u * order + v`` of each pair ``u < v``; one-to-one on pairs
    with both endpoints in ``[0, order)``."""
    return map(add, map(mul, us, repeat(order)), vs)


def _from_columns(order: int, us: tuple[int, ...], vs: tuple[int, ...],
                  allow_parallel: bool = False, *, distinct: bool = False,
                  rows: Rows | None = None) -> Graph:
    """The graph with edge i joining ``us[i] < vs[i]``, validated like
    ``Graph(order, edges)``.  ``distinct`` skips only the duplicate-pair
    rule; a builder passes it when its docstring shows its pairs distinct,
    and ``rows`` when its docstring shows they hold its edges' ids."""
    g = object.__new__(Graph)
    g._fill(order, us, vs, allow_parallel, distinct=distinct, rows=rows)
    return g


def _graph_from_pairs(order: int, pairs: Iterable[tuple[int, int]],
                      allow_parallel: bool = False) -> Graph:
    ends = [(a, b) if a < b else (b, a) for a, b in pairs]
    us, vs = tuple(zip(*ends)) or ((), ())
    return _from_columns(order, us, vs, allow_parallel)


def complete(n: int) -> Graph:
    """K_n with lexicographic edge ids: (0,1), (0,2), ..., (n-2,n-1).

    The pairs are distinct: they are listed in strictly increasing
    lexicographic order, u ascending and v ascending within each u.  Rows
    0..a-1 hold (n-1) + ... + (n-a) = a(2n-a-1)/2 edges, so row a runs over
    the columns a+1..n-1, and the id of {a < b} is a(2n-a-3)/2 - 1 + b.
    """
    if n < 1:
        raise InvalidFamilyParams(f"complete requires n >= 1, got {n}")
    verts = tuple(range(n))  # u repeated n-1-u times, each next to u+1..n-1
    rows = ([a + 1 for a in verts], [n] * n,
            [a * (2 * n - a - 3) // 2 - 1 for a in verts])
    return _from_columns(n, tuple(chain.from_iterable(map(repeat, verts, verts[::-1]))),
                         tuple(chain.from_iterable(verts[u + 1:] for u in verts)),
                         distinct=True, rows=rows)


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q}: left vertices 0..p-1, right p..p+q-1, ids row-major.

    The pairs are distinct: row u lists each column p..p+q-1 once, and
    edges of different rows differ in u.  So row a < p runs over the columns
    p..p+q-1, and the id of {a, b} is a*q - p + b; the rows a >= p are empty
    runs p..p-1.
    """
    if p < 1 or q < 1:
        raise InvalidFamilyParams(f"complete_bipartite requires p,q >= 1, got ({p},{q})")
    n = p + q
    rows = ([p] * n, [n] * p + [p] * q, [a * q - p for a in range(p)] + [0] * q)
    # row i repeated q times, each next to the columns p..p+q-1
    return _from_columns(n, tuple(chain.from_iterable(map(repeat, range(p), repeat(q, p)))),
                         tuple(range(p, n)) * p, distinct=True, rows=rows)


def cycle(n: int) -> Graph:
    """C_n with edge e_i = {i, (i+1) mod n} and id i.

    The pairs are distinct: e_0..e_{n-2} have distinct u = i, and the
    closing pair (0, n-1) differs from e_0 = (0, 1) because n >= 3.
    """
    if n < 3:
        raise InvalidFamilyParams(f"cycle requires n >= 3, got {n}")
    verts = tuple(range(n))  # e_{n-1} = {n-1, 0} is stored as (0, n-1)
    return _from_columns(n, verts[:-1] + verts[:1], verts[1:] + verts[-1:], distinct=True)


def path(n: int) -> Graph:
    """P_n with edge e_i = {i, i+1}; the pairs are distinct, since their
    u = i are."""
    if n < 2:
        raise InvalidFamilyParams(f"path requires n >= 2, got {n}")
    verts = tuple(range(n))
    return _from_columns(n, verts[:-1], verts[1:], distinct=True)


def circulant3(n: int) -> Graph:
    """3-regular bipartite graph on n+n vertices, biadjacency I + P + P^-1.

    Row vertex i is joined to column vertices i-1, i, i+1 (mod n, offset by
    n).  Edge ids run row-major in that listed column order.  For n = 3 the
    edge set coincides with K_{3,3}.  The pairs are distinct: edges of
    different rows differ in u, and i-1, i, i+1 are three distinct residues
    mod n because n >= 3.
    """
    if n < 3:
        raise InvalidFamilyParams(f"circulant3 requires n >= 3, got {n}")
    cols = tuple(range(n, 2 * n))
    vs = chain.from_iterable((cols[i - 1], cols[i], cols[(i + 1) % n]) for i in range(n))
    return _from_columns(2 * n, tuple(chain.from_iterable(map(repeat, range(n), repeat(3, n)))),
                         tuple(vs), distinct=True)


def multiply(g: Graph, k: int) -> Graph:
    """Multigraph with k parallel copies of every edge of g.

    Copy j of original edge e keeps its endpoints and gets id j*m + e.id.
    """
    if k < 1:
        raise InvalidFamilyParams(f"multiply requires k >= 1, got {k}")
    return _from_columns(g.order, g.us * k, g.vs * k, allow_parallel=True)


def attach_pendants(g: Graph, v: int, t: int) -> Graph:
    """Attach t new degree-1 vertices n..n+t-1 to vertex v."""
    if not (0 <= v < g.order):
        raise InvalidVertex(f"vertex {v} not in [0, {g.order})")
    if t < 1:
        raise InvalidFamilyParams(f"attach_pendants requires t >= 1, got {t}")
    return _from_columns(g.order + t, g.us + (v,) * t,
                         g.vs + tuple(range(g.order, g.order + t)),
                         allow_parallel=g.allow_parallel)


def _on_endpoints(g: Graph) -> Graph:
    """g, or where its order exceeds twice its edges, g on its endpoints
    alone, relabelled 0, 1, ... in ascending order: each edge keeps its id
    and the order of its ends, so a table by vertex of the result is sized
    by the edges.  g must have an edge."""
    if g.order <= 2 * g.num_edges:
        return g
    ends = sorted({*g.us, *g.vs})
    label = dict(zip(ends, count())).__getitem__
    # a one-to-one relabelling keeps g's pairs distinct, or its copies
    return _from_columns(len(ends), tuple(map(label, g.us)), tuple(map(label, g.vs)),
                         g.allow_parallel, distinct=True)


def degrees(g: Graph) -> list[int]:
    deg = [0] * g.order
    for u in g.us:
        deg[u] += 1
    for v in g.vs:
        deg[v] += 1
    return deg


def _neighbour_sets(order: int, us: Sequence[int], vs: Sequence[int]) -> list[set[int]]:
    """Per-vertex neighbour sets of the edges ``us[i] vs[i]`` on vertices
    0..order-1, filled in edge-id order."""
    nbrs: list[set[int]] = [set() for _ in range(order)]
    for u, v in zip(us, vs):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def is_connected(g: Graph) -> bool:
    """Connectivity over vertices (isolated vertices count).  A connected
    graph has at least order - 1 edges, so fewer answer False before any
    table sized by the order is built."""
    if g.num_edges < g.order - 1:
        return False
    neigh = _neighbour_sets(g.order, g.us, g.vs)
    seen = {0}
    stack = [0]
    while stack:
        for w in neigh[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.order


def is_tree(g: Graph) -> bool:
    return not g.allow_parallel and g.num_edges == g.order - 1 and is_connected(g)


def max_matching_size(g: Graph) -> int:
    """Size of a maximum matching, by Edmonds' blossom algorithm.

    Parallel edges never co-occur in a matching, so the computation runs on
    the underlying simple graph.  A greedy pass matches what it can; then
    each vertex left free is the root of one search for an augmenting path
    (:func:`_augment`).  By Edmonds' theorem a vertex with no augmenting
    path keeps having none after later augmentations, so one search per
    root suffices.  Iterative, O(n^3) in the worst case.

    Isolated vertices match nothing: the host is matched on its vertices
    with edges alone, renumbered in ascending order.  So no table outgrows
    O(m), whatever the order.
    """
    index = {v: i for i, v in enumerate(sorted({*g.us, *g.vs}))}
    order = len(index)
    nbrs = _neighbour_sets(order, [index[u] for u in g.us], [index[v] for v in g.vs])
    mate = [-1] * order
    size = 0
    for v in range(order):
        if mate[v] < 0:
            for w in nbrs[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    size += 1
                    break
    for root in range(order):
        if mate[root] < 0 and _augment(nbrs, mate, root):
            size += 1
    return size


def _augment(nbrs: list[set[int]], mate: list[int], root: int) -> bool:
    """Grow an alternating tree from the free vertex root; on reaching
    another free vertex, flip the augmenting path into ``mate``.

    Outer (even) vertices are the root and the mates of inner ones; an
    inner vertex stores in ``parent`` the outer vertex it was reached from.
    An edge between two outer vertices closes an odd cycle, the blossom,
    which is contracted by pointing ``base`` of all its vertices at the
    blossom's base; the inner vertices on it become outer and are queued.
    Its ``parent`` links are rewired so that a path through the blossom can
    still be read back by alternating ``mate`` and ``parent``.
    """
    parent: dict[int, int] = {}
    base = {root: root}  # tree vertices only; others are their own base
    outer = {root}
    queue = [root]
    for v in queue:  # the queue grows while it is read
        for w in nbrs[v]:
            bv, bw = base[v], base.get(w, w)
            if bv == bw or mate[v] == w:
                continue
            if w in outer:
                # two outer vertices: contract the blossom at their common base
                top = _common_base(base, parent, mate, bv, bw)
                blossom: set[int] = set()
                _rewire(base, parent, mate, blossom, v, top, w)
                _rewire(base, parent, mate, blossom, w, top, v)
                for x in list(base):
                    if base[x] in blossom:
                        base[x] = top
                        if x not in outer:
                            outer.add(x)
                            queue.append(x)
            elif w not in parent:
                parent[w] = v
                base[w] = w
                if mate[w] < 0:  # free vertex: flip the path back to root
                    while w >= 0:
                        pv = parent[w]
                        nxt = mate[pv]
                        mate[w], mate[pv] = pv, w
                        w = nxt
                    return True
                x = mate[w]
                base[x] = x
                outer.add(x)
                queue.append(x)
    return False


def _common_base(base: dict[int, int], parent: dict[int, int], mate: list[int],
                 a: int, b: int) -> int:
    """Base of the smallest blossom holding the outer bases a and b: the
    first base on b's path to the root that also lies on a's."""
    on_path = set()
    while True:
        on_path.add(a)
        if mate[a] < 0:  # the root
            break
        a = base[parent[mate[a]]]
    while b not in on_path:
        b = base[parent[mate[b]]]
    return b


def _rewire(base: dict[int, int], parent: dict[int, int], mate: list[int],
            blossom: set[int], v: int, top: int, child: int) -> None:
    """Walk from outer vertex v down to the blossom base top, marking the
    bases passed in ``blossom``.  Each outer vertex passed gets as parent
    the vertex before it on the walk, starting from the far end ``child`` of
    the closing edge, so an augmenting path that later enters the blossom
    there can still be read back to top by alternating mate and parent."""
    while base[v] != top:
        blossom.add(base[v])
        blossom.add(base[mate[v]])
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]


def random_tree(order: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if order < 2:
        raise InvalidFamilyParams(f"random_tree requires order >= 2, got {order}")
    seq = [rng.randrange(order) for _ in range(order - 2)]
    degree = [1] * order
    for x in seq:
        degree[x] += 1
    pairs = []
    for x in seq:
        leaf = min(v for v in range(order) if degree[v] == 1)
        pairs.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    last = [v for v in range(order) if degree[v] == 1]
    pairs.append((last[0], last[1]))
    return _graph_from_pairs(order, pairs)


def _vertex_names(g: Graph) -> list[str] | dict[int, str]:
    """Each vertex that has an edge, formatted once and indexed by vertex:
    a list over ``range(order)`` when that is at most twice the edges, else
    a dict over the endpoints, so the table never outgrows the edges."""
    if g.order <= 2 * g.num_edges:
        return list(map(str, range(g.order)))
    ends = {*g.us, *g.vs}
    return dict(zip(ends, map(str, ends)))


def write_edge_list(g: Graph) -> str:
    header = f"{g.order} {g.num_edges}"
    if g.allow_parallel:
        header += " multi"
    names = _vertex_names(g)
    lines = [header] + [f"{names[u]} {names[v]}" for u, v in zip(g.us, g.vs)]
    return "\n".join(lines) + "\n"


_PIECE = 1 << 16  # characters per piece of edge-list text, about

# The lines ``write_edge_list`` writes after its header: two ASCII
# integers and one space each, ``\n`` ends, the last one optional.
_EDGE_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*(?:[0-9]+ [0-9]+)?")


def _pieces(text: str, size: int) -> Iterator[str]:
    """``text`` in pieces of about ``size`` characters, each ending just
    after a ``\\n``, the first line alone first.  A ``\\n`` ends a line in
    every case (alone or as the end of ``\\r\\n``), so the pieces' lines,
    by ``str.splitlines``, are the text's lines, and no list of all the
    lines is ever held."""
    start, end = 0, len(text)
    stop = text.find("\n") + 1 or end
    while start < end:
        yield text[start:stop]
        start = stop
        stop = text.find("\n", start + size) + 1 or end


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises FormatError with line numbers.

    One pass: the first non-comment line is the header, and each later one
    is parsed into the endpoint columns when it is read.  So a bad edge
    line is reported before a wrong edge count, which names the header's
    line.

    The text is read in pieces (:func:`_pieces`).  After the header, a
    piece whose lines all have the form ``write_edge_list`` writes,
    ``u v`` in ASCII digits with ``u < v < n``, is parsed in bulk; every
    other piece is parsed line by line, with the same errors and line
    numbers as if no piece had been read in bulk.
    """
    header_line = lineno = 0
    us: list[int] = []
    vs: list[int] = []
    for piece in _pieces(text, _PIECE):
        if header_line and _EDGE_LINES.fullmatch(piece):
            try:
                ends = [*map(int, piece.split())]
            except ValueError:  # past the int digit limit: the line's own error
                ends = []
            a, b = ends[0::2], ends[1::2]
            if ends and all(map(lt, a, b)) and max(b) < n:
                us += a
                vs += b
                lineno += len(a)
                continue
        for raw in piece.splitlines():
            lineno += 1
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if not header_line:
                header_line = lineno
                allow_parallel = parts[2:] == ["multi"]
                if len(parts) != 2 + allow_parallel:
                    raise FormatError("header must be 'n m' or 'n m multi'", lineno)
                try:
                    n, m = int(parts[0]), int(parts[1])
                except ValueError:
                    raise FormatError("header must contain integers", lineno) from None
                continue
            try:
                u_s, v_s = parts
            except ValueError:
                raise FormatError("edge line must be 'u v'", lineno) from None
            try:
                u, v = int(u_s), int(v_s)
            except ValueError:
                raise FormatError("edge endpoints must be integers", lineno) from None
            if u == v:
                raise FormatError("loops are not allowed", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"endpoint out of range [0, {n})", lineno)
            if u > v:
                u, v = v, u
            us.append(u)
            vs.append(v)
    if not header_line:
        raise FormatError("empty edge-list file")
    if len(us) != m:
        raise FormatError(f"expected {m} edge lines, found {len(us)}", header_line)
    try:
        return _from_columns(n, tuple(us), tuple(vs), allow_parallel)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
