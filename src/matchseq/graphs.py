"""Graph values, graph builders, and matching utilities.

Graphs are immutable: a vertex count ``order`` plus a tuple of edges.
Constructing a :class:`Graph` validates it; a graph is accepted iff

* ``order >= 1``;
* edge ids are dense: ``edges[i].id == i``;
* endpoints are normalized and in range: ``0 <= u < v < order``, so loops
  are always rejected;
* no vertex pair appears twice, unless ``allow_parallel`` is set, which is
  needed solely for edge-multiplied multigraphs.

A rejected graph raises ``ValueError`` naming its first faulty edge in id
order (the first edge whose id, endpoints or pair breaks a rule above).

Edge-list text format::

    n m [multi]
    u v          # one line per edge, 0-based, id = line order
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter, lt
from typing import Iterable, NamedTuple

from .errors import FormatError, InvalidFamilyParams, InvalidVertex


class Edge(NamedTuple):
    id: int
    u: int
    v: int

    @property
    def endpoints(self) -> frozenset[int]:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class Graph:
    order: int
    edges: tuple[Edge, ...]
    allow_parallel: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"graph order must be >= 1, got {self.order}")
        edges = self.edges
        if not edges:
            return
        # Each rule as one pass over the edges; only a graph that breaks one
        # runs the per-edge loop, which names the first faulty edge.
        ids, us, vs = itemgetter(0), itemgetter(1), itemgetter(2)
        if not (all(map(eq, map(ids, edges), itertools.count()))
                and all(map(lt, map(us, edges), map(vs, edges)))
                and min(map(us, edges)) >= 0
                and max(map(vs, edges)) < self.order
                and (self.allow_parallel
                     or len(set(map(itemgetter(1, 2), edges))) == len(edges))):
            self._raise_first_fault()

    def _raise_first_fault(self):
        """The per-edge check: raise for the first faulty edge in id order."""
        seen: set[tuple[int, int]] = set()
        for i, e in enumerate(self.edges):
            if e.id != i:
                raise ValueError(f"edge ids must be dense: edges[{i}].id == {e.id}")
            if not (0 <= e.u < e.v < self.order):
                raise ValueError(f"bad edge {e}: need 0 <= u < v < {self.order}")
            if (e.u, e.v) in seen and not self.allow_parallel:
                raise ValueError(f"duplicate edge {{{e.u},{e.v}}} in a simple graph")
            seen.add((e.u, e.v))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _pair_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """``(u, v)`` with ``u < v`` -> ids of the edges joining u and v,
        ascending."""
        index: dict[tuple[int, int], tuple[int, ...]] = {}
        get = index.get
        for i, u, v in self.edges:
            index[u, v] = get((u, v), ()) + (i,)
        return index

    def edge_ids_between(self, a: int, b: int) -> tuple[int, ...]:
        """Ids of all edges with endpoints {a, b} (several when parallel)."""
        return self._pair_index.get((a, b) if a < b else (b, a), ())


def _graph_from_pairs(order: int, pairs: Iterable[tuple[int, int]],
                      allow_parallel: bool = False) -> Graph:
    new = tuple.__new__  # Edge(i, a, b) without the namedtuple's Python-level __new__
    edges = tuple([new(Edge, (i, a, b) if a < b else (i, b, a))
                   for i, (a, b) in enumerate(pairs)])
    return Graph(order, edges, allow_parallel)


def complete(n: int) -> Graph:
    """K_n with lexicographic edge ids: (0,1), (0,2), ..., (n-2,n-1)."""
    if n < 1:
        raise InvalidFamilyParams(f"complete requires n >= 1, got {n}")
    return _graph_from_pairs(n, itertools.combinations(range(n), 2))


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q}: left vertices 0..p-1, right p..p+q-1, ids row-major."""
    if p < 1 or q < 1:
        raise InvalidFamilyParams(f"complete_bipartite requires p,q >= 1, got ({p},{q})")
    pairs = ((i, p + j) for i in range(p) for j in range(q))
    return _graph_from_pairs(p + q, pairs)


def cycle(n: int) -> Graph:
    """C_n with edge e_i = {i, (i+1) mod n} and id i."""
    if n < 3:
        raise InvalidFamilyParams(f"cycle requires n >= 3, got {n}")
    return _graph_from_pairs(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    """P_n with edge e_i = {i, i+1}."""
    if n < 2:
        raise InvalidFamilyParams(f"path requires n >= 2, got {n}")
    return _graph_from_pairs(n, ((i, i + 1) for i in range(n - 1)))


def circulant3(n: int) -> Graph:
    """3-regular bipartite graph on n+n vertices, biadjacency I + P + P^-1.

    Row vertex i is joined to column vertices i-1, i, i+1 (mod n, offset by
    n).  Edge ids run row-major in that listed column order.  For n = 3 the
    edge set coincides with K_{3,3}.
    """
    if n < 3:
        raise InvalidFamilyParams(f"circulant3 requires n >= 3, got {n}")
    pairs = []
    for i in range(n):
        for c in ((i - 1) % n, i, (i + 1) % n):
            pairs.append((i, n + c))
    return _graph_from_pairs(2 * n, pairs)


def multiply(g: Graph, k: int) -> Graph:
    """Multigraph with k parallel copies of every edge of g.

    Copy j of original edge e keeps its endpoints and gets id j*m + e.id.
    """
    if k < 1:
        raise InvalidFamilyParams(f"multiply requires k >= 1, got {k}")
    pairs = [(e.u, e.v) for _ in range(k) for e in g.edges]
    return _graph_from_pairs(g.order, pairs, allow_parallel=True)


def attach_pendants(g: Graph, v: int, t: int) -> Graph:
    """Attach t new degree-1 vertices n..n+t-1 to vertex v."""
    if not (0 <= v < g.order):
        raise InvalidVertex(f"vertex {v} not in [0, {g.order})")
    if t < 1:
        raise InvalidFamilyParams(f"attach_pendants requires t >= 1, got {t}")
    pairs = [(e.u, e.v) for e in g.edges] + [(v, g.order + j) for j in range(t)]
    return _graph_from_pairs(g.order + t, pairs, allow_parallel=g.allow_parallel)


def adjacent(e: Edge, f: Edge) -> bool:
    """True iff two distinct edges share an endpoint.

    Parallel copies share both endpoints and are therefore adjacent.
    """
    return bool(e.endpoints & f.endpoints)


def degrees(g: Graph) -> list[int]:
    deg = [0] * g.order
    for e in g.edges:
        deg[e.u] += 1
        deg[e.v] += 1
    return deg


def _neighbour_sets(g: Graph) -> list[set[int]]:
    """Per-vertex neighbour sets, filled in edge-id order."""
    nbrs: list[set[int]] = [set() for _ in range(g.order)]
    for e in g.edges:
        nbrs[e.u].add(e.v)
        nbrs[e.v].add(e.u)
    return nbrs


def is_connected(g: Graph) -> bool:
    """Connectivity over vertices (isolated vertices count)."""
    neigh = _neighbour_sets(g)
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
    """
    nbrs = _neighbour_sets(g)
    mate = [-1] * g.order
    size = 0
    for v in range(g.order):
        if mate[v] < 0:
            for w in nbrs[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    size += 1
                    break
    for root in range(g.order):
        if mate[root] < 0 and nbrs[root] and _augment(nbrs, mate, root):
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


def write_edge_list(g: Graph) -> str:
    header = f"{g.order} {g.num_edges}"
    if g.allow_parallel:
        header += " multi"
    lines = [header] + [f"{e.u} {e.v}" for e in g.edges]
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises FormatError with line numbers.

    One pass: the first non-comment line is the header, and each later one
    is parsed as an edge when it is read.  So a bad edge line is reported
    before a wrong edge count, which names the header's line.
    """
    header_line = 0
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.strip()
        if not row or row.startswith("#"):
            continue
        if not header_line:
            header_line, parts = lineno, row.split()
            allow_parallel = parts[2:] == ["multi"]
            if len(parts) != 2 + allow_parallel:
                raise FormatError("header must be 'n m' or 'n m multi'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError("header must contain integers", lineno) from None
            continue
        try:
            u_s, v_s = row.split()
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
        pairs.append((u, v))
    if not header_line:
        raise FormatError("empty edge-list file")
    if len(pairs) != m:
        raise FormatError(f"expected {m} edge lines, found {len(pairs)}", header_line)
    try:
        return _graph_from_pairs(n, pairs, allow_parallel)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
