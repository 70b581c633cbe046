"""Explicit edge orderings achieving the known ms/cms values of named families.

Every function returns an :class:`EdgeOrdering` whose matching number, as
computed by the independent checker, equals the family's known value
exactly.  The schemes:

* complete graphs: rotate a base (near-)perfect matching around the vertex
  circle, concatenating the rotated blocks; for even order the aligned
  blocks form a 1-factorization, for odd order they are the 2m+1
  near-perfect matchings.
* odd complete graphs, linear: the same rotation, applied to a zigzag
  Hamilton cycle traversed by alternate edges (two passes around the odd
  cycle), decomposes the graph into Hamilton cycles and concatenates them.
* doubled odd complete multigraphs: continue the same rotation for a second
  sweep of the Hamilton cycles, which supplies each edge's parallel copy.
* complete bipartite: shift the larger side under a fixed matching of the
  smaller side into it.
* cycles, paths, circulant cubic bipartite: closed-form edge-id sequences,
  each docstring giving its form and the distance it keeps between
  adjacent edges.

The first four are :class:`RotationScheme` sweeps; its docstring proves once
why a sweep whose rotation returns every vertex home after the last block
keeps its linear value when read cyclically.  The biadjacency grids of the
bipartite families appear only in the registry's layouts, which only the
matrix view reads.

The module ends with the family registry ``FAMILIES``: one :class:`Family`
record per named family holding its parameter bounds, host builder,
construction and known value (each taking the mode), biadjacency layout and
verification range.  ``FamilySpec``, ``build_family``, ``family_ordering``,
``biadjacency_layout`` and ``catalog.predicted`` are lookups into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InvalidFamilyParams, NoKnownFormula
from .graphs import (Graph, circulant3, complete, complete_bipartite, cycle,
                     multiply, path)
from .orderings import (CYCLIC, LINEAR, MODES, EdgeOrdering, Mode,
                        matching_number, with_mode)


@dataclass(frozen=True)
class RotationScheme:
    """A base block swept around the vertex circle by a rotation.

    ``base`` is a matching for the cyclic complete-graph schemes and K_{p,q},
    and a Hamilton cycle in alternate-edge order for the Walecki sweeps.
    ``rotation[v]`` is the image theta(v) of vertex v.  Block k is
    theta^k(base), k < ``block_count``; applying the rotation
    ``block_count`` times must map the base block back onto itself as a set,
    which ``ordering()`` checks after its last rotation.  It maps block by
    block the j-th listing of a vertex pair to the pair's j-th parallel
    copy, so a sweep may visit an edge of a multigraph once per copy.

    **The cyclic reading.**  Let s = ``block_size``, c = ``block_count`` and
    m = s*c, and suppose theta^c fixes every vertex, not just the base block
    as a set.  Then position t of the sequence, for every t >= 0 read
    modulo m, holds theta^(t // s) applied to base[t % s].  A cyclic window
    of d <= m - s + 1 positions starting at offset o of block k is therefore
    the theta^k-image of the window of d positions starting at offset o of
    block 0, which does not wrap since o + d <= m.  theta^k is a vertex
    bijection, so it maps matchings to matchings; parallel copies share
    their endpoints, so this holds on multigraphs too.  Every linear window
    is also a cyclic one, so the cyclic reading has the linear value v
    whenever v <= m - s + 1.  Each scheme below has v <= s, and
    s <= m - s + 1 once c >= 2:

    * ``cms_complete_even`` and ``cms_complete_odd``: theta has order c and
      v = m' - 1 <= s, writing m' for the function's parameter;
    * ``cms_doubled_complete_odd``: the rim rotation has order 2m' = c and
      v = m' < s, so ``ms(2K_{2m'+1}) = cms(2K_{2m'+1}) = m'``;
    * ``ms_complete_bipartite``: theta^b is the identity and v <= a = s
      (K_{1,1} is a single edge, m = s = v = 1).

    ``ms_complete_odd_walecki`` stops after m' of the 2m' blocks: theta^m'
    is a half-turn that maps the zigzag cycle onto itself only as a set, so
    the argument does not apply and that sequence is read linearly only.
    """

    base: tuple[tuple[int, int], ...]
    rotation: tuple[int, ...]
    block_count: int

    @property
    def block_size(self) -> int:
        return len(self.base)

    def ordering(self, g: Graph, mode: Mode) -> EdgeOrdering:
        between = g.edge_ids_between
        listed = [0] * g.num_edges  # listings so far, by the pair's first-copy id
        rotation = self.rotation
        seq = []
        block = self.base
        for _ in range(self.block_count):
            for a, b in block:
                ids = between(a, b)
                if not ids:
                    raise ValueError(f"no edge {{{a},{b}}} in graph")
                j = listed[ids[0]]
                if j == len(ids):
                    raise ValueError(f"edge {{{a},{b}}} listed more than {j} time(s)")
                listed[ids[0]] = j + 1
                seq.append(ids[j])
            block = [(rotation[a], rotation[b]) for a, b in block]
        if {frozenset(e) for e in block} != {frozenset(e) for e in self.base}:
            raise ValueError("rotation does not close up after block_count steps")
        return EdgeOrdering(g, tuple(seq), mode)


# ---------------------------------------------------------------------------
# complete graphs, cyclic

def cms_complete_even(m: int) -> EdgeOrdering:
    """Cyclic ordering of K_{2m} with matching number exactly m-1.

    Base perfect matching {0,1},{2,2m-1},{3,2m-2},...,{m,m+1}; vertex 0 is
    the hub, vertices 1..2m-1 rotate by phi(v) = 1 + (v mod (2m-1)).  Block
    k lists phi^k of the base edges, so the 2m-1 aligned blocks are a
    1-factorization of K_{2m}.
    """
    if m < 2:
        raise InvalidFamilyParams(f"cms_complete_even requires m >= 2, got {m}")
    base = ((0, 1),) + tuple((j, 2 * m + 1 - j) for j in range(2, m + 1))
    phi = (0,) + tuple(1 + (v % (2 * m - 1)) for v in range(1, 2 * m))
    scheme = RotationScheme(base, phi, 2 * m - 1)
    return scheme.ordering(complete(2 * m), CYCLIC)


def cms_complete_odd(m: int) -> EdgeOrdering:
    """Cyclic ordering of K_{2m+1} with matching number exactly m-1.

    Base near-perfect matching {1,2m},{2,2m-1},...,{m,m+1} (vertex 0
    isolated), rotated by phi(v) = (v+1) mod (2m+1).  The 2m+1 aligned
    blocks partition the edges and their isolated vertices sweep all of
    0..2m.
    """
    if m < 2:
        raise InvalidFamilyParams(f"cms_complete_odd requires m >= 2, got {m}")
    n = 2 * m + 1
    base = tuple((j, 2 * m + 1 - j) for j in range(1, m + 1))
    phi = tuple((v + 1) % n for v in range(n))
    scheme = RotationScheme(base, phi, n)
    return scheme.ordering(complete(n), CYCLIC)


# ---------------------------------------------------------------------------
# complete graphs of odd order, linear, via Hamilton-cycle decomposition

def _walecki_scheme(m: int, count: int) -> RotationScheme:
    """The first ``count`` rotated Hamilton cycles, each in alternate-edge order.

    The base is the zigzag Hamilton cycle (2m, 0, 1, 2m-1, 2, 2m-2, ...,
    m+1, m) on the hub 2m and the rim 0..2m-1, listed by its edges
    k = 2j mod (2m+1), j = 0..2m, where edge k joins its k-th and (k+1)-th
    vertices.  That alternate-edge traversal of an odd cycle (twice around)
    keeps any m consecutive of its 2m+1 edges disjoint.  theta rotates the
    rim by one step and fixes the hub, and the traversal start is locked at
    edge 0: with that start every window spanning a block boundary is a
    matching as well, which the fixture tests pin down.  The zigzag cycle
    is symmetric under the half-turn theta^m, so both m and 2m blocks close
    up.
    """
    n = 2 * m + 1
    verts = (2 * m, 0, *_ends_inward(range(2 * m - 1, 0, -1)))
    traversal = tuple((verts[2 * j % n], verts[(2 * j + 1) % n]) for j in range(n))
    theta = tuple(range(1, 2 * m)) + (0, 2 * m)
    return RotationScheme(traversal, theta, count)


def ms_complete_odd_walecki(m: int) -> EdgeOrdering:
    """Linear ordering of K_{2m+1} with matching number exactly m.

    Concatenates the m rotated Hamilton cycles in alternate-edge order.
    Read cyclically the same sequence drops below m: theta^m is a half-turn,
    not the identity, so the wrap from the last cycle back to the first is
    no rotated image of a block junction (see :class:`RotationScheme`).
    The doubled-multigraph construction repairs that.
    """
    if m < 2:
        raise InvalidFamilyParams(f"ms_complete_odd_walecki requires m >= 2, got {m}")
    return _walecki_scheme(m, m).ordering(complete(2 * m + 1), LINEAR)


def cms_doubled_complete_odd(m: int) -> EdgeOrdering:
    """Cyclic ordering of the doubled multigraph 2K_{2m+1} with value m.

    Runs the Hamilton-cycle sweep twice: blocks m..2m-1 revisit the same
    cycles rotated onward, covering each edge's parallel copy.  A window
    starting in block k is the theta^k-image of one starting in block 0,
    which lies in the linear sweep's prefix, so the value is m.  The rim
    rotation has order 2m, the block count, so the cyclic reading keeps
    that value (see :class:`RotationScheme`), and so does the linear one:
    ms(2K_{2m+1}) = m.
    """
    if m < 2:
        raise InvalidFamilyParams(f"cms_doubled_complete_odd requires m >= 2, got {m}")
    return _walecki_scheme(m, 2 * m).ordering(multiply(complete(2 * m + 1), 2), CYCLIC)


# ---------------------------------------------------------------------------
# complete bipartite graphs

def ms_complete_bipartite(p: int, q: int, mode: Mode = LINEAR) -> EdgeOrdering:
    """Ordering of K_{p,q} with matching number q-1 (p=q) or min(p,q).

    With sides a <= b, the base block matches the i-th vertex of the smaller
    side to the i-th of the larger, i < a.  theta fixes the smaller side and
    shifts the larger side by +1 when a = b and by -1 otherwise; there are b
    blocks, each a matching, and theta^b is the identity.  A smaller-side
    vertex recurs exactly a positions later.  Square case: a larger-side
    vertex recurs at least a-1 positions later, so the value is q-1.
    Rectangular case: consecutive blocks shift by -1 (mod b), so a
    larger-side vertex recurs at least a+1 positions later and the value is
    a.  The cyclic reading keeps the value (see :class:`RotationScheme`).
    """
    g = complete_bipartite(p, q)
    left, right = range(p), range(p, p + q)
    small, big = (left, right) if p <= q else (right, left)
    shift = 1 if p == q else -1
    rotation = list(range(p + q))
    for j, v in enumerate(big):
        rotation[v] = big[(j + shift) % len(big)]
    scheme = RotationScheme(tuple(zip(small, big)), tuple(rotation), len(big))
    return scheme.ordering(g, mode)


# ---------------------------------------------------------------------------
# cycles and paths

def _ends_inward(xs: Sequence[int]) -> list[int]:
    """xs[-1], xs[0], xs[-2], xs[1], ...: alternately from the back and front."""
    return [xs[j // 2] if j % 2 else xs[~(j // 2)] for j in range(len(xs))]


def cms_cycle(n: int) -> EdgeOrdering:
    """Cyclic ordering of C_n with matching number exactly floor((n-1)/2).

    Edge e_i meets only e_{i-1} and e_{i+1}, so a sequence in which
    consecutive ids sit at least floor((n-1)/2) positions apart, cyclically,
    makes every window of that size a matching.

    * Odd n: e_{2t mod n}, i.e. alternate edges twice around the cycle;
      consecutive ids sit (n-1)/2 positions apart.
    * Even n = 2q, q = 0 (mod 4): e_{((q-1)t - 1) mod n}.  q-1 is odd and
      (q-1)^2 = 1 (mod 2q), so consecutive ids sit q-1 positions apart.
    * Other even n: e_{n-1}, then the odd ids 1..n-3 and then the even ids
      0..n-2, each taken alternately from the back and the front
      (:func:`_ends_inward`); consecutive ids sit q-1 or q positions apart.

    The form for q = 0 (mod 4) is a permutation for every even q.  It is
    kept where it applies because it is the faster one: one affine term per
    id, where the general form builds and interleaves two lists.  On
    C_100000 it makes the sequence in about 0.6 times the general form's
    time (CPython 3.11.7, shared 2-vCPU Xeon), and both reach the same
    value and violating pair.
    """
    g = cycle(n)
    q = n // 2
    if n % 2 == 1:
        seq = [(2 * t) % n for t in range(n)]
    elif q % 4 == 0:
        seq = [((q - 1) * t - 1) % n for t in range(n)]
    else:
        seq = [n - 1, *_ends_inward(range(1, n - 2, 2)),
               *_ends_inward(range(0, n - 1, 2))]
    return EdgeOrdering(g, tuple(seq), CYCLIC)


def _path_sequence(n: int) -> tuple[int, ...]:
    """The path ordering; edge e_i meets only e_{i-1} and e_{i+1}.

    With m = n-1 edges: for odd m, e_{(2+2t) mod m}, where consecutive ids
    sit at least (m-1)/2 positions apart, cyclically too.  For even m,
    the odd ids ascending, then the even ids ascending: consecutive ids sit
    m/2 or m/2+1 positions apart, so m/2-1 apart read cyclically.
    """
    m = n - 1
    if m % 2 == 1:
        return tuple((2 + 2 * t) % m for t in range(m))
    return (*range(1, m, 2), *range(0, m, 2))


def ms_path(n: int) -> EdgeOrdering:
    """Linear ordering of P_n attaining (n-2)/2 (even n) or (n-1)/2 (odd n)."""
    return EdgeOrdering(path(n), _path_sequence(n), LINEAR)


def cms_path(n: int) -> EdgeOrdering:
    """Cyclic reading of the path ordering.

    Even n keeps the linear value (n-2)/2; odd n drops to (n-3)/2, which is
    the best any cyclic ordering of an odd path can do (floor 1 for n = 3).
    """
    return EdgeOrdering(path(n), _path_sequence(n), CYCLIC)


# ---------------------------------------------------------------------------
# circulant cubic bipartite graphs

def ms_circulant3(n: int, mode: Mode = CYCLIC) -> EdgeOrdering:
    """Ordering of circulant3(n) with matching number exactly n-1.

    Row i owns ids 3i, 3i+1, 3i+2, to columns i-1, i, i+1 (mod n).  The
    sequence: the diagonal ids 3i+1 for i < n-1; then 0 and 3n-1, the two
    wrapped corners; then 3r+2, 3r+3 for each odd r < n-1; then 3r, 3r-1
    for each odd r < n.  The last diagonal id 3n-2 goes just before that
    final group for even n and at the very end for odd n.  Any two ids
    sharing a row or a column then sit at least n-1 positions apart, read
    cyclically over the 3n positions, and n-1 is attained.

    It is self-checked: an ordering that misses n-1 raises AssertionError.
    """
    g = circulant3(n)
    seq = [3 * i + 1 for i in range(n - 1)] + [0, 3 * n - 1]
    seq += [x for r in range(1, n - 1, 2) for x in (3 * r + 2, 3 * r + 3)]
    tail = [x for r in range(1, n, 2) for x in (3 * r, 3 * r - 1)]
    seq += [3 * n - 2, *tail] if n % 2 == 0 else [*tail, 3 * n - 2]
    ordering = EdgeOrdering(g, tuple(seq), mode)
    value = matching_number(ordering).value
    if value != n - 1:
        raise AssertionError(
            f"circulant3({n}) ordering fails its self-check: value {value} != {n - 1}")
    return ordering


# ---------------------------------------------------------------------------
# the family registry

@dataclass(frozen=True)
class Family:
    """One named graph family: everything the package knows about it.

    An instance is named by ``arity`` parameters, each at least ``lower``,
    and ``build`` makes its host graph.  ``ordering(*params, mode)`` builds
    the known-value ordering and ``formula(*params, mode)`` gives its
    ``(value, provenance)``, or raises NoKnownFormula for an instance with
    no value on record.  A formula is the family's general closed form;
    ``catalog.predicted`` reports a value below 1 as 1.  ``layout`` gives a
    bipartite host's biadjacency row and column vertex orders.
    ``verify_params`` picks the instances ``catalog.verify_families`` checks
    from its range keywords.
    """

    name: str
    arity: int
    lower: int
    build: Callable[..., Graph]
    ordering: Callable[..., EdgeOrdering]
    formula: Callable[..., tuple[int, str]]
    verify_params: Callable[..., Iterable[tuple[int, ...]]]
    layout: Callable[..., tuple[list[int], list[int]]] | None = None

    def check(self, params: tuple[int, ...]) -> None:
        """Raise InvalidFamilyParams unless ``params`` name an instance."""
        if len(params) != self.arity:
            raise InvalidFamilyParams(
                f"{self.name} takes {self.arity} parameter(s), got {params}")
        if not all(isinstance(p, int) for p in params):
            raise InvalidFamilyParams(
                f"{self.name} takes integer parameters, got {params}")
        if any(p < self.lower for p in params):
            raise InvalidFamilyParams(
                f"{self.name} requires parameters >= {self.lower}, got {params}")


# The records' adapters, value formulas and layouts.  Each formula is the
# family's general closed form; ``catalog.predicted`` floors a value below 1.

def _complete_ordering(n: int, mode: Mode) -> EdgeOrdering:
    if n < 2:
        raise InvalidFamilyParams("complete needs n >= 2 for an ordering")
    if n <= 3:
        g = complete(n)
        return EdgeOrdering(g, tuple(range(g.num_edges)), mode)
    if n % 2 == 0:
        return with_mode(cms_complete_even(n // 2), mode)
    if mode == CYCLIC:
        return cms_complete_odd((n - 1) // 2)
    return ms_complete_odd_walecki((n - 1) // 2)


def _complete_value(n: int, mode: Mode) -> tuple[int, str]:
    if n < 2:
        raise NoKnownFormula("complete graphs below order 2 have no edges")
    if mode == LINEAR:
        return (n - 1) // 2, "ms(K_n) = floor((n-1)/2)"
    return n // 2 - 1, "cms(K_2m) = cms(K_2m+1) = m - 1"


def _complete_bipartite_value(p: int, q: int, mode: Mode) -> tuple[int, str]:
    ms = "ms" if mode == LINEAR else "cms"
    if p == q:
        return q - 1, f"{ms}(K_{{q,q}}) = q - 1"
    return min(p, q), f"{ms}(K_{{p,q}}) = min(p,q) when p != q"


def _even_cycle_layout(n: int) -> tuple[list[int], list[int]]:
    if n % 2 == 1:
        raise InvalidFamilyParams("odd cycles are not bipartite")
    q = n // 2
    return ([2 * (i - 1) for i in range(1, q + 1)],
            [(2 * j - 3) % n for j in range(1, q + 1)])


def _path_value(n: int, mode: Mode) -> tuple[int, str]:
    if mode == LINEAR:
        return (n - 1) // 2, "ms(P_n) = floor((n-1)/2)"
    return (n - 2) // 2, "cms(P_n) = floor((n-2)/2)"


def _path_layout(n: int) -> tuple[list[int], list[int]]:
    return list(range(n - 2, -1, -2)), list(range(n - 1, -1, -2))


def _doubled_complete_ordering(n: int, mode: Mode) -> EdgeOrdering:
    if n < 5 or n % 2 == 0:
        raise InvalidFamilyParams(f"doubled_complete requires odd n >= 5, got {n}")
    return with_mode(cms_doubled_complete_odd((n - 1) // 2), mode)


def _doubled_complete_value(n: int, mode: Mode) -> tuple[int, str]:
    if n < 5 or n % 2 == 0:
        raise NoKnownFormula("doubled complete value on record: odd n >= 5")
    return (n - 1) // 2, "ms(2K_{2m+1}) = cms(2K_{2m+1}) = m"


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("complete", 1, 1, complete,
           ordering=_complete_ordering,
           formula=_complete_value,
           verify_params=lambda max_complete, **_: (
               (n,) for n in range(3, max_complete + 1))),
    Family("complete_bipartite", 2, 1, complete_bipartite,
           ordering=ms_complete_bipartite,
           formula=_complete_bipartite_value,
           verify_params=lambda max_bipartite, **_: (
               (p, q) for p in range(1, max_bipartite + 1)
               for q in range(p, max_bipartite + 1)),
           layout=lambda p, q: (list(range(p)), list(range(p, p + q)))),
    Family("cycle", 1, 3, cycle,
           ordering=lambda n, mode: with_mode(cms_cycle(n), mode),
           formula=lambda n, mode: (
               (n - 1) // 2, "cms(C_n) = ms(C_n) = floor((n-1)/2)"),
           verify_params=lambda max_cycle, **_: (
               (n,) for n in range(3, max_cycle + 1)),
           layout=_even_cycle_layout),
    Family("path", 1, 2, path,
           ordering=lambda n, mode: EdgeOrdering(path(n), _path_sequence(n), mode),
           formula=_path_value,
           verify_params=lambda max_cycle, **_: (
               (n,) for n in range(2, max_cycle + 1)),
           layout=_path_layout),
    Family("circulant3", 1, 3, circulant3,
           ordering=ms_circulant3,
           formula=lambda n, mode: (
               n - 1, "cms = ms = n - 1 for the I+P+P^-1 cubic bipartite graph"),
           verify_params=lambda max_circulant, **_: (
               (n,) for n in range(3, max_circulant + 1)),
           layout=lambda n: (list(range(n)), list(range(n, 2 * n)))),
    Family("doubled_complete", 1, 1, lambda n: multiply(complete(n), 2),
           ordering=_doubled_complete_ordering,
           formula=_doubled_complete_value,
           verify_params=lambda doubled_ms, **_: ((2 * m + 1,) for m in doubled_ms)),
)}


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic description of a named graph family instance."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidFamilyParams(f"unknown family {self.family!r}")
        FAMILIES[self.family].check(self.params)


def build_family(spec: FamilySpec) -> Graph:
    """Instantiate a family spec with its canonical vertex/edge indexing."""
    return FAMILIES[spec.family].build(*spec.params)


def biadjacency_layout(spec: FamilySpec) -> tuple[list[int], list[int]]:
    """Row/column vertex order under which the constructions' matrices print.

    Only bipartite-representable families have one: complete_bipartite,
    circulant3, even cycles, and paths.
    """
    layout = FAMILIES[spec.family].layout
    if layout is None:
        raise InvalidFamilyParams(f"{spec.family} has no biadjacency layout")
    return layout(*spec.params)


def family_ordering(family: str, params: tuple[int, ...], mode: Mode) -> EdgeOrdering:
    """Dispatch a family name + parameters + mode to its construction.

    Raises InvalidFamilyParams for an unknown family or parameters out of
    bounds or without a construction (e.g. even-order doubled complete),
    and ValueError for a mode outside MODES.
    """
    FamilySpec(family, params)  # validates name and bounds
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return FAMILIES[family].ordering(*params, mode)
