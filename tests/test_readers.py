"""The edge-list and ordering readers against per-line and per-token
references: the same graph or ordering, or the same error, on seeded
random texts, and the bulk paths taken on the writers' own output."""

import random
import tracemalloc
from typing import Iterator

import pytest

from matchseq import (CYCLIC, LINEAR, complete, complete_bipartite, cycle, multiply,
                      path, read_edge_list, read_ordering, write_edge_list,
                      write_ordering)
from matchseq import graphs
from matchseq.constructions import cms_complete_even
from matchseq.errors import FormatError, InvalidOrdering
from matchseq.graphs import Graph, _from_columns, _graph_from_pairs
from matchseq.orderings import EdgeOrdering, Mode


# ---------------------------------------------------------------------------
# references: the readers as they were before the bulk paths, line by line
# and token by token

def _lines(text: str, chunk: int = 1 << 16) -> Iterator[str]:
    """The lines of ``text`` exactly as ``text.splitlines()`` gives them,
    split one chunk of about ``chunk`` characters at a time, so that no list
    of all the lines is ever held.  A chunk ends just after a ``\\n``,
    which ends a line in every case (alone or as the end of ``\\r\\n``), so
    the chunks' lines are the text's lines."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + chunk) + 1 or end
        yield from text[start:stop].splitlines()
        start = stop


def reference_read_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises FormatError with line numbers.

    One pass: the first non-comment line is the header, and each later one
    is parsed into the endpoint columns when it is read.  So a bad edge
    line is reported before a wrong edge count, which names the header's
    line.
    """
    header_line = 0
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(_lines(text), start=1):
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


def reference_read_ordering(text: str, g: Graph, mode: Mode) -> EdgeOrdering:
    tokens = text.split()
    if len(tokens) != g.num_edges:
        raise FormatError(
            f"expected {g.num_edges} ordering tokens, found {len(tokens)}", 1)
    between = g.edge_ids_between
    seq = []
    for k, token in enumerate(tokens):
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
        seq.append(ids[j])
    try:
        return EdgeOrdering(g, tuple(seq), mode)
    except InvalidOrdering as exc:
        raise FormatError(str(exc), 1) from None


def _outcome(read, *args):
    """What a reader gives: its value, or its error's type, message and line."""
    try:
        return read(*args)
    except Exception as exc:  # noqa: BLE001 - any error must match the reference's
        return type(exc), str(exc), getattr(exc, "line", None)


# ---------------------------------------------------------------------------
# edge lists

_ENDS = ["\n"] * 12 + ["\r\n", "\r", "\x0b", "\u2028", " "]


def _endpoint(rng: random.Random, x: int) -> str:
    """x as a token that ``int`` reads as x: mostly plain, sometimes with
    leading zeros, a plus sign, an underscore or an Arabic-Indic digit."""
    s = str(x)
    kind = rng.randrange(24)
    if kind == 0:
        return "00" + s
    if kind == 1:
        return "+" + s
    if kind == 2 and len(s) > 1:
        return s[0] + "_" + s[1:]
    if kind == 3:
        return s.replace("3", "\u0663")
    return s


def _edge_line(rng: random.Random, n: int, u: int, v: int) -> str:
    """An edge line for {u, v}: mostly canonical, sometimes in another form
    that reads the same, sometimes faulty."""
    kind = rng.randrange(40)
    if kind == 0:
        return f"{v} {u}"  # swapped
    if kind == 1:
        return f"{_endpoint(rng, u)} {_endpoint(rng, v)}"
    if kind == 2:
        return f"\t{u}  {v} "  # tabs and double spaces
    if kind == 3:
        return f"{u} {u}"  # a loop
    if kind == 4:
        return f"{u} {n + rng.randrange(3)}"  # out of range
    if kind == 5:
        return rng.choice([f"{u}", f"{u} {v} {v}"])  # 1 or 3 tokens
    if kind == 6:
        return f"{u} " + "1" * 5000  # past the int digit limit, if any
    if kind == 7:
        return f"{u} -{v}"
    return f"{u} {v}"


def _edge_list_text(rng: random.Random) -> str:
    n = rng.randint(1, 14)
    multi = rng.random() < 0.3
    pairs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 30))] \
        if n > 1 else []
    if not multi and rng.random() < 0.7:  # duplicates only now and then
        pairs = list(dict.fromkeys(pairs))
    m = len(pairs) + (rng.random() < 0.1) * rng.choice([-1, 1])
    lines = []
    for _ in range(rng.choice([0, 0, 0, 1, 2])):  # before the header
        lines.append(rng.choice(["", "# c", "  ", "#"]))
    lines.append(f"{n} {m}" + (" multi" if multi else ""))
    for u, v in pairs:
        if rng.random() < 0.08:  # after the header
            lines.append(rng.choice(["", "# c 1 2", " ", "#0 1"]))
        lines.append(_edge_line(rng, n, u, v) if rng.random() < 0.5
                     else f"{u} {v}")
    text = "".join(line + rng.choice(_ENDS) for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\n")  # no final newline
    return text


def _edge_list_corpus():
    rng = random.Random(31)
    return [_edge_list_text(rng) for _ in range(400)]


@pytest.mark.parametrize("size", [1, 2, 5, 11, 23, 64, 1 << 16])
def test_read_edge_list_agrees_with_the_line_by_line_reference(monkeypatch, size):
    monkeypatch.setattr(graphs, "_PIECE", size)
    outcomes = {"graph": 0, "error": 0}
    for text in _edge_list_corpus():
        want = _outcome(reference_read_edge_list, text)
        assert _outcome(read_edge_list, text) == want, text
        outcomes["graph" if isinstance(want, Graph) else "error"] += 1
    assert min(outcomes.values()) > 100  # both kinds well covered


@pytest.mark.parametrize("size", [1, 7, 1 << 16])
def test_read_edge_list_agrees_on_the_writers_hosts(monkeypatch, size):
    monkeypatch.setattr(graphs, "_PIECE", size)
    hosts = [complete(1), complete(2), complete(9), complete_bipartite(3, 5), cycle(12),
             path(2), multiply(complete(4), 3), Graph(50, ()),
             _graph_from_pairs(1000, [(999, 3), (0, 998)])]
    for g in hosts:
        text = write_edge_list(g)
        assert read_edge_list(text) == reference_read_edge_list(text) == g
        for cut in (text.rstrip("\n"), text.replace(" ", "  ", 1), "# c\n" + text):
            assert _outcome(read_edge_list, cut) == _outcome(reference_read_edge_list, cut)


# ---------------------------------------------------------------------------
# orderings

def _ordering_hosts() -> list[Graph]:
    return [complete(5), complete(6), complete_bipartite(2, 3), complete_bipartite(3, 1),
            cycle(7), path(5), multiply(complete(4), 2), multiply(path(3), 3),
            # a multigraph with single and copied pairs
            _graph_from_pairs(5, [(0, 1), (1, 2), (0, 1), (3, 4), (2, 3), (0, 1), (3, 4)],
                              allow_parallel=True),
            _graph_from_pairs(20, [(19, 2), (4, 7), (2, 4)])]


def _bad_token(rng: random.Random, g: Graph, eid: int, tokens: list[str]) -> str:
    """Another token for edge ``eid``, in a form the writer never uses or
    faulty."""
    u, v = g.us[eid], g.vs[eid]
    copies = len(g.edge_ids_between(u, v))
    kind = rng.randrange(9)
    if kind == 0:
        return f"{v}-{u}" + tokens[eid][len(f"{u}-{v}"):]  # swapped, copy kept
    if kind == 1:
        return f"{u}-{v}#0" if copies == 1 else f"{u}-{v}"  # same edge, not the writer's
    if kind == 2:
        return f"{u}-{v}#{rng.choice([copies, copies + 3, -1])}"  # copy out of range
    if kind == 3:
        return rng.choice(["0-8", f"{u}-{g.order + 3}", f"{u}-{u}"])  # no such edge
    if kind == 4:
        return rng.choice(["x", f"{u}-", "-", f"{u}-{v}#a", f"{u}--{v}", f"{u}-{v}#0#1"])
    if kind == 5:
        return rng.choice(tokens)  # a duplicate, unless it is this edge's
    if kind == 6:
        return f"+{u}-0{v}" + tokens[eid][len(f"{u}-{v}"):]
    if kind == 7:
        return f"{u}-{v}#+0" if copies > 1 else f"{u}-{v}#-0"
    return tokens[eid]


def _ordering_corpus():
    rng = random.Random(31)
    for g in _ordering_hosts():
        tokens = write_ordering(EdgeOrdering(g, tuple(range(g.num_edges)), LINEAR)).split()
        for _ in range(60):
            seq = list(range(g.num_edges))
            rng.shuffle(seq)
            out = [tokens[e] if rng.random() < 0.85 else _bad_token(rng, g, e, tokens)
                   for e in seq]
            if rng.random() < 0.05:
                out.pop(rng.randrange(len(out)))  # a wrong count
            elif rng.random() < 0.05:
                out.append(rng.choice(tokens))
            sep = rng.choice([" ", " ", "  ", "\n", "\t "])
            yield g, sep.join(out) + rng.choice(["\n", "", " \n"]), rng.choice([LINEAR, CYCLIC])


def test_read_ordering_agrees_with_the_token_by_token_reference():
    outcomes = {"ordering": 0, "error": 0}
    for g, text, mode in _ordering_corpus():
        want = _outcome(reference_read_ordering, text, g, mode)
        assert _outcome(read_ordering, text, g, mode) == want, (g, text)
        outcomes["ordering" if isinstance(want, EdgeOrdering) else "error"] += 1
    assert min(outcomes.values()) > 150  # both kinds well covered


# ---------------------------------------------------------------------------
# the bulk paths on the writers' output: taken, and no dearer in memory

def test_edge_list_lines_in_the_writers_form_skip_the_line_parse(monkeypatch):
    parsed: list[str] = []  # the pieces split into lines, one at a time

    class Piece(str):
        def splitlines(self, *args):
            parsed.append(str(self))
            return super().splitlines(*args)

    pieces = graphs._pieces
    monkeypatch.setattr(graphs, "_pieces", lambda text, size: map(Piece, pieces(text, size)))
    g = complete(400)
    text = write_edge_list(g)
    assert read_edge_list(text) == g
    assert parsed == ["400 79800\n"]  # the header alone
    parsed.clear()
    assert read_edge_list(text.replace("\n0 1\n", "\n1 0\n")) == g
    assert len(parsed) == 2 and parsed[1].startswith("1 0\n")  # one piece line by line


def test_ordering_tokens_in_the_writers_form_skip_the_token_parse(monkeypatch):
    o = cms_complete_even(200)
    calls = []
    between = Graph.edge_ids_between

    def counted(self, a, b):
        calls.append((a, b))
        return between(self, a, b)

    monkeypatch.setattr(Graph, "edge_ids_between", counted)
    text = write_ordering(o)
    assert read_ordering(text, o.graph, CYCLIC).sequence == o.sequence
    assert not calls  # K400 names and reads its tokens without a lookup
    swapped = f" {text}".replace(" 0-1 ", " 1-0 ")
    assert read_ordering(swapped, o.graph, CYCLIC).sequence == o.sequence
    assert calls == [(1, 0)]  # the one token not in the writer's form
    calls.clear()
    multi = multiply(cycle(5), 2)
    text = write_ordering(EdgeOrdering(multi, tuple(reversed(range(10))), LINEAR))
    written = len(calls)  # one lookup per distinct pair, to number the copies
    assert read_ordering(text, multi, LINEAR).sequence == tuple(reversed(range(10)))
    assert len(calls) == 2 * written == 10


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_readers_peak_no_higher_on_k400():
    # the line-by-line readers peaked at 12.49 and 14.62 MiB
    o = cms_complete_even(200)
    assert _peak(read_edge_list, write_edge_list(o.graph)) <= 13 << 20
    assert _peak(read_ordering, write_ordering(o), o.graph, CYCLIC) <= 15 << 20
