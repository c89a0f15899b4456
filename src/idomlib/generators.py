"""Graph family constructors: cycles, paths, the directed wheel and paw, the
layered subset families D_{h,k}, Cartesian products, antiparallel doubling,
and seeded random instances for property tests."""

from __future__ import annotations

import math
import random
from itertools import accumulate, chain, repeat
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .digraph import _MAX_ARCS, _MAX_VERTICES, Digraph, _check_vertices, _Record, is_ids
from .structure import _analyze

__all__ = [
    "DhkGraph",
    "DhkSpec",
    "GenerationError",
    "UndirectedGraph",
    "cartesian_product",
    "cn_box_cn_ids",
    "double_edges",
    "gen_cycle",
    "gen_dhk",
    "gen_path",
    "gen_paw",
    "gen_wheel",
    "random_dag",
    "random_digraph",
    "random_layered_strong",
    "random_oriented_bipartite",
]


class GenerationError(ValueError):
    """A constructed instance failed its structural checks."""


_MAX_ATTEMPTS = 64  # resamplings of random_layered_strong before it gives up
# The most pair tests one call of a random generator may draw (all 64
# samples of random_layered_strong count): at about 40 ns a test, some 4 s.
_MAX_PAIRS = 10**8
_CHUNK = 1 << 15  # pair tests drawn per getrandbits call (256 KiB of words)


def gen_cycle(n: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0. n=2 is an antiparallel pair."""
    if n < 2:
        raise ValueError("cycle needs at least 2 vertices")
    _check_vertices(n, "cycle")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Digraph:
    """Directed path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    _check_vertices(n, "path")
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def gen_wheel(n: int) -> Digraph:
    """Directed wheel on n+1 vertices: vertex n is a dominating center with an
    arc to every rim vertex, and the rim 0..n-1 is a directed cycle."""
    if n < 3:
        raise ValueError("wheel rim needs at least 3 vertices")
    _check_vertices(n + 1, "wheel")
    arcs = [(i, (i + 1) % n) for i in range(n)]
    arcs.extend((n, i) for i in range(n))
    return Digraph(n + 1, arcs)


def gen_paw() -> Digraph:
    """Oriented paw: pendant vertex 0 feeding the directed triangle 1 -> 2 -> 3 -> 1
    at vertex 3."""
    return Digraph(4, [(0, 3), (1, 2), (2, 3), (3, 1)])


class DhkSpec(_Record):
    """Parameters of the layered subset family: h odd >= 3, k >= 2; immutable."""

    __slots__ = ("h", "k", "variant")

    def __init__(self, h: int, k: int, variant: str = "ids_free") -> None:
        if h < 3 or h % 2 == 0:
            raise ValueError("h must be odd and at least 3")
        if k < 2:
            raise ValueError("k must be at least 2")
        if variant not in ("ids_free", "with_ids"):
            raise ValueError(f"unknown variant {variant!r}")
        for name, value in zip(self.__slots__, (h, k, variant)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class DhkGraph(NamedTuple):
    """A constructed D_{h,k} instance with its intended layer labeling and the
    realized structural diagnostics."""

    graph: Digraph
    layers: tuple[tuple[int, ...], ...]
    spec: DhkSpec
    strongly_connected: bool
    period: int


def _dhk_members(spec: DhkSpec) -> list[bool | None]:
    """One rule per layer transition i -> i+1 mod h. True joins each label
    to the subsets that contain it, False to those that do not, from the
    label layer to the subset layer or back; None joins each subset to
    itself."""
    h = spec.h
    members = [True, None, True] if h == 3 else [True, None] + [False] * (h - 4) + [True, False]
    if spec.variant == "with_ids":
        flip_at = 0 if h == 3 else h - 2
        members[flip_at] = not members[flip_at]
    return members


def gen_dhk(spec: DhkSpec, strict: bool = True) -> DhkGraph:
    """Layered graph with h layers alternating between k labeled vertices and
    the nonempty proper subsets of {1..k}, arcs by per-transition membership
    rules. Layer S_0 starts at vertex id 0; subset layers are ordered by
    ascending subset bitmask.

    Small parameters can degenerate (k=2 collapses the construction into
    plain cycles that may be disconnected or have a larger period); with
    ``strict`` the degenerate outcome raises, otherwise it is returned with
    its diagnostics filled in.
    """
    h, k = spec.h, spec.k
    # (h - 1) / 2 label layers and (h + 1) / 2 >= 2 subset layers; every
    # k >= 18 exceeds the guard, so capping k there keeps 1 << k small
    n = (h - 1) // 2 * k + (h + 1) // 2 * ((1 << min(k, 18)) - 2)
    if n > _MAX_VERTICES:
        raise ValueError(f"D_({h},{k}) has more than {_MAX_VERTICES} vertices")
    # layer 0 and the odd layers from 3 on hold labels 1..k; the others hold
    # the subset masks 1 .. 2^k - 2, ascending
    is_label = [i == 0 or i > 2 and i % 2 == 1 for i in range(h)]
    layers: list[range] = []
    for label in is_label:
        start = layers[-1].stop if layers else 0
        layers.append(range(start, start + (k if label else (1 << k) - 2)))

    arcs: list[tuple[int, int]] = []
    for i, member in enumerate(_dhk_members(spec)):
        source, target = layers[i], layers[(i + 1) % h]
        if member is None:  # both subset layers list the masks in one order
            arcs += zip(source, target)
            continue
        forward = is_label[i]
        labels, subsets = (source, target) if forward else (target, source)
        for p, a in enumerate(labels):
            bit = 1 << p  # label p + 1
            hits = [s for mask, s in enumerate(subsets, 1) if bool(mask & bit) == member]
            arcs += [(a, s) for s in hits] if forward else [(s, a) for s in hits]
    graph = Digraph(n, arcs)

    analysis = _analyze(graph)
    connected, realized = analysis.strong, analysis.period
    result = DhkGraph(
        graph, tuple(tuple(layer) for layer in layers), spec, connected, realized
    )
    if strict and not (connected and realized == h):
        raise GenerationError(
            f"D_({h},{k}) [{spec.variant}] degenerated: "
            f"strongly_connected={connected}, period={realized}; "
            "pass strict=False to accept the instance as constructed"
        )
    return result


def cartesian_product(g: Digraph, h: Digraph) -> Digraph:
    """Cartesian product: (x, u) -> (y, u) for arcs x -> y, and (x, u) -> (x, v)
    for arcs u -> v. Vertex (x, u) gets id x * h.n + u (row-major)."""
    n, k = g.n * h.n, h.n
    _check_vertices(n, "product")
    m = g.m * k + h.m * g.n
    if m > _MAX_ARCS:
        raise ValueError(f"product with {m} arcs exceeds the arc cap of {_MAX_ARCS}")
    arcs = [
        (x * k + u, y * k + u) for x, ys in enumerate(g.out_adj) for y in ys for u in range(k)
    ]
    arcs += [
        (x * k + u, x * k + v) for u, vs in enumerate(h.out_adj) for v in vs for x in range(g.n)
    ]
    return Digraph(n, arcs)


class UndirectedGraph(NamedTuple):
    """Simple undirected graph; edges stored as (u, v) with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {u}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((min(u, v), max(u, v)))
        return cls(n, frozenset(canon))


def double_edges(graph: UndirectedGraph) -> Digraph:
    """Replace every undirected edge with a pair of antiparallel arcs.

    Independence and domination of any vertex set are preserved exactly, so
    this reduces the undirected problems to the directed ones.
    """
    arcs = []
    for u, v in graph.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(graph.n, arcs)


def cn_box_cn_ids(n: int) -> frozenset[int]:
    """An explicit independent dominating set of C_n x C_n for odd n: in row i
    take columns i, i+2, ..., i+2(floor(n/2)-1) mod n. Verified before return.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    product = cartesian_product(gen_cycle(n), gen_cycle(n))
    members = frozenset(
        i * n + (i + 2 * j) % n for i in range(n) for j in range(n // 2)
    )
    if not is_ids(product, members).ids:
        raise GenerationError(f"the row construction for n={n} is not a solution")
    return members


def _seeded(vertices: int, pairs: int, arc_prob: float, seed: int, sample: int) -> random.Random:
    """The checks of a random generator, made before anything is drawn or
    allocated, then its stream. ``pairs`` counts every pair test the call
    may draw, ``sample`` those of one graph it builds, whose expected arc
    count ``arc_prob * sample`` the arc cap bounds."""
    _check_vertices(vertices)
    if pairs > _MAX_PAIRS:
        raise ValueError(f"up to {pairs} pair tests exceed the cap of {_MAX_PAIRS} per graph")
    if not 0 <= arc_prob <= 1:  # also false for NaN
        raise ValueError(f"arc probability must be in [0, 1], got {arc_prob}")
    if arc_prob * sample > _MAX_ARCS:
        raise ValueError(
            f"an expected {arc_prob * sample:.0f} arcs exceed the arc cap of {_MAX_ARCS} per graph"
        )
    return random.Random(seed)


def _hits(rng: random.Random, count: int, p: float) -> Iterator[int]:
    """The ascending t < count for which the t-th of ``count`` calls
    ``rng.random() < p`` would hold. Drawn a chunk at a time as they are
    read, so only one chunk's indices are held; read to the end, it leaves
    ``rng`` where those calls would.

    ``random()`` is X / 2^53 with X = (w0 >> 5) << 26 | w1 >> 6, built from
    two consecutive Mersenne Twister words, and ``getrandbits`` hands out
    the same words in the same order, low word first. So a test holds
    exactly when X < ceil(p * 2^53). The top byte of w0 is X >> 45: below
    the limit's top byte the test holds, above it fails, and only a tie
    needs X itself.
    """
    limit = math.ceil(p * 2.0**53)
    cut = limit >> 45
    below = b"\x01" * cut + bytes(256 - cut)  # marks a top byte under the cut

    def chunks() -> Iterator[list[int]]:
        for start in range(0, count, _CHUNK):
            size = min(_CHUNK, count - start)
            words = rng.getrandbits(64 * size).to_bytes(8 * size, "little")
            tops = words[3::8]
            # a sure hit lies one past the run of misses before it
            steps = map(add, map(len, tops.translate(below).split(b"\x01")), repeat(1))
            found = list(accumulate(steps, initial=start - 1))[1:-1]
            ties = []
            i = tops.find(cut) if cut < 256 else -1
            while i >= 0:
                x = int.from_bytes(words[8 * i : 8 * i + 8], "little")
                if ((x & 0xFFFFFFFF) >> 5 << 26 | x >> 38) < limit:
                    ties.append(start + i)
                i = tops.find(cut, i + 1)
            yield sorted(found + ties) if ties else found

    return chain.from_iterable(chunks())


def random_dag(n: int, arc_prob: float, seed: int) -> Digraph:
    """Acyclic: arcs only follow a random vertex order. The pairs i < j of
    order positions are tested in lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = n * (n - 1) // 2
    rng = _seeded(n, pairs, arc_prob, seed, pairs)
    order = list(range(n))
    rng.shuffle(order)

    def arcs() -> Iterator[tuple[int, int]]:
        # row i holds the pair indices up to end - 1, the last n - 1 - i of
        # them, and pair t of row i goes to position t - end + n
        i, end = 0, n - 1
        for t in _hits(rng, pairs, arc_prob):
            while t >= end:
                i += 1
                end += n - 1 - i
            yield order[i], order[t - end + n]

    return Digraph(n, arcs())


def random_digraph(n: int, arc_prob: float, seed: int) -> Digraph:
    """Each ordered pair becomes an arc independently; the pairs u != v are
    tested in lexicographic order, so row u holds the pair indices from
    u * (n - 1) up to (u + 1) * (n - 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = n * (n - 1)
    hits = _hits(_seeded(n, pairs, arc_prob, seed, pairs), pairs, arc_prob)
    # pair j of row u goes to vertex j, or one further past u itself
    return Digraph(n, ((u, j + (j >= u)) for u, j in map(divmod, hits, repeat(n - 1))))


def random_oriented_bipartite(a: int, b: int, arc_prob: float, seed: int) -> Digraph:
    """Parts 0..a-1 and a..a+b-1; each cross pair gets at most one arc, in a
    random direction, so there are never antiparallel pairs. Drawn one
    ``random()`` call at a time: each hit draws its direction next, so the
    pair tests are not consecutive in the stream."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    rng = _seeded(a + b, a * b, arc_prob, seed, a * b)
    arcs = []
    for x in range(a):
        for y in range(a, a + b):
            if rng.random() < arc_prob:
                arcs.append((x, y) if rng.random() < 0.5 else (y, x))
    return Digraph(a + b, arcs)


def random_layered_strong(h: int, layer_size: int, arc_prob: float, seed: int) -> Digraph:
    """Strongly connected with period exactly h: layers of equal size, arcs
    only between consecutive layers. A spanning cycle through all vertices
    guarantees strong connectivity (and a period divisible by h); random
    extra arcs are added, resampling until the period is exactly h. Each
    sample tests the pairs (vertex j of layer i, vertex j2 of layer i + 1)
    in lexicographic order of (i, j, j2). With more than one vertex a layer,
    a sample that adds no arc is the bare cycle, of period h * layer_size,
    and is skipped unbuilt; with ``arc_prob`` 0 every sample is, so the call
    gives up before drawing any."""
    if h < 1 or layer_size < 1:
        raise ValueError("h and layer_size must be positive")
    if h == 1:
        raise ValueError("layers need h >= 2 (a single layer admits no arcs)")
    s = layer_size
    pairs = h * s * s
    rng = _seeded(h * s, _MAX_ATTEMPTS * pairs, arc_prob, seed, pairs)
    vertex = lambda i, j: i * s + j
    cycle = []
    for i in range(h):
        nxt = (i + 1) % h
        for j in range(s):
            target = (j + 1) % s if i == 0 else j
            cycle.append((vertex(i, j), vertex(nxt, target)))
    for _ in range(_MAX_ATTEMPTS if arc_prob or s == 1 else 0):
        # pair t joins vertex t // s, in layer t // s^2, to vertex t % s of
        # the next layer
        hits = _hits(rng, pairs, arc_prob)
        extra = [(u, (u // s + 1) % h * s + j2) for u, j2 in map(divmod, hits, repeat(s))]
        if not extra and s > 1:  # the bare spanning cycle: period h * s
            continue
        graph = Digraph(h * s, cycle + extra)
        analysis = _analyze(graph)
        if not analysis.strong:
            raise GenerationError("the spanning cycle left the graph not strongly connected")
        if analysis.period == h:
            return graph
    raise GenerationError(
        f"could not hit period {h} in {_MAX_ATTEMPTS} attempts "
        f"(h={h}, layer_size={layer_size}, arc_prob={arc_prob}, seed={seed})"
    )
