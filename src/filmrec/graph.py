"""Film relationship graph and centrality measures.

Films are nodes; an edge carries the averaged similarity of its endpoints.
Degree centrality is weighted (incident-weight sum over n-1), while the
path-based measures run on unweighted hop counts over the thresholded graph:
distances downstream are defined as link counts, so hops are the consistent
metric. Betweenness sums over ordered source/target pairs and is scaled by
1/n^2; closeness uses reachable-set scaling so disconnected graphs stay in
[0, 1].

Betweenness, closeness and ranking read one all-sources path kernel per
graph (``FilmGraph.paths``): a level-synchronous BFS from every source at
once over CSR neighbour arrays (Kepner & Gilbert 2011) that yields the
``int32[n, n]`` hop matrix and Brandes' (2001) dependency sums. It adds in
the order a per-source dict Brandes adds, so its floats are bit-identical
to that loop. ``hop_distances`` stays as the single-source BFS oracle.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import DomainError
from .ingest import ident_sort_key
from .similarity import SimilarityMatrix

# The path kernel runs sources in blocks of at most this many (source, node)
# pairs, counting each source as its graph's edge ends or its node count,
# whichever is larger; that caps each per-level array near 1 MB, unless one
# source alone exceeds it. Smaller blocks cost more numpy calls per graph.
_BLOCK_PAIRS = 1 << 17


class FilmGraph:
    """Weighted undirected graph over films. The edges are immutable once
    built. ``indptr``/``indices`` hold each node's neighbours as node
    indices, in adjacency-dict order (CSR). The path kernel runs on first
    use of ``paths`` and is kept; racing first calls each compute the same
    result and one of them is kept."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, float]]):
        self.nodes = tuple(nodes)
        self._order = {node: i for i, node in enumerate(self.nodes)}
        adjacency: dict[str, dict[str, float]] = {node: {} for node in self.nodes}
        for a, b, weight in edges:
            if a == b:
                raise DomainError(f"self-loop on {a}")
            if not 0.0 < weight <= 1.0:
                raise DomainError(f"edge weight outside (0, 1]: {weight}")
            adjacency[a][b] = weight
            adjacency[b][a] = weight
        self.adjacency = adjacency
        order = self._order
        self.indptr = np.cumsum([0, *map(len, adjacency.values())], dtype=np.intp)
        self.indices = np.array([order[b] for nbrs in adjacency.values() for b in nbrs], dtype=np.intp)
        self._paths: ShortestPaths | None = None

    def __contains__(self, node: str) -> bool:
        return node in self._order

    def index(self, node: str) -> int:
        return self._order[node]

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, node: str) -> dict[str, float]:
        return self.adjacency[node]

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Edges with endpoints in node order, each edge once."""
        for a in self.nodes:
            ia = self._order[a]
            for b, weight in self.adjacency[a].items():
                if self._order[b] > ia:
                    yield (a, b, weight)

    def strength(self, node: str) -> float:
        return sum(self.adjacency[node].values())

    def paths(self) -> "ShortestPaths":
        """The path kernel's result for this graph, computed once."""
        paths = self._paths
        if paths is None:
            paths = self._paths = all_sources_paths(self.indptr, self.indices)
        return paths

    def hops(self, source: str) -> list[int]:
        """Hop counts from source to every node, in node order, -1 where
        unreachable; callers share the list and must not change it."""
        return self.paths().hop_rows[self._order[source]]


@dataclass(frozen=True)
class ShortestPaths:
    """Unweighted shortest paths between every ordered pair of nodes.

    ``hops[s, t]`` is the hop count from s to t (-1 if unreachable) and
    ``hop_rows`` the same as lists, for scalar reads. ``reach[s]`` counts the
    nodes s reaches, itself included, and ``hop_sums[s]`` adds their hop
    counts. ``dependency[v]`` is Brandes' unscaled betweenness: v's
    dependency summed over every source but v itself."""

    hops: np.ndarray
    hop_rows: list[list[int]]
    reach: list[int]
    hop_sums: list[int]
    dependency: np.ndarray


def all_sources_paths(indptr: np.ndarray, indices: np.ndarray) -> ShortestPaths:
    """Every source's BFS and Brandes accumulation over a CSR graph, level
    by level for a block of sources at a time.

    The floats equal a per-source dict Brandes bit for bit. Path counts
    (sigma) are integers summed in float64, exact in any order while below
    2**53, which is also where the dict loop's float sums are exact. Each
    dependency (delta) is added in the dict loop's order: its contributions
    arrive in descending BFS rank of the child, and ``np.add.at`` adds
    unbuffered, in index order. Each node's score adds the sources'
    dependencies in source order.
    """
    n = len(indptr) - 1
    hops = np.full((n, n), -1, dtype=np.int32)
    reach, hop_sums = [], []
    dependency = np.zeros(n)
    component = _component_sizes(indptr, indices)
    block = max(1, _BLOCK_PAIRS // max(len(indices), n))
    for first in range(0, n, block):
        sources = np.arange(first, min(first + block, n))
        rows, delta, reached, hop_sum = _brandes_block(sources, indptr, indices, component)
        hops[sources] = rows
        reach += reached.tolist()
        hop_sums += hop_sum.tolist()
        for row in delta:
            dependency += row
    return ShortestPaths(hops, hops.tolist(), reach, hop_sums, dependency)


def _component_sizes(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Size of each node's connected component: min-label propagation with
    pointer jumping, until every label is its component's smallest node."""
    n = len(indptr) - 1
    owner = np.repeat(np.arange(n), np.diff(indptr))
    label = np.arange(n)
    while True:
        lowest = label.copy()
        np.minimum.at(lowest, owner, label[indices])
        lowest = lowest[lowest]
        if np.array_equal(lowest, label):
            return np.bincount(label, minlength=n)[label]
        label = lowest


def _brandes_block(
    sources: np.ndarray, indptr: np.ndarray, indices: np.ndarray, component: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hop rows, dependency rows (0 at the source), reach counts and hop
    sums for a block of sources.

    Pairs (s, v) are flat keys ``s * n + v`` with s the block-local source.
    A frontier holds one BFS level of every source in (source, FIFO order),
    and a source stops once it has reached its whole component, so the last
    level is never expanded. A level's candidates list each frontier node's
    neighbours in adjacency order; a new node's first sighting among them is
    its FIFO position, and that position orders the dependency pass."""
    n = len(indptr) - 1
    size = len(sources) * n
    hops = np.full(size, -1, dtype=np.int32)
    sigma = np.zeros(size)
    sighted = np.full(size, np.iinfo(np.intp).max)
    start = np.arange(len(sources)) * n + sources
    hops[start] = 0
    sigma[start] = 1.0
    reached = np.ones(len(sources), dtype=np.intp)
    hop_sum = np.zeros(len(sources), dtype=np.intp)
    target = component[sources]
    frontier = start
    levels = []
    depth = 0
    while True:
        frontier = frontier[reached[frontier // n] < target[frontier // n]]
        if not len(frontier):
            break
        owner, parent = np.divmod(frontier, n)
        degree = indptr[parent + 1] - indptr[parent]
        offsets = np.repeat(indptr[parent] - (np.cumsum(degree) - degree), degree)
        child = indices[offsets + np.arange(len(offsets))]
        parent_key = np.repeat(frontier, degree)
        child_key = np.repeat(owner * n, degree) + child
        new = hops[child_key] < 0
        parent_key, child_key = parent_key[new], child_key[new]
        position = np.arange(len(child_key))
        np.minimum.at(sighted, child_key, position)
        first = sighted[child_key]
        frontier = child_key[first == position]
        depth += 1
        hops[frontier] = depth
        np.add.at(sigma, child_key, sigma[parent_key])
        levels.append((parent_key, child_key, first))
        found = np.bincount(frontier // n, minlength=len(sources))
        reached += found
        hop_sum += depth * found
    delta = np.zeros(size)
    for parent_key, child_key, first in reversed(levels):
        share = (sigma[parent_key] / sigma[child_key]) * (1.0 + delta[child_key])
        order = np.argsort(-first, kind="stable")
        np.add.at(delta, parent_key[order], share[order])
    delta[start] = 0.0
    return hops.reshape(-1, n), delta.reshape(-1, n), reached, hop_sum


def build_graph(sim: SimilarityMatrix, edge_threshold: float = 0.0) -> FilmGraph:
    """Thresholded graph: an edge exists where similarity is positive and at
    least ``edge_threshold``. All films stay as nodes, including isolates."""
    if not 0.0 <= edge_threshold <= 1.0:
        raise DomainError(f"edge_threshold outside [0, 1]: {edge_threshold}")
    films = sim.films
    edges = []
    for i, film_i in enumerate(films):
        for j in range(i + 1, len(films)):
            weight = float(sim.values[i, j])
            if weight > 0.0 and weight >= edge_threshold:
                edges.append((film_i, films[j], weight))
    return FilmGraph(films, edges)


def hop_distances(g: FilmGraph, source: str) -> dict[str, int]:
    """BFS hop counts from source to every reachable node (source included),
    in BFS dequeue order (neighbours in adjacency order), so distances never
    decrease along the dict. The single-source oracle for ``FilmGraph.hops``."""
    if source not in g:
        raise KeyError(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in g.adjacency[node]:
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def degree_centrality(g: FilmGraph, node: str) -> float:
    """Incident edge-weight sum normalized by n-1 (0 for a single node)."""
    if node not in g:
        raise KeyError(node)
    n = g.node_count()
    if n <= 1:
        return 0.0
    return g.strength(node) / (n - 1)


def closeness_centrality(g: FilmGraph, node: str) -> float:
    """Inverse average hop distance with reachable-set scaling:
    ((r-1)/sum_d) * ((r-1)/(n-1)) over the r reachable nodes, from the
    integer row sums of the hop matrix."""
    if node not in g:
        raise KeyError(node)
    n = g.node_count()
    paths = g.paths()
    i = g.index(node)
    r = paths.reach[i]
    if r <= 1 or n <= 1:
        return 0.0
    total = paths.hop_sums[i]
    return ((r - 1) / total) * ((r - 1) / (n - 1))


def betweenness_centrality(g: FilmGraph) -> dict[str, float]:
    """Fraction of shortest paths passing through each node, summed over all
    ordered (source, target) pairs and scaled by 1/n^2: the path kernel's
    Brandes sums, each source contributing its own ordered pairs."""
    n = g.node_count()
    if n == 0:
        raise DomainError("empty graph")
    scale = 1.0 / (n * n)
    return dict(zip(g.nodes, (g.paths().dependency * scale).tolist()))


def average_centrality(d: float, c: float, b: float) -> float:
    """Arithmetic mean of the three centrality values."""
    for value in (d, c, b):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"centrality outside [0, 1]: {value}")
    return (d + c + b) / 3.0


@dataclass(frozen=True)
class CentralityRow:
    degree_c: float
    closeness_c: float
    betweenness_c: float
    avg_c: float


class CentralityTable:
    """Per-film degree, closeness, betweenness, and their mean."""

    def __init__(self, rows: dict[str, CentralityRow]):
        self.rows = rows

    @classmethod
    def compute(cls, g: FilmGraph) -> "CentralityTable":
        betweenness = betweenness_centrality(g)
        return cls.from_components(
            {node: (degree_centrality(g, node), closeness_centrality(g, node), betweenness[node]) for node in g.nodes}
        )

    @classmethod
    def from_components(cls, components: dict[str, tuple[float, float, float]]) -> "CentralityTable":
        return cls(
            {
                film: CentralityRow(d, c, b, average_centrality(d, c, b))
                for film, (d, c, b) in components.items()
            }
        )

    def ac(self, film: str) -> float:
        return self.rows[film].avg_c

    def films(self) -> list[str]:
        return sorted(self.rows, key=ident_sort_key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CentralityTable):
            return NotImplemented
        return self.rows == other.rows


def write_edges_csv(g: FilmGraph, stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(["film_i", "film_j", "weight"])
    for a, b, weight in g.edges():
        writer.writerow([a, b, repr(weight)])


def write_centrality_csv(table: CentralityTable, stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(
        ["film_id", "degree_centrality", "closeness_centrality", "betweenness_centrality", "average_centrality"]
    )
    for film in table.films():
        row = table.rows[film]
        writer.writerow([film, repr(row.degree_c), repr(row.closeness_c), repr(row.betweenness_c), repr(row.avg_c)])
