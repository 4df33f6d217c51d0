"""Film relationship graph and centrality measures.

Films are nodes; an edge carries the averaged similarity of its endpoints.
``FilmGraph`` keeps its edges once, as CSR arrays of node positions with
parallel weights, and maps film ids to positions in its methods. Degree
centrality is weighted (incident-weight sum over n-1), while the path-based
measures run on unweighted hop counts over the thresholded graph: distances
downstream are defined as link counts, so hops are the consistent metric.
Betweenness sums over ordered source/target pairs and is scaled by 1/n^2;
closeness uses reachable-set scaling so disconnected graphs stay in [0, 1].

Betweenness, closeness and ranking read one all-sources path kernel per
graph (``FilmGraph.paths``): a level-synchronous BFS from every source at
once over those arrays (Kepner & Gilbert 2011) that yields the
``int32[n, n]`` hop matrix and Brandes' (2001) dependency sums. It adds in
the order a per-source dict Brandes adds, so its floats are bit-identical
to that loop. Ranking slices the hop matrix for a whole candidate list at
once. ``hop_distances`` stays as the single-source BFS oracle.
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
    """Immutable weighted undirected graph: node i's neighbours are
    ``indices[indptr[i]:indptr[i + 1]]``, in edge order, their weights at the
    same positions of ``weights``. The path kernel runs on first use of
    ``paths`` and is kept; racing first calls compute the same result."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, float]]):
        self.nodes = tuple(nodes)
        self._order = order = {node: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)
        if len(order) < n:
            # order holds each id's last position, so the first node off it is repeated
            repeated = next(node for i, node in enumerate(self.nodes) if order[node] != i)
            raise DomainError(f"repeated node {repeated}")
        ends, weights = [], []
        for head, tail, weight in edges:
            try:
                ends += order[head], order[tail]
            except KeyError as exc:
                raise DomainError(f"edge to unknown node {exc.args[0]}") from None
            weights.append(weight)
        owner = np.array(ends, dtype=np.intp)
        a, b, weight = owner[0::2], owner[1::2], np.array(weights, dtype=np.float64)
        bad = (a == b) | ~((weight > 0.0) & (weight <= 1.0))
        if bad.any():
            k = bad.argmax()
            if a[k] == b[k]:
                raise DomainError(f"self-loop on {self.nodes[a[k]]}")
            raise DomainError(f"edge weight outside (0, 1]: {weights[k]}")
        pairs = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        repeated = pairs[1:][pairs[1:] == pairs[:-1]]
        if len(repeated):
            low, high = divmod(int(repeated[0]), n)
            raise DomainError(f"repeated edge {self.nodes[low]}-{self.nodes[high]}")
        # Edge k's ends sit at positions 2k and 2k + 1 of owner, so a stable
        # sort by owner keeps every node's neighbours in edge order.
        position = np.argsort(owner, kind="stable")
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n)))).astype(np.intp)
        self.indices = np.column_stack((b, a)).ravel()[position]
        self.weights = np.repeat(weight, 2)[position]
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
        """Each neighbour's edge weight, in edge order."""
        i = self._order[node]
        row = slice(self.indptr[i], self.indptr[i + 1])
        return dict(zip(map(self.nodes.__getitem__, self.indices[row].tolist()), self.weights[row].tolist()))

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Edges with endpoints in node order, each edge once."""
        owner = np.repeat(np.arange(len(self.nodes)), np.diff(self.indptr))
        upper, names = self.indices > owner, np.array(self.nodes, dtype=object)
        return zip(names[owner[upper]].tolist(), names[self.indices[upper]].tolist(), self.weights[upper].tolist())

    def strength(self, node: str) -> float:
        """Incident weight sum, added in edge order."""
        i = self._order[node]
        return sum(self.weights[self.indptr[i] : self.indptr[i + 1]].tolist())

    def paths(self) -> "ShortestPaths":
        """The path kernel's result for this graph, computed once."""
        paths = self._paths
        if paths is None:
            paths = self._paths = all_sources_paths(self.indptr, self.indices)
        return paths


@dataclass(frozen=True)
class ShortestPaths:
    """Unweighted shortest paths between every ordered pair of nodes.

    ``hops[s, t]`` is the hop count from s to t (-1 if unreachable).
    ``reach[s]`` counts the nodes s reaches, itself included, and
    ``hop_sums[s]`` adds their hop counts; both are read off ``hops`` once,
    when the kernel finishes. ``dependency[v]`` is Brandes' unscaled
    betweenness: v's dependency summed over every source but v itself."""

    hops: np.ndarray
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
    dependency = np.zeros(n)
    component = _component_sizes(indptr, indices)
    block = max(1, _BLOCK_PAIRS // max(len(indices), n))
    for first in range(0, n, block):
        sources = np.arange(first, min(first + block, n))
        rows, delta = _brandes_block(sources, indptr, indices, component)
        hops[sources] = rows
        for row in delta:
            dependency += row
    # Each unreachable target reads -1 in a row's sum; n - reach adds them back.
    reach = (hops >= 0).sum(axis=1)
    hop_sums = hops.sum(axis=1) + n - reach
    return ShortestPaths(hops, reach.tolist(), hop_sums.tolist(), dependency)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Hop rows and dependency rows (0 at the source) for a block of sources.

    Pairs (s, v) are flat keys ``s * n + v`` with s the block-local source.
    A frontier holds one BFS level of every source in (source, FIFO order),
    and a source stops once it has reached its whole component, so the last
    level is never expanded. A level's candidates list each frontier node's
    neighbours in edge order; a new node's first sighting among them is
    its FIFO position, and that position orders the dependency pass. Each
    source's reach count serves only that stop rule."""
    n = len(indptr) - 1
    size = len(sources) * n
    hops = np.full(size, -1, dtype=np.int32)
    sigma = np.zeros(size)
    sighted = np.full(size, np.iinfo(np.intp).max)
    start = np.arange(len(sources)) * n + sources
    hops[start] = 0
    sigma[start] = 1.0
    reached = np.ones(len(sources), dtype=np.intp)
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
        reached += np.bincount(frontier // n, minlength=len(sources))
    delta = np.zeros(size)
    for parent_key, child_key, first in reversed(levels):
        share = (sigma[parent_key] / sigma[child_key]) * (1.0 + delta[child_key])
        order = np.argsort(-first, kind="stable")
        np.add.at(delta, parent_key[order], share[order])
    delta[start] = 0.0
    return hops.reshape(-1, n), delta.reshape(-1, n)


def build_graph(sim: SimilarityMatrix, edge_threshold: float = 0.0) -> FilmGraph:
    """Thresholded graph: an edge exists where similarity is positive and at
    least ``edge_threshold``. All films stay as nodes, including isolates.
    Edges come in row-major upper-triangle order."""
    if not 0.0 <= edge_threshold <= 1.0:
        raise DomainError(f"edge_threshold outside [0, 1]: {edge_threshold}")
    films = sim.films
    rows, cols = np.triu_indices(len(films), 1)
    weights = sim.values[rows, cols]
    keep = (weights > 0.0) & (weights >= edge_threshold)
    names = np.array(films, dtype=object)
    return FilmGraph(films, zip(names[rows[keep]].tolist(), names[cols[keep]].tolist(), weights[keep].tolist()))


def hop_distances(g: FilmGraph, source: str) -> dict[str, int]:
    """BFS hop counts from source to every reachable node (source included),
    in BFS dequeue order (neighbours in edge order), so distances never
    decrease along the dict. The single-source oracle for the path kernel's
    hop matrix."""
    dist = {g.index(source): 0}
    queue = deque(dist)
    while queue:
        node = queue.popleft()
        for neighbor in g.indices[g.indptr[node] : g.indptr[node + 1]].tolist():
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return {g.nodes[node]: hops for node, hops in dist.items()}


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
