"""Film relationship graph and centrality measures.

Films are nodes; an edge carries the averaged similarity of its endpoints.
Degree centrality is weighted (incident-weight sum over n-1), while the
path-based measures run on unweighted hop counts over the thresholded graph:
distances downstream are defined as link counts, so hops are the consistent
metric. Betweenness sums over ordered source/target pairs and is scaled by
1/n^2; closeness uses reachable-set scaling so disconnected graphs stay in
[0, 1]. Both, and ranking, share one BFS per source through ``FilmGraph.hops``.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import DomainError
from .ingest import ident_sort_key
from .similarity import SimilarityMatrix


class FilmGraph:
    """Weighted undirected graph over films. The edges are immutable once
    built. Hop distances are memoised per source by ``hops``: the first
    call for a source runs one BFS and keeps it, so the memo holds at most
    films² entries."""

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
        self._hops: dict[str, dict[str, int]] = {}

    def __contains__(self, node: str) -> bool:
        return node in self._order

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

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

    def hops(self, source: str) -> dict[str, int]:
        """Memoised ``hop_distances``; callers share the dict and must not change it."""
        dist = self._hops.get(source)
        if dist is None:
            dist = self._hops[source] = hop_distances(self, source)
        return dist


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
    decrease along the dict; betweenness walks it as its BFS order."""
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
    ((r-1)/sum_d) * ((r-1)/(n-1)) over the r reachable nodes."""
    if node not in g:
        raise KeyError(node)
    n = g.node_count()
    dist = g.hops(node)
    r = len(dist)
    if r <= 1 or n <= 1:
        return 0.0
    total = sum(dist.values())
    return ((r - 1) / total) * ((r - 1) / (n - 1))


def betweenness_centrality(g: FilmGraph) -> dict[str, float]:
    """Fraction of shortest paths passing through each node, summed over all
    ordered (source, target) pairs and scaled by 1/n^2.

    Brandes' accumulation over each source's memoised ``g.hops`` (its BFS
    order and distances); each source's pass contributes that source's
    ordered pairs, so no doubling correction is needed.
    """
    nodes = g.nodes
    n = len(nodes)
    if n == 0:
        raise DomainError("empty graph")
    score = {node: 0.0 for node in nodes}
    for source in nodes:
        dist = g.hops(source)
        predecessors: dict[str, list[str]] = {node: [] for node in dist}
        sigma = dict.fromkeys(dist, 0.0)
        sigma[source] = 1.0
        for v in dist:
            for w in g.adjacency[v]:
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = dict.fromkeys(dist, 0.0)
        for w in reversed(dist):
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                score[w] += delta[w]
    scale = 1.0 / (n * n)
    return {node: value * scale for node, value in score.items()}


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
