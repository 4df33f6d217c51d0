"""Weighted modularity and two-phase local-move clustering.

Modularity of a partition is

    Q = sum_r (e_rr - a_r^2)

where e_rr is the fraction of total edge weight inside cluster r and a_r is
the fraction of weighted degree attached to cluster r. One level formula
computes it, for ``modularity_score`` on the graph's first level (read off
its CSR arrays), for every ``louvain`` level, and for the final partition on
the first level ``louvain`` built at its start. The optimizer is the
classic two-phase scheme: sweep nodes, greedily moving each to the
neighboring cluster with the largest strictly positive modularity gain, then
collapse clusters into super-nodes (keeping intra-cluster weight as
self-loops) and repeat until no move helps.

Everything is deterministic by construction: sweeps visit nodes in ascending
film order, gain ties keep the current cluster, ties between target clusters
pick the lowest cluster id, and super-nodes are numbered by first appearance
after every aggregation, which is the order of their smallest films (see the
level state in ``louvain``). ``louvain`` takes no randomness: its ``seed``
argument is accepted and ignored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Mapping, TextIO

from .errors import DomainError
from .graph import FilmGraph

GAIN_CHECK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Clustering:
    """Cluster assignment (dense ids from 0) plus the partition's modularity."""

    assignment: dict[str, int]
    modularity: float

    def clusters(self) -> list[list[str]]:
        count = max(self.assignment.values()) + 1 if self.assignment else 0
        groups: list[list[str]] = [[] for _ in range(count)]
        for film, cluster in self.assignment.items():
            groups[cluster].append(film)
        return groups


def modularity_score(g: FilmGraph, assignment: Mapping[str, int]) -> float:
    """Modularity Q of a partition; 0 for edgeless graphs."""
    missing = [node for node in g.nodes if node not in assignment]
    if missing:
        raise DomainError(f"node {missing[0]} missing from assignment")
    adj, total_weight = _first_level(g)
    comm = [assignment[node] for node in g.nodes]
    return _level_modularity(adj, [0.0] * len(adj), comm, total_weight) if total_weight else 0.0


def _first_level(g: FilmGraph) -> tuple[list[dict[int, float]], float]:
    """The graph as a level graph (neighbour weights by node index, in edge
    order) and its total edge weight, added in ``edges()`` order."""
    indptr, indices, weights = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    adj = [dict(zip(indices[lo:hi], weights[lo:hi])) for lo, hi in zip(indptr, indptr[1:])]
    return adj, sum(weight for i, neighbors in enumerate(adj) for j, weight in neighbors.items() if j > i)


def _level_modularity(
    adj: list[dict[int, float]],
    loop: list[float],
    comm: list[int],
    total_weight: float,
) -> float:
    """Modularity of a level graph (with self-loops) under ``comm``: the one Q formula."""
    s_in: dict[int, float] = {}
    s_tot: dict[int, float] = {}
    for i, neighbors in enumerate(adj):
        c = comm[i]
        k_i = sum(neighbors.values()) + 2.0 * loop[i]
        s_tot[c] = s_tot.get(c, 0.0) + k_i
        s_in[c] = s_in.get(c, 0.0) + loop[i]
        for j, weight in neighbors.items():
            if j > i and comm[j] == c:
                s_in[c] += weight
    q = 0.0
    for c in sorted(s_tot):
        q += _term(s_in[c], s_tot[c], total_weight)
    return q


def _term(inside: float, total: float, total_weight: float) -> float:
    """A cluster's term e_rr - a_r^2 of Q from its inside weight and its degree."""
    share = total / (2.0 * total_weight)
    return inside / total_weight - share * share


def louvain(
    g: FilmGraph,
    seed: int = 0,
    *,
    on_improve: Callable[[float], None] | None = None,
    verify_gains: bool = False,
) -> Clustering:
    """Cluster the film graph by greedy modularity maximization.

    ``on_improve`` receives the running modularity after every accepted
    move (useful for asserting monotonicity). ``verify_gains`` cross-checks
    every incremental gain against a full recomputation; it is meant for
    tests and debugging, not production runs. ``seed`` does not affect
    the result; it is kept for callers that pass one.
    """
    n = g.node_count()
    if n == 0:
        raise DomainError("empty graph")
    first_level, total_weight = _first_level(g)
    if total_weight == 0.0:
        assignment = {node: i for i, node in enumerate(g.nodes)}
        return Clustering(assignment, 0.0)

    # Level graph state: nodes 0..m-1, ``adj`` without self-edges, separate
    # self-loop weights, and ``cluster_of[f]``, the level node holding film f.
    # Level nodes stay in order of their smallest film. That holds for film
    # order on the first level, and aggregation keeps it: a community's first
    # level node holds its smallest film, so numbering super-nodes by first
    # appearance numbers them by smallest film.
    adj = first_level
    loop: list[float] = [0.0] * n
    cluster_of = list(range(n))

    q_running = _level_modularity(adj, loop, cluster_of, total_weight)

    while True:
        m = len(adj)
        comm = list(range(m))
        k = [sum(adj[i].values()) + 2.0 * loop[i] for i in range(m)]
        s_tot = list(k)
        s_in = list(loop)

        moved_in_level = False
        while True:
            moved_in_sweep = False
            for i in range(m):
                current = comm[i]
                weight_to: dict[int, float] = {}
                for j, weight in adj[i].items():
                    c = comm[j]
                    weight_to[c] = weight_to.get(c, 0.0) + weight
                if not weight_to:
                    continue

                before = _term(s_in[current], s_tot[current], total_weight)
                removed_in = s_in[current] - weight_to.get(current, 0.0) - loop[i]
                removed_tot = s_tot[current] - k[i]
                removed_term = _term(removed_in, removed_tot, total_weight)

                best_gain = 0.0
                best_comm = current
                for c in sorted(weight_to):
                    if c == current:
                        continue
                    target_before = _term(s_in[c], s_tot[c], total_weight)
                    added_term = _term(s_in[c] + weight_to[c] + loop[i], s_tot[c] + k[i], total_weight)
                    gain = (removed_term + added_term) - (before + target_before)
                    if gain > best_gain:
                        best_gain = gain
                        best_comm = c
                if best_comm == current:
                    continue

                if verify_gains:
                    q_before = _level_modularity(adj, loop, comm, total_weight)
                s_in[current] = removed_in
                s_tot[current] = removed_tot
                s_in[best_comm] += weight_to[best_comm] + loop[i]
                s_tot[best_comm] += k[i]
                comm[i] = best_comm
                if verify_gains:
                    q_after = _level_modularity(adj, loop, comm, total_weight)
                    drift = abs((q_after - q_before) - best_gain)
                    if drift > GAIN_CHECK_TOLERANCE:
                        raise AssertionError(
                            f"incremental gain {best_gain} disagrees with recomputation "
                            f"{q_after - q_before} (drift {drift})"
                        )
                q_running += best_gain
                moved_in_sweep = True
                moved_in_level = True
                if on_improve is not None:
                    on_improve(q_running)
            if not moved_in_sweep:
                break

        if not moved_in_level:
            break

        # Aggregate: one super-node per community, numbered by first
        # appearance, with intra-community weight kept as its self-loop.
        relabel = {c: idx for idx, c in enumerate(dict.fromkeys(comm))}
        comm = [relabel[c] for c in comm]
        new_adj: list[dict[int, float]] = [{} for _ in relabel]
        new_loop = [0.0] * len(relabel)
        for i in range(m):
            new_loop[comm[i]] += loop[i]
        for i in range(m):
            ci = comm[i]
            for j, weight in adj[i].items():
                if j <= i:
                    continue
                cj = comm[j]
                if ci == cj:
                    new_loop[ci] += weight
                else:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + weight
                    new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + weight
        adj, loop = new_adj, new_loop
        cluster_of = [comm[node] for node in cluster_of]

    q = _level_modularity(first_level, [0.0] * n, cluster_of, total_weight)
    return Clustering(dict(zip(g.nodes, cluster_of)), q)


def write_clusters_csv(clustering: Clustering, stream: TextIO) -> None:
    from .ingest import ident_sort_key

    writer = csv.writer(stream)
    writer.writerow(["film_id", "cluster_id"])
    for film in sorted(clustering.assignment, key=ident_sort_key):
        writer.writerow([film, clustering.assignment[film]])
