"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's fast paths: betweenness is checked by
explicitly enumerating every shortest path per ordered node pair, or bit for
bit by a Brandes pass with its own BFS, modularity maxima by scoring every
set partition, and averaged similarity by materializing the full per-user
dual-similarity tensor before aggregating, or by the scalar films x films x
users loop, and the kNN and Naive Bayes baselines by their dict loops.
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from typing import Iterable, Mapping

import numpy as np

from filmrec import (
    DomainError,
    FilmGraph,
    SyntheticSpec,
    ViewMatrix,
    average_similarity,
    build_graph,
    generate_synthetic,
    modularity_score,
)
from filmrec.ingest import ident_sort_key
from filmrec.similarity import NOT_COMPARABLE, AveragingPolicy, dual_similarity


def bfs_parents(g: FilmGraph, source: str):
    dist = {source: 0}
    parents: dict[str, list[str]] = {node: [] for node in g.nodes}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                parents[w].append(v)
    return dist, parents


def all_shortest_paths(parents, source, target):
    if target == source:
        return [(source,)]
    paths = []
    for p in parents[target]:
        for sub in all_shortest_paths(parents, source, p):
            paths.append(sub + (target,))
    return paths


def brute_force_betweenness(g: FilmGraph) -> dict[str, float]:
    """Enumerate every shortest path for every ordered pair and count the
    interior appearances of each node, scaled by 1/n^2."""
    n = g.node_count()
    score = {v: 0.0 for v in g.nodes}
    for s in g.nodes:
        dist, parents = bfs_parents(g, s)
        for t in g.nodes:
            if t == s or t not in dist:
                continue
            paths = all_shortest_paths(parents, s, t)
            for v in g.nodes:
                if v == s or v == t:
                    continue
                through = sum(1 for path in paths if v in path)
                if through:
                    score[v] += through / len(paths)
    return {v: value / (n * n) for v, value in score.items()}


def dict_bfs_betweenness(g: FilmGraph) -> dict[str, float]:
    """Brandes betweenness with a private dict BFS per source, as the library
    computed it before betweenness read the shared hop memo; the library must
    match it bit for bit."""
    nodes = g.nodes
    n = len(nodes)
    score = {node: 0.0 for node in nodes}
    for source in nodes:
        stack: list[str] = []
        predecessors: dict[str, list[str]] = {node: [] for node in nodes}
        sigma = {node: 0.0 for node in nodes}
        sigma[source] = 1.0
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = {node: 0.0 for node in nodes}
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                score[w] += delta[w]
    scale = 1.0 / (n * n)
    return {node: value * scale for node, value in score.items()}


def bfs_pop_order(g: FilmGraph, source: str) -> list[str]:
    """Nodes reachable from source in the order a FIFO BFS dequeues them."""
    seen = {source}
    queue = deque([source])
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return order


def set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def exhaustive_max_modularity(g: FilmGraph) -> float:
    best = float("-inf")
    for part in set_partitions(list(g.nodes)):
        assignment = {node: ci for ci, block in enumerate(part) for node in block}
        best = max(best, modularity_score(g, assignment))
    return best


def random_graph(rng: random.Random, max_nodes: int = 8, unit_weights: bool = False) -> FilmGraph:
    n = rng.randint(2, max_nodes)
    nodes = [str(i + 1) for i in range(n)]
    p = rng.uniform(0.2, 0.9)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                weight = 1.0 if unit_weights else rng.uniform(0.05, 1.0)
                edges.append((nodes[i], nodes[j], weight))
    return FilmGraph(nodes, edges)


def component_graph(rng: random.Random) -> FilmGraph:
    """A 20-60 node graph of one to four blocks with edges only inside a
    block, plus zero to three isolates, at a density drawn from sparse (long
    hop paths, several components per block) to dense."""
    n = rng.randint(20, 60)
    nodes = [str(i + 1) for i in range(n)]
    isolates = set(rng.sample(nodes, rng.randint(0, 3)))
    blocks = rng.randint(1, 4)
    block = {node: rng.randrange(blocks) for node in nodes}
    p = rng.uniform(1.5 / n, 0.6)
    edges = [
        (a, b, rng.uniform(0.05, 1.0))
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if block[a] == block[b] and a not in isolates and b not in isolates and rng.random() < p
    ]
    return FilmGraph(nodes, edges)


def shuffled_graph(rng: random.Random) -> FilmGraph:
    """A ``component_graph`` rebuilt from its edge list in shuffled order,
    each edge's endpoints flipped at random, so adjacency order no longer
    follows node order."""
    g = component_graph(rng)
    edges = list(g.edges())
    rng.shuffle(edges)
    return FilmGraph(g.nodes, [(b, a, w) if rng.random() < 0.5 else (a, b, w) for a, b, w in edges])


@functools.lru_cache(maxsize=None)
def synthetic_graph(edge_threshold: float) -> FilmGraph:
    """The graph of the default 120-film x 500-user synthetic log (seed 1):
    complete at threshold 0.0, 415 edges at 0.35."""
    view = generate_synthetic(SyntheticSpec(film_count=120, user_count=500, seed=1))
    return build_graph(average_similarity(view, AveragingPolicy.COMPARABLE_COUNT), edge_threshold)


def random_view_matrix(rng: random.Random, max_films: int = 10, max_users: int = 10) -> ViewMatrix:
    films = [str(i + 1) for i in range(rng.randint(2, max_films))]
    users = [f"u{i + 1}" for i in range(rng.randint(1, max_users))]
    entries = {}
    for film in films:
        for user in users:
            roll = rng.random()
            if roll < 0.5:
                continue  # never watched
            if roll < 0.6:
                entries[(film, user)] = 0.0  # watched nothing of it
            else:
                entries[(film, user)] = rng.random()
    return ViewMatrix(entries, films=films, users=users)


def tensor_average_similarity(view: ViewMatrix, policy: AveragingPolicy):
    """Materialize the full DS tensor, then aggregate it per pair in
    ascending user order; mirrors the documented definition directly."""
    films, users = view.films, view.users
    n = len(films)
    tensor: dict[tuple[str, str], list[float]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            tensor[(films[i], films[j])] = [
                dual_similarity(view.pct(films[i], user), view.pct(films[j], user))
                for user in users
            ]
    result: dict[tuple[str, str], float] = {}
    for pair, row in tensor.items():
        informative = [ds for ds in row if ds != NOT_COMPARABLE]
        total = 0.0
        for ds in informative:
            total += ds
        if policy is AveragingPolicy.COMPARABLE_COUNT:
            result[pair] = total / len(informative) if informative else 0.0
        else:
            result[pair] = total / len(users) if users else 0.0
    return result


def scalar_average_similarity(view: ViewMatrix, policy: AveragingPolicy) -> np.ndarray:
    """The full similarity matrix from the scalar definition: a films x
    films x users loop over ``dual_similarity``, summing each pair's
    informative users sequentially in ascending user order."""
    films, users = view.films, view.users
    n = len(films)
    values = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        if view.film_views(films[i]):
            values[i, i] = 1.0
        for j in range(i + 1, n):
            total = 0.0
            comparable = 0
            for user in users:
                ds = dual_similarity(view.pct(films[i], user), view.pct(films[j], user))
                if ds != NOT_COMPARABLE:
                    total += ds
                    comparable += 1
            if policy is AveragingPolicy.COMPARABLE_COUNT:
                avg = total / comparable if comparable else 0.0
            else:
                avg = total / len(users) if users else 0.0
            values[i, j] = values[j, i] = avg
    return values


# The kNN and Naive Bayes baselines as dict loops over the ViewMatrix, kept
# verbatim from before they read fit-time arrays.


def _cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    dot = sum(value * b.get(film, 0.0) for film, value in a.items())
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def knn_baseline(
    train: ViewMatrix,
    user_views: Mapping[str, float],
    films: Iterable[str],
    k: int,
) -> dict[str, bool]:
    """Predict preference per film from the k training users most similar to
    the given viewing vector (cosine, absent = 0): preferred when those
    neighbors' similarity-weighted mean percentage on the film exceeds 0.5;
    films none of them watched come back non-preferred."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    similarities = [
        (-_cosine(user_views, train.user_views(other)), ident_sort_key(other), other)
        for other in train.users
    ]
    similarities.sort()
    neighbors = [(other, -neg_sim) for neg_sim, _, other in similarities[:k]]
    predictions: dict[str, bool] = {}
    for film in films:
        weight_total = 0.0
        weighted_pct = 0.0
        for other, sim in neighbors:
            pct = train.pct(film, other)
            if pct is None or sim <= 0.0:
                continue
            weight_total += sim
            weighted_pct += sim * pct
        predictions[film] = weight_total > 0.0 and weighted_pct / weight_total > 0.5
    return predictions


def naive_bayes_baseline(
    train: ViewMatrix,
    user_views: Mapping[str, float],
    films: Iterable[str],
) -> dict[str, bool]:
    """Per-film Bernoulli Naive Bayes over binarized labels (pct > 0.5) with
    add-one smoothing. Features are the given user's other watched films'
    binary labels; exact posterior ties resolve to non-preferred."""
    user_labels = {film: pct > 0.5 for film, pct in user_views.items()}
    feature_films = sorted(user_labels, key=ident_sort_key)
    predictions: dict[str, bool] = {}
    for film in films:
        watchers = [(user, pct > 0.5) for user, pct in train.film_views(film).items()]
        n_pref = sum(1 for _, liked in watchers if liked)
        n_non = len(watchers) - n_pref
        log_pref = math.log((n_pref + 1) / (len(watchers) + 2))
        log_non = math.log((n_non + 1) / (len(watchers) + 2))
        for feature in feature_films:
            if feature == film:
                continue
            x = user_labels[feature]
            match_pref = match_non = seen_pref = seen_non = 0
            for user, liked in watchers:
                pct = train.pct(feature, user)
                if pct is None:
                    continue
                feature_label = pct > 0.5
                if liked:
                    seen_pref += 1
                    match_pref += feature_label == x
                else:
                    seen_non += 1
                    match_non += feature_label == x
            log_pref += math.log((match_pref + 1) / (seen_pref + 2))
            log_non += math.log((match_non + 1) / (seen_non + 2))
        predictions[film] = log_pref > log_non
    return predictions


def monte_carlo_random_judge_accuracy(trials: int, seed: int) -> float:
    """Expected sign-agreement accuracy of a symmetric three-way random
    scorer: estimated by simulation rather than assumed."""
    rng = random.Random(seed)
    correct = 0
    for _ in range(trials):
        rs = rng.choice((-1.0, 0.0, 1.0))
        label_preferred = rng.random() < 0.5
        if rs == 0.0:
            continue
        if (rs > 0.0) == label_preferred:
            correct += 1
    return correct / trials
