"""Centrality and modularity against networkx, an independent implementation
(test-only dependency)."""

import random

import pytest

from filmrec import betweenness_centrality, closeness_centrality, louvain, modularity_score

from oracles import component_graph, synthetic_graph

nx = pytest.importorskip("networkx")


def seeded_graphs():
    rng = random.Random(89)
    return [component_graph(rng) for _ in range(20)] + [synthetic_graph(0.35)]


def to_networkx(g):
    graph = nx.Graph()
    graph.add_nodes_from(g.nodes)
    graph.add_weighted_edges_from(g.edges())
    return graph


def test_betweenness_is_scaled_networkx_unnormalized():
    # networkx counts each unordered pair once; ours sums ordered pairs over n²
    for g in seeded_graphs():
        n = g.node_count()
        ours = betweenness_centrality(g)
        theirs = nx.betweenness_centrality(to_networkx(g), normalized=False)
        for node in g.nodes:
            assert ours[node] == pytest.approx(2.0 * theirs[node] / (n * n), abs=1e-12)


def test_closeness_is_networkx_wf_improved():
    for g in seeded_graphs():
        theirs = nx.closeness_centrality(to_networkx(g), wf_improved=True)
        for node in g.nodes:
            assert closeness_centrality(g, node) == pytest.approx(theirs[node], abs=1e-12)


def test_louvain_partition_modularity_is_networkx_modularity():
    for g in seeded_graphs():
        clustering = louvain(g)
        communities = [set(cluster) for cluster in clustering.clusters()]
        theirs = nx.community.modularity(to_networkx(g), communities, weight="weight")
        assert modularity_score(g, clustering.assignment) == pytest.approx(theirs, abs=1e-12)


@pytest.mark.parametrize("edge_threshold", [0.0, 0.35])
def test_modularity_of_random_partitions_is_networkx_modularity(edge_threshold):
    g = synthetic_graph(edge_threshold)
    graph = to_networkx(g)
    rng = random.Random(107)
    for clusters in (1, 2, 3, 7, 20, 60, 120):
        assignment = {node: rng.randrange(clusters) for node in g.nodes}
        communities = [{node for node in g.nodes if assignment[node] == c} for c in set(assignment.values())]
        theirs = nx.community.modularity(graph, communities, weight="weight")
        assert modularity_score(g, assignment) == pytest.approx(theirs, abs=1e-12)
