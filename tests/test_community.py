import itertools
import random

import pytest

from filmrec import DomainError, FilmGraph, louvain, modularity_score

from oracles import component_graph, exhaustive_max_modularity, random_graph, synthetic_graph


def two_triangles() -> FilmGraph:
    return FilmGraph(
        list("abcdef"),
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
         ("d", "e", 1.0), ("e", "f", 1.0), ("d", "f", 1.0)],
    )


def larger_graphs(seed: int) -> list[FilmGraph]:
    """Ten 20-60 node block graphs, which take several aggregation levels,
    and the 120-film synthetic graph at edge threshold 0.35."""
    rng = random.Random(seed)
    return [component_graph(rng) for _ in range(10)] + [synthetic_graph(0.35)]


def k4() -> FilmGraph:
    nodes = list("abcd")
    return FilmGraph(nodes, [(a, b, 1.0) for a, b in itertools.combinations(nodes, 2)])


class TestModularityScore:
    def test_single_cluster_is_zero(self):
        g = two_triangles()
        assert modularity_score(g, {n: 0 for n in g.nodes}) == pytest.approx(0.0, abs=1e-15)

    def test_two_triangles_split(self):
        g = two_triangles()
        assignment = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
        assert modularity_score(g, assignment) == pytest.approx(0.5, abs=1e-15)

    def test_single_edge_split_is_negative_half(self):
        g = FilmGraph(["a", "b"], [("a", "b", 1.0)])
        assert modularity_score(g, {"a": 0, "b": 1}) == pytest.approx(-0.5, abs=1e-15)

    def test_edgeless_graph_scores_zero(self):
        g = FilmGraph(["a", "b"], [])
        assert modularity_score(g, {"a": 0, "b": 1}) == 0.0

    def test_missing_node_rejected(self):
        g = FilmGraph(["a", "b"], [("a", "b", 1.0)])
        with pytest.raises(DomainError):
            modularity_score(g, {"a": 0})


class TestLouvain:
    def test_two_triangles_found_exactly(self):
        clustering = louvain(two_triangles())
        assert clustering.modularity == pytest.approx(0.5, abs=1e-12)
        assert clustering.assignment == {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}

    def test_k4_reaches_global_maximum(self):
        clustering = louvain(k4())
        assert clustering.modularity >= 0.0
        assert clustering.modularity == pytest.approx(exhaustive_max_modularity(k4()), abs=1e-12)

    def test_edgeless_graph_gives_singletons(self):
        g = FilmGraph(["a", "b", "c"], [])
        clustering = louvain(g)
        assert clustering.assignment == {"a": 0, "b": 1, "c": 2}
        assert clustering.modularity == 0.0

    def test_stored_modularity_matches_score_exactly(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_graph(rng, max_nodes=8)
            clustering = louvain(g)
            assert clustering.modularity == modularity_score(g, clustering.assignment)

    def test_monotone_improvement_and_gain_consistency(self):
        rng = random.Random(43)
        for g in [random_graph(rng, max_nodes=8) for _ in range(20)] + larger_graphs(44):
            trace: list[float] = []
            louvain(g, on_improve=trace.append, verify_gains=True)
            assert all(later >= earlier for earlier, later in zip(trace, trace[1:]))

    def test_never_exceeds_exhaustive_maximum(self):
        rng = random.Random(47)
        for _ in range(15):
            g = random_graph(rng, max_nodes=7)
            clustering = louvain(g)
            assert clustering.modularity <= exhaustive_max_modularity(g) + 1e-12

    def test_deterministic(self):
        rng = random.Random(53)
        for _ in range(5):
            g = random_graph(rng, max_nodes=8)
            first = louvain(g, seed=0)
            second = louvain(g, seed=0)
            assert first == second

    def test_cluster_ids_are_dense_and_ordered_by_smallest_member(self):
        rng = random.Random(59)
        for g in [random_graph(rng, max_nodes=8) for _ in range(20)] + larger_graphs(60):
            clustering = louvain(g)
            ids = set(clustering.assignment.values())
            assert ids == set(range(len(ids)))
            # first occurrence of each cluster id along node order must be increasing
            seen: list[int] = []
            for node in g.nodes:
                cluster = clustering.assignment[node]
                if cluster not in seen:
                    seen.append(cluster)
            assert seen == sorted(seen)

    def test_isolated_nodes_stay_singletons(self):
        g = FilmGraph(["a", "b", "z"], [("a", "b", 1.0)])
        clustering = louvain(g)
        others = {clustering.assignment["a"], clustering.assignment["b"]}
        assert clustering.assignment["z"] not in others
