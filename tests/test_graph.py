import itertools
import random
from collections import Counter

import numpy as np
import pytest

from filmrec import (
    CentralityTable,
    DomainError,
    FilmGraph,
    SimilarityMatrix,
    average_centrality,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    degree_centrality,
)
from filmrec.graph import hop_distances

from oracles import (
    bfs_pop_order,
    brute_force_betweenness,
    component_graph,
    dict_bfs_betweenness,
    pair_loop_edges,
    random_graph,
    shuffled_edges,
    shuffled_graph,
    synthetic_graph,
    synthetic_similarity,
)


def star() -> FilmGraph:
    return FilmGraph(["c", "l1", "l2", "l3"], [("c", "l1", 1.0), ("c", "l2", 1.0), ("c", "l3", 1.0)])


def path3() -> FilmGraph:
    return FilmGraph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])


def sim3(values: dict[tuple[str, str], float]) -> SimilarityMatrix:
    films = ("1", "2", "3")
    matrix = np.eye(3)
    index = {film: i for i, film in enumerate(films)}
    for (a, b), value in values.items():
        matrix[index[a], index[b]] = value
        matrix[index[b], index[a]] = value
    return SimilarityMatrix(films, matrix)


class TestBuildGraph:
    def test_threshold_zero_keeps_positive_entries(self):
        g = build_graph(sim3({("1", "2"): 0.5, ("1", "3"): 0.0, ("2", "3"): 0.2}), 0.0)
        assert set(g.edges()) == {("1", "2", 0.5), ("2", "3", 0.2)}

    def test_threshold_filters(self):
        g = build_graph(sim3({("1", "2"): 0.5, ("1", "3"): 0.0, ("2", "3"): 0.2}), 0.3)
        assert set(g.edges()) == {("1", "2", 0.5)}

    def test_identity_matrix_gives_edgeless_graph(self):
        g = build_graph(sim3({}), 0.0)
        assert g.edge_count() == 0
        assert g.nodes == ("1", "2", "3")

    def test_isolates_stay_in_node_set(self):
        g = build_graph(sim3({("1", "2"): 0.4}), 0.0)
        assert "3" in g
        assert g.neighbors("3") == {}

    def test_bad_threshold(self):
        with pytest.raises(DomainError):
            build_graph(sim3({}), 1.5)

    def test_no_self_loops_or_bad_weights(self):
        with pytest.raises(DomainError):
            FilmGraph(["a"], [("a", "a", 0.5)])
        with pytest.raises(DomainError):
            FilmGraph(["a", "b"], [("a", "b", 0.0)])


class TestGraphStore:
    def test_neighbors_follow_edge_order_on_shuffled_graphs(self):
        rng = random.Random(101)
        for _ in range(10):
            g = component_graph(rng)
            edges = shuffled_edges(rng, g)
            shuffled = FilmGraph(g.nodes, edges)
            for node in g.nodes:
                expected = [(b if a == node else a, w) for a, b, w in edges if node in (a, b)]
                assert list(shuffled.neighbors(node).items()) == expected
                assert shuffled.strength(node) == sum(w for _, w in expected)

    @pytest.mark.parametrize("repeat", [("a", "b", 0.5), ("b", "a", 0.25)])
    def test_repeated_pair_is_a_domain_error(self, repeat):
        with pytest.raises(DomainError, match="repeated edge a-b"):
            FilmGraph(["a", "b", "c"], [("a", "b", 0.5), ("b", "c", 0.5), repeat])

    @pytest.mark.parametrize("edge_threshold", [0.0, 0.35])
    def test_build_graph_equals_the_pair_loop(self, edge_threshold):
        sim = synthetic_similarity()
        fast = build_graph(sim, edge_threshold)
        reference = FilmGraph(sim.films, pair_loop_edges(sim, edge_threshold))
        assert fast.nodes == reference.nodes
        for name in ("indptr", "indices", "weights"):
            ours, theirs = getattr(fast, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize(
    "nodes, repeated", [(["a", "a", "b"], "a"), (["a", "b", "c", "b", "a"], "a"), (["x", "y", "y"], "y")]
)
def test_repeated_node_is_a_domain_error(nodes, repeated):
    with pytest.raises(DomainError, match=f"repeated node {repeated}$"):
        FilmGraph(nodes, [("a", "b", 0.5)] if "b" in nodes else [])


@pytest.mark.parametrize("edge, unknown", [(("a", "b", 0.5), "b"), (("c", "a", 0.5), "c"), (("a", "d", 2.0), "d")])
def test_edge_to_an_unknown_node_is_a_domain_error(edge, unknown):
    with pytest.raises(DomainError, match=f"edge to unknown node {unknown}$"):
        FilmGraph(["a", "e"], [("a", "e", 0.5), edge])


def test_positions_keep_the_given_order_and_skip_unknown_nodes():
    g = FilmGraph(["10", "2", "x", "1"], [("10", "x", 0.5)])
    assert g.positions(["1", "missing", "10", "1", "x"]) == [3, 0, 3, 2]
    assert g.positions(node for node in ["2"]) == [1]
    assert g.positions([]) == []


class TestDegree:
    def test_star_center_is_maximal(self):
        assert degree_centrality(star(), "c") == 1.0

    def test_star_leaf(self):
        assert degree_centrality(star(), "l1") == pytest.approx(1 / 3, rel=1e-12)

    def test_isolated_node(self):
        g = FilmGraph(["a", "b"], [])
        assert degree_centrality(g, "a") == 0.0

    def test_single_node_graph(self):
        assert degree_centrality(FilmGraph(["a"], []), "a") == 0.0

    def test_weighted_strength(self):
        g = FilmGraph(["a", "b", "c"], [("a", "b", 0.5), ("a", "c", 0.25)])
        assert degree_centrality(g, "a") == pytest.approx(0.375, rel=1e-12)

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            degree_centrality(star(), "missing")

    def test_adding_edge_never_decreases_degree(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, max_nodes=6)
            missing = [
                (a, b)
                for a, b in itertools.combinations(g.nodes, 2)
                if b not in g.neighbors(a)
            ]
            if not missing:
                continue
            a, b = rng.choice(missing)
            bigger = FilmGraph(g.nodes, list(g.edges()) + [(a, b, rng.uniform(0.1, 1.0))])
            for node in g.nodes:
                assert degree_centrality(bigger, node) >= degree_centrality(g, node)


class TestCloseness:
    def test_star_center(self):
        assert closeness_centrality(star(), "c") == 1.0

    def test_path_endpoint(self):
        assert closeness_centrality(path3(), "a") == pytest.approx(2 / 3, rel=1e-12)

    def test_isolated_node_is_zero(self):
        g = FilmGraph(["a", "b", "c"], [("a", "b", 1.0)])
        assert closeness_centrality(g, "c") == 0.0

    def test_disconnected_component_scaling(self):
        # two components: a-b and c-d-e; for c: r=3, sum=1+2, n=5
        g = FilmGraph(list("abcde"), [("a", "b", 1.0), ("c", "d", 1.0), ("d", "e", 1.0)])
        assert closeness_centrality(g, "c") == pytest.approx((2 / 3) * (2 / 4), rel=1e-12)

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            closeness_centrality(star(), "missing")


class TestBetweenness:
    def test_path_middle(self):
        assert betweenness_centrality(path3())["b"] == pytest.approx(2 / 9, rel=1e-12)

    def test_tree_leaves_are_zero(self):
        values = betweenness_centrality(star())
        assert values["l1"] == 0.0
        assert values["l2"] == 0.0

    def test_four_cycle_split_credit(self):
        g = FilmGraph(list("abcd"), [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)])
        for node, value in betweenness_centrality(g).items():
            assert value == pytest.approx(0.0625, rel=1e-12)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng)
            fast = betweenness_centrality(g)
            slow = brute_force_betweenness(g)
            for node in g.nodes:
                assert fast[node] == pytest.approx(slow[node], abs=1e-12)

    def test_disconnected_pairs_contribute_nothing(self):
        g = FilmGraph(list("abcd"), [("a", "b", 1.0), ("c", "d", 1.0)])
        assert all(value == 0.0 for value in betweenness_centrality(g).values())

    def test_bit_identical_to_dict_bfs_brandes(self):
        rng = random.Random(61)
        seen = Counter()
        for _ in range(30):
            g = component_graph(rng)
            fast = betweenness_centrality(g)
            reference = dict_bfs_betweenness(g)
            assert list(fast) == list(reference)
            assert [value.hex() for value in fast.values()] == [value.hex() for value in reference.values()]
            components = {frozenset(hop_distances(g, node)) for node in g.nodes}
            seen["isolates"] += any(len(c) == 1 for c in components)
            seen["several_components"] += sum(len(c) > 1 for c in components) > 1
            seen["nonzero"] += any(value > 0.0 for value in fast.values())
        assert seen["isolates"] and seen["several_components"] and seen["nonzero"]


class TestPathKernelOracles:
    @staticmethod
    def graphs() -> list[FilmGraph]:
        rng = random.Random(97)
        return [
            *(component_graph(rng) for _ in range(20)),
            *(shuffled_graph(rng) for _ in range(20)),
            synthetic_graph(0.0),
            synthetic_graph(0.35),
        ]

    def test_hop_matrix_equals_hop_distances_from_every_source(self):
        for g in self.graphs():
            hops = g.paths().hops
            assert hops.dtype == np.int32 and hops.shape == (g.node_count(), g.node_count())
            for i, source in enumerate(g.nodes):
                dist = hop_distances(g, source)
                expected = [dist.get(target, -1) for target in g.nodes]
                assert hops[i].tolist() == expected

    def test_betweenness_bit_identical_to_dict_bfs_brandes_at_real_sizes(self):
        for g in self.graphs()[20:]:
            fast = betweenness_centrality(g)
            reference = dict_bfs_betweenness(g)
            assert list(fast) == list(reference)
            assert [value.hex() for value in fast.values()] == [value.hex() for value in reference.values()]
        sparse = betweenness_centrality(synthetic_graph(0.35))
        assert sum(value > 0.0 for value in sparse.values()) > 10


class TestAverageCentrality:
    def test_published_row_51(self):
        assert average_centrality(0.0536, 0.8229, 0.5622) == pytest.approx(0.4796, abs=5e-5)

    def test_published_row_53(self):
        assert average_centrality(0.0345, 0.6475, 0.1204) == pytest.approx(0.2675, abs=5e-5)

    def test_zero(self):
        assert average_centrality(0.0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("bad", [(-0.1, 0, 0), (0, 1.2, 0), (0, 0, 2)])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            average_centrality(*bad)


class TestCentralityTable:
    def test_complete_graph_is_all_ones_for_degree_and_closeness(self):
        nodes = list("abcd")
        g = FilmGraph(nodes, [(a, b, 1.0) for a, b in itertools.combinations(nodes, 2)])
        table = CentralityTable.compute(g)
        for node in nodes:
            assert table.rows[node].degree_c == pytest.approx(1.0, rel=1e-12)
            assert table.rows[node].closeness_c == pytest.approx(1.0, rel=1e-12)

    def test_all_values_in_unit_interval(self):
        rng = random.Random(29)
        for _ in range(20):
            g = random_graph(rng)
            table = CentralityTable.compute(g)
            for row in table.rows.values():
                assert 0.0 <= row.degree_c <= 1.0
                assert 0.0 <= row.closeness_c <= 1.0
                assert 0.0 <= row.betweenness_c <= 1.0
                assert 0.0 <= row.avg_c <= 1.0

    def test_avg_is_exact_mean(self):
        g = random_graph(random.Random(31))
        for row in CentralityTable.compute(g).rows.values():
            assert row.avg_c == (row.degree_c + row.closeness_c + row.betweenness_c) / 3.0

    def test_relabeling_permutes_table(self):
        rng = random.Random(37)
        g = random_graph(rng, max_nodes=7)
        mapping = {node: f"x{node}" for node in g.nodes}
        permuted = FilmGraph(
            [mapping[n] for n in g.nodes],
            [(mapping[a], mapping[b], w) for a, b, w in g.edges()],
        )
        original = CentralityTable.compute(g)
        relabeled = CentralityTable.compute(permuted)
        for node in g.nodes:
            assert relabeled.rows[mapping[node]] == original.rows[node]


def test_hop_distances():
    g = path3()
    assert hop_distances(g, "a") == {"a": 0, "b": 1, "c": 2}
    with pytest.raises(KeyError):
        hop_distances(g, "zz")


def test_hop_distances_iterate_in_bfs_pop_order():
    """The BFS oracle's dict iterates in FIFO dequeue order, with
    non-decreasing distances."""
    rng = random.Random(71)
    for _ in range(10):
        g = component_graph(rng)
        for source in g.nodes:
            dist = hop_distances(g, source)
            assert list(dist) == bfs_pop_order(g, source)
            distances = list(dist.values())
            assert distances == sorted(distances)


class TestOnePathPassPerGraph:
    def test_table_runs_one_kernel_pass_and_no_bfs(self, traversals):
        g = component_graph(random.Random(73))
        CentralityTable.compute(g)
        assert [id(p) for p in traversals.passes] == [id(g.indptr)]
        assert not traversals.bfs

    def test_closeness_after_betweenness_runs_no_second_pass(self, traversals):
        g = component_graph(random.Random(79))
        betweenness_centrality(g)
        for node in g.nodes:
            closeness_centrality(g, node)
            g.paths().hops[g.index(node)]
        assert len(traversals.passes) == 1 and not traversals.bfs
