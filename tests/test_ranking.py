import random
from collections import Counter

import pytest

from filmrec import (
    CentralityTable,
    Clustering,
    DomainError,
    EgoGraphPolicy,
    FilmGraph,
    PipelineConfig,
    PreferenceProfile,
    RecommendationList,
    SyntheticSpec,
    candidate_set,
    ego_centrality,
    evaluate_method,
    generate_synthetic,
    rank_cold_start,
    rank_for_user,
    recommend,
    recommendation_score,
    run_pipeline_from_view,
    split_users,
)
from filmrec.ranking import UNREACHABLE

from oracles import random_graph


def table_of(ac_values: dict[str, float]) -> CentralityTable:
    return CentralityTable.from_components({film: (x, x, x) for film, x in ac_values.items()})


def ego_chain() -> tuple[FilmGraph, CentralityTable]:
    """Five candidates at hop distances 1, 2, 3, 3, 1 from ego T."""
    g = FilmGraph(
        ["T", "i1", "i2", "i3", "i4", "i5"],
        [("T", "i1", 0.5), ("T", "i5", 0.5), ("i1", "i2", 0.5), ("i2", "i3", 0.5), ("i2", "i4", 0.5)],
    )
    table = table_of({"T": 0.9, "i1": 0.739, "i2": 0.889, "i3": 0.865, "i4": 0.524, "i5": 0.216})
    return g, table


class TestEgoCentrality:
    @pytest.mark.parametrize(
        "candidate,expected_distance,expected_value",
        [
            ("i1", 1, 0.739),
            ("i2", 2, 0.445),
            ("i3", 3, 0.288),
            ("i4", 3, 0.175),
            ("i5", 1, 0.216),
        ],
    )
    def test_published_rows(self, candidate, expected_distance, expected_value):
        g, table = ego_chain()
        score = ego_centrality(g, table, candidate, "T")
        assert score.distance == expected_distance
        assert score.value == pytest.approx(expected_value, abs=1e-3)

    def test_distance_one_keeps_full_centrality(self):
        g, table = ego_chain()
        score = ego_centrality(g, table, "i1", "T")
        assert score.value == pytest.approx(0.739, abs=1e-12)

    def test_half_at_distance_two(self):
        g = FilmGraph(["a", "b", "c"], [("a", "b", 0.5), ("b", "c", 0.5)])
        table = table_of({"a": 0.1, "b": 0.2, "c": 0.2675})
        assert ego_centrality(g, table, "c", "a").value == pytest.approx(0.13375, abs=1e-12)

    def test_self_distance_is_one(self):
        g, table = ego_chain()
        score = ego_centrality(g, table, "T", "T")
        assert score.distance == 1
        assert score.value == pytest.approx(0.9, abs=1e-12)

    def test_unreachable_candidate_scores_zero(self):
        g = FilmGraph(["a", "b", "z"], [("a", "b", 0.5)])
        table = table_of({"a": 0.5, "b": 0.5, "z": 0.5})
        score = ego_centrality(g, table, "z", "a")
        assert score.distance is UNREACHABLE
        assert score.value == 0.0

    def test_unknown_films(self):
        g, table = ego_chain()
        with pytest.raises(KeyError):
            ego_centrality(g, table, "nope", "T")
        with pytest.raises(KeyError):
            ego_centrality(g, table, "T", "nope")

    def test_value_never_exceeds_centrality(self):
        rng = random.Random(61)
        for _ in range(50):
            g = random_graph(rng)
            table = table_of({node: rng.uniform(0, 1) for node in g.nodes})
            candidate, ego = rng.choice(g.nodes), rng.choice(g.nodes)
            score = ego_centrality(g, table, candidate, ego)
            assert score.value <= table.ac(candidate) + 1e-15
            if score.distance == 1:
                assert score.value == table.ac(candidate)


class TestRecommendationScore:
    def test_published_row_6007(self):
        rs = recommendation_score([0.3081, 0.3081], [0.1541, 0.3081])
        assert rs == pytest.approx(0.1541, abs=1e-3)
        assert rs == pytest.approx(0.1540, abs=1e-6)

    def test_published_row_51_is_exactly_zero(self):
        assert recommendation_score([0.4796, 0.4796], [0.4796, 0.4796]) == 0.0

    def test_pure_penalty(self):
        assert recommendation_score([], [0.5]) == -0.5

    def test_empty_lists(self):
        assert recommendation_score([], []) == 0.0

    def test_published_ordering(self):
        rs53 = recommendation_score([0.2675, 0.1337], [0.1337, 0.1337])
        rs51 = recommendation_score([0.4796, 0.4796], [0.4796, 0.4796])
        rs6673 = recommendation_score([0.2885, 0.1442], [0.2885, 0.2885])
        assert rs53 > rs51 > rs6673
        assert rs53 == pytest.approx(0.1337, abs=1e-3)
        assert rs6673 == pytest.approx(-0.1442, abs=1e-3)


class TestCandidateSet:
    def test_single_cluster_mates(self):
        clustering = Clustering({"F1": 0, "F2": 0, "F7": 0, "F9": 1}, 0.0)
        profile = PreferenceProfile("u", ("F1",), ())
        assert candidate_set(clustering, profile) == {"F2", "F7"}

    def test_multi_cluster_union(self):
        clustering = Clustering({"a": 0, "b": 0, "c": 1, "d": 1, "e": 2}, 0.0)
        profile = PreferenceProfile("u", ("a", "c"), ())
        assert candidate_set(clustering, profile) == {"b", "d"}

    def test_singleton_cluster_gives_empty_set(self):
        clustering = Clustering({"F1": 0, "F2": 1}, 0.0)
        profile = PreferenceProfile("u", ("F1",), ())
        assert candidate_set(clustering, profile) == set()

    def test_non_preferred_films_stay_eligible(self):
        clustering = Clustering({"a": 0, "b": 0, "c": 0}, 0.0)
        profile = PreferenceProfile("u", ("a",), ("b",))
        assert candidate_set(clustering, profile) == {"b", "c"}
        assert candidate_set(clustering, profile, exclude_non_preferred=True) == {"c"}

    def test_empty_preferred_gives_empty_set(self):
        clustering = Clustering({"a": 0}, 0.0)
        assert candidate_set(clustering, PreferenceProfile("u", (), ("a",))) == set()


def chain_scenario():
    """Path A-B-C-D-E, user prefers A and rejects E; RS values by hand:
    B: 0.4 - 0.4/3, C: 0, D: 0.2/3 - 0.2, E: 0.1/4 - 0.1 (self-distance 1)."""
    g = FilmGraph(
        ["A", "B", "C", "D", "E"],
        [("A", "B", 0.5), ("B", "C", 0.5), ("C", "D", 0.5), ("D", "E", 0.5)],
    )
    table = table_of({"A": 0.5, "B": 0.4, "C": 0.3, "D": 0.2, "E": 0.1})
    clustering = Clustering({film: 0 for film in g.nodes}, 0.0)
    profile = PreferenceProfile("u", ("A",), ("E",))
    return g, table, clustering, profile


class TestRankForUser:
    def test_hand_computed_ordering(self):
        g, table, clustering, profile = chain_scenario()
        ranked = rank_for_user(g, table, clustering, profile)
        assert ranked.films() == ["B", "C", "E", "D"]
        scores = dict(ranked.entries)
        assert scores["B"] == pytest.approx(0.4 - 0.4 / 3, abs=1e-12)
        assert scores["C"] == pytest.approx(0.0, abs=1e-12)
        assert scores["E"] == pytest.approx(0.1 / 4 - 0.1, abs=1e-12)
        assert scores["D"] == pytest.approx(0.2 / 3 - 0.2, abs=1e-12)

    def test_preferred_films_are_excluded(self):
        g, table, clustering, profile = chain_scenario()
        assert "A" not in rank_for_user(g, table, clustering, profile).films()

    def test_single_candidate(self):
        clustering = Clustering({"A": 0, "B": 0, "C": 1, "D": 1, "E": 1}, 0.0)
        g, table, _, profile = chain_scenario()
        ranked = rank_for_user(g, table, clustering, profile)
        assert len(ranked.entries) == 1 and ranked.films() == ["B"]

    def test_equal_scores_tie_break_by_film_id(self):
        g = FilmGraph(["1", "10", "2"], [("1", "10", 0.5), ("1", "2", 0.5)])
        table = table_of({"1": 0.6, "10": 0.3, "2": 0.3})
        clustering = Clustering({"1": 0, "10": 0, "2": 0}, 0.0)
        ranked = rank_for_user(g, table, clustering, PreferenceProfile("u", ("1",), ()))
        assert ranked.films() == ["2", "10"]

    def test_no_preferred_films_gives_empty_list(self):
        g, table, clustering, _ = chain_scenario()
        ranked = rank_for_user(g, table, clustering, PreferenceProfile("u", (), ("A",)))
        assert ranked == RecommendationList("u", ())

    def test_unreachable_egos_contribute_nothing(self):
        g = FilmGraph(["a", "b", "z"], [("a", "b", 0.5)])
        table = table_of({"a": 0.5, "b": 0.4, "z": 0.3})
        clustering = Clustering({"a": 0, "b": 0, "z": 0}, 0.0)
        ranked = rank_for_user(g, table, clustering, PreferenceProfile("u", ("a",), ("z",)))
        scores = dict(ranked.entries)
        assert scores["b"] == pytest.approx(0.4, abs=1e-12)  # penalty side unreachable
        assert scores["z"] == pytest.approx(0.0 - 0.3, abs=1e-12)  # z to itself, distance 1


def random_scenario(rng: random.Random):
    """Random graph plus a profile that labels only part of the catalog, so
    swapped profiles still share unlabeled candidate films."""
    g = random_graph(rng, max_nodes=8)
    table = table_of({node: rng.uniform(0.01, 1.0) for node in g.nodes})
    clustering = Clustering({node: 0 for node in g.nodes}, 0.0)
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    third = max(1, len(nodes) // 3)
    preferred = tuple(sorted(nodes[:third]))
    non_preferred = tuple(sorted(nodes[third : 2 * third]))
    return g, table, clustering, preferred, non_preferred


class TestRankingProperties:
    def test_swap_antisymmetry(self):
        rng = random.Random(67)
        for _ in range(150):
            g, table, clustering, preferred, non_preferred = random_scenario(rng)
            if not preferred or not non_preferred:
                continue
            forward = rank_for_user(g, table, clustering, PreferenceProfile("u", preferred, non_preferred))
            swapped = rank_for_user(g, table, clustering, PreferenceProfile("u", non_preferred, preferred))
            forward_scores = dict(forward.entries)
            swapped_scores = dict(swapped.entries)
            shared = set(forward_scores) & set(swapped_scores)
            for film in shared:
                assert swapped_scores[film] == -forward_scores[film]

    def test_extra_penalty_never_raises_scores(self):
        rng = random.Random(71)
        for _ in range(150):
            g, table, clustering, preferred, non_preferred = random_scenario(rng)
            if not preferred or not non_preferred:
                continue
            base_profile = PreferenceProfile("u", preferred, non_preferred[:-1])
            more_profile = PreferenceProfile("u", preferred, non_preferred)
            base = dict(rank_for_user(g, table, clustering, base_profile).entries)
            more = dict(rank_for_user(g, table, clustering, more_profile).entries)
            for film in set(base) & set(more):
                assert more[film] <= base[film] + 1e-15

    def test_rescaling_centrality_preserves_order(self):
        rng = random.Random(73)
        for _ in range(150):
            g, table, clustering, preferred, non_preferred = random_scenario(rng)
            if not preferred:
                continue
            scale = rng.uniform(0.05, 1.0)
            scaled_table = table_of({node: table.ac(node) * scale for node in g.nodes})
            profile = PreferenceProfile("u", preferred, non_preferred)
            original = rank_for_user(g, table, clustering, profile)
            rescaled = rank_for_user(g, scaled_table, clustering, profile)
            assert original.films() == rescaled.films()


def sparse_scenario(rng: random.Random):
    """A 20-60 node graph of a few sparse blocks, so hop distances exceed 1,
    some egos are unreachable and some films are isolated. The profile lists
    its films in shuffled order and may name a film outside the graph."""
    n = rng.randint(20, 60)
    nodes = [str(i + 1) for i in range(n)]
    block = {node: rng.randrange(3) for node in nodes}
    p = rng.uniform(1.0, 3.0) / n * 3
    edges = [
        (a, b, rng.uniform(0.05, 1.0))
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if block[a] == block[b] and rng.random() < p
    ]
    g = FilmGraph(nodes, edges)
    table = table_of({node: rng.uniform(0.0, 1.0) for node in nodes})
    clustering = Clustering({node: rng.randrange(2) for node in nodes}, 0.0)
    judged = rng.sample(nodes, rng.randint(2, n // 2))
    cut = rng.randint(1, len(judged) - 1)
    preferred, non_preferred = judged[:cut], judged[cut:]
    if rng.random() < 0.3:
        non_preferred.append("outside")
    return g, table, clustering, PreferenceProfile("u", tuple(preferred), tuple(non_preferred))


class TestScoreOracle:
    def test_scores_equal_ego_centrality_sums_bit_for_bit(self):
        rng = random.Random(83)
        seen = Counter()
        for _ in range(60):
            g, table, clustering, profile = sparse_scenario(rng)
            ranked = rank_for_user(g, table, clustering, profile)
            for film, score in ranked.entries:
                prefs = [ego_centrality(g, table, film, ego) for ego in profile.preferred if ego in g]
                nonprefs = [ego_centrality(g, table, film, ego) for ego in profile.non_preferred if ego in g]
                expected = recommendation_score([s.value for s in prefs], [s.value for s in nonprefs])
                assert score.hex() == expected.hex()
                seen["unreachable"] += any(s.distance is UNREACHABLE for s in prefs + nonprefs)
                seen["far"] += any(s.distance is not None and s.distance > 1 for s in prefs + nonprefs)
                seen["non_preferred"] += film in profile.non_preferred
        assert seen["unreachable"] and seen["far"] and seen["non_preferred"]


def test_one_kernel_pass_per_graph(traversals):
    """Serving every user and evaluating the ego policy run one path-kernel
    pass on each of the two graphs, and no single-source BFS."""
    view = generate_synthetic(SyntheticSpec(film_count=30, user_count=90, planted_cluster_count=3, seed=5))
    artifact = run_pipeline_from_view(view, PipelineConfig(edge_threshold=0.3))
    for user in artifact.profiles:
        recommend(artifact, user, 5)
    train, test = split_users(view, 80, 0.7, 2)
    policy = EgoGraphPolicy(edge_threshold=0.3)
    report = evaluate_method(policy, train, test)
    assert report.judgments
    assert [id(p) for p in traversals.passes] == [id(artifact.graph.indptr), id(policy.graph.indptr)]
    assert not traversals.bfs


class TestColdStart:
    TABLE = table_of({"51": 0.4796, "53": 0.2675, "56": 0.4733})

    def test_published_values_order(self):
        assert rank_cold_start(self.TABLE, 2).films() == ["51", "56"]

    def test_single_film_catalog(self):
        table = table_of({"only": 0.3})
        assert rank_cold_start(table, 1).films() == ["only"]

    def test_ties_by_ascending_id(self):
        table = table_of({"7": 0.5, "2": 0.5, "11": 0.5})
        assert rank_cold_start(table, 3).films() == ["2", "7", "11"]

    def test_k_beyond_catalog_returns_all(self):
        assert len(rank_cold_start(self.TABLE, 99).entries) == 3

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            rank_cold_start(self.TABLE, 0)
