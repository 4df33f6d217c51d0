"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import hashlib
import json
import random

import numpy as np
import pytest

from filmrec import (
    CentralityTable,
    Clustering,
    EgoGraphPolicy,
    FilmGraph,
    PipelineArtifact,
    PipelineConfig,
    PreferenceProfile,
    RandomScorePolicy,
    SyntheticSpec,
    ViewMatrix,
    average_centrality,
    betweenness_centrality,
    comembership_f1,
    ego_centrality,
    evaluate_method,
    generate_synthetic,
    louvain,
    planted_film_clusters,
    rank_for_user,
    recommend,
    recommendation_score,
    run_pipeline,
    split_users,
)
from filmrec.evaluation import KnnPolicy, NaiveBayesPolicy, SplitSpec, view_to_events
from filmrec.similarity import NOT_COMPARABLE, AveragingPolicy, average_similarity, dual_similarity

from oracles import (
    brute_force_betweenness,
    exhaustive_max_modularity,
    monte_carlo_random_judge_accuracy,
    random_graph,
    random_view_matrix,
    tensor_average_similarity,
)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n{label}: FAIL")
                raise
            print(f"\n{label}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def default_synthetic():
    return generate_synthetic(SyntheticSpec())


@criterion("criterion 1 (average-centrality reproduction)")
def test_criterion_1_average_centrality():
    assert average_centrality(0.0536, 0.8229, 0.5622) == pytest.approx(0.4796, abs=5e-5)
    assert average_centrality(0.0345, 0.6475, 0.1204) == pytest.approx(0.2675, abs=5e-5)


@criterion("criterion 2 (ego-centric centrality reproduction)")
def test_criterion_2_ego_centrality():
    # five published rows: (centrality, hop distance) -> ego-centric value
    g = FilmGraph(
        ["T", "i1", "i2", "i3", "i4", "i5"],
        [("T", "i1", 0.5), ("T", "i5", 0.5), ("i1", "i2", 0.5), ("i2", "i3", 0.5), ("i2", "i4", 0.5)],
    )
    table = CentralityTable.from_components(
        {
            "T": (0.9, 0.9, 0.9),
            "i1": (0.739, 0.739, 0.739),
            "i2": (0.889, 0.889, 0.889),
            "i3": (0.865, 0.865, 0.865),
            "i4": (0.524, 0.524, 0.524),
            "i5": (0.216, 0.216, 0.216),
        }
    )
    expected = {"i1": (1, 0.739), "i2": (2, 0.445), "i3": (3, 0.288), "i4": (3, 0.175), "i5": (1, 0.216)}
    for film, (distance, value) in expected.items():
        score = ego_centrality(g, table, film, "T")
        assert score.distance == distance
        assert score.value == pytest.approx(value, abs=1e-3)

    # second published table: values 0.4796 at distance 1, 0.2675 at distance 2
    chain = FilmGraph(["e", "51", "53"], [("e", "51", 0.5), ("51", "53", 0.5)])
    table2 = CentralityTable.from_components(
        {"e": (0.1, 0.1, 0.1), "51": (0.4796, 0.4796, 0.4796), "53": (0.2675, 0.2675, 0.2675)}
    )
    assert ego_centrality(chain, table2, "51", "e").value == pytest.approx(0.4796, abs=1e-3)
    assert ego_centrality(chain, table2, "53", "e").value == pytest.approx(0.1337, abs=1e-3)


@criterion("criterion 3 (recommendation-score reproduction)")
def test_criterion_3_recommendation_score():
    assert recommendation_score([0.3081, 0.3081], [0.1541, 0.3081]) == pytest.approx(0.1541, abs=1e-3)
    assert recommendation_score([0.4796, 0.4796], [0.4796, 0.4796]) == 0.0
    rs53 = recommendation_score([0.2675, 0.1337], [0.1337, 0.1337])
    rs51 = recommendation_score([0.4796, 0.4796], [0.4796, 0.4796])
    rs6673 = recommendation_score([0.2885, 0.1442], [0.2885, 0.2885])
    assert rs53 > rs51 > rs6673


@criterion("criterion 4 (betweenness vs brute-force oracle, 200 graphs)")
def test_criterion_4_betweenness_oracle():
    rng = random.Random(1009)
    for _ in range(200):
        g = random_graph(rng, max_nodes=8)
        fast = betweenness_centrality(g)
        slow = brute_force_betweenness(g)
        for node in g.nodes:
            assert abs(fast[node] - slow[node]) <= 1e-12


@criterion("criterion 5 (clustering vs exhaustive-partition oracle)")
def test_criterion_5_modularity_oracle():
    import itertools

    two_triangles = FilmGraph(
        list("abcdef"),
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
         ("d", "e", 1.0), ("e", "f", 1.0), ("d", "f", 1.0)],
    )
    k4 = FilmGraph(list("abcd"), [(x, y, 1.0) for x, y in itertools.combinations("abcd", 2)])
    four_cycle = FilmGraph(
        list("abcd"), [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)]
    )
    edgeless5 = FilmGraph(list("abcde"), [])
    for g in (two_triangles, k4, four_cycle, edgeless5):
        clustering = louvain(g, verify_gains=True)
        assert clustering.modularity == pytest.approx(exhaustive_max_modularity(g), abs=1e-12)

    rng = random.Random(1013)
    for _ in range(50):
        g = random_graph(rng, max_nodes=7)
        trace: list[float] = []
        clustering = louvain(g, on_improve=trace.append, verify_gains=True)
        assert all(later >= earlier for earlier, later in zip(trace, trace[1:]))
        assert clustering.modularity <= exhaustive_max_modularity(g) + 1e-12


@criterion("criterion 6 (similarity properties and streaming-vs-tensor equality)")
def test_criterion_6_similarity():
    rng = random.Random(1019)
    for _ in range(10_000):
        a = None if rng.random() < 0.2 else rng.random()
        b = None if rng.random() < 0.2 else rng.random()
        ds = dual_similarity(a, b)
        assert ds == dual_similarity(b, a)
        assert ds == NOT_COMPARABLE or 0.0 <= ds <= 1.0
        if a is not None and a > 0.0:
            assert dual_similarity(a, a) == 1.0

    for _ in range(100):
        view = random_view_matrix(rng, max_films=10, max_users=10)
        for policy in AveragingPolicy:
            sim = average_similarity(view, policy)
            expected = tensor_average_similarity(view, policy)
            for (fi, fj), value in expected.items():
                assert sim.value(fi, fj) == value  # exact, not approximate


def _random_ranking_instance(rng: random.Random):
    g = random_graph(rng, max_nodes=8)
    table = CentralityTable.from_components(
        {node: (x := rng.uniform(0.01, 1.0), x, x) for node in g.nodes}
    )
    clustering = Clustering({node: 0 for node in g.nodes}, 0.0)
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    third = max(1, len(nodes) // 3)
    preferred = tuple(sorted(nodes[:third]))
    non_preferred = tuple(sorted(nodes[third : 2 * third]))
    return g, table, clustering, preferred, non_preferred


@criterion("criterion 7 (ranking properties, 1000 instances each)")
def test_criterion_7_ranking_properties():
    rng = random.Random(1021)
    for _ in range(1000):  # swap antisymmetry
        g, table, clustering, preferred, non_preferred = _random_ranking_instance(rng)
        if not preferred or not non_preferred:
            continue
        forward = dict(
            rank_for_user(g, table, clustering, PreferenceProfile("u", preferred, non_preferred)).entries
        )
        swapped = dict(
            rank_for_user(g, table, clustering, PreferenceProfile("u", non_preferred, preferred)).entries
        )
        for film in set(forward) & set(swapped):
            assert swapped[film] == -forward[film]

    for _ in range(1000):  # growing the penalty list never raises a score
        g, table, clustering, preferred, non_preferred = _random_ranking_instance(rng)
        if not preferred or not non_preferred:
            continue
        base = dict(
            rank_for_user(g, table, clustering, PreferenceProfile("u", preferred, non_preferred[:-1])).entries
        )
        more = dict(
            rank_for_user(g, table, clustering, PreferenceProfile("u", preferred, non_preferred)).entries
        )
        for film in set(base) & set(more):
            assert more[film] <= base[film] + 1e-15

    for _ in range(1000):  # rescaling every centrality preserves the ordering
        g, table, clustering, preferred, non_preferred = _random_ranking_instance(rng)
        if not preferred:
            continue
        scale = rng.uniform(0.05, 1.0)
        scaled = CentralityTable.from_components(
            {node: (y := table.ac(node) * scale, y, y) for node in g.nodes}
        )
        profile = PreferenceProfile("u", preferred, non_preferred)
        assert (
            rank_for_user(g, table, clustering, profile).films()
            == rank_for_user(g, scaled, clustering, profile).films()
        )


@criterion("criterion 8 (end-to-end synthetic recovery)")
def test_criterion_8_synthetic_recovery(default_synthetic):
    # 8a: clustering the default synthetic graph recovers the planted blocks
    spec = SyntheticSpec()
    sim = average_similarity(default_synthetic)
    from filmrec import build_graph

    clustering = louvain(build_graph(sim, 0.0))
    f1 = comembership_f1(planted_film_clusters(spec), clustering.assignment)
    assert f1 >= 0.9

    # 8b: the pipeline beats a symmetric random scorer on every seed;
    # random expectation pinned by a Monte-Carlo oracle first
    assert monte_carlo_random_judge_accuracy(200_000, seed=2) == pytest.approx(1 / 3, abs=0.01)
    for seed in range(5):
        train, test = split_users(default_synthetic, 50, 0.7, seed)
        proposed = evaluate_method(EgoGraphPolicy(), train, test)
        rand = evaluate_method(RandomScorePolicy(seed), train, test)
        assert proposed.accuracy > rand.accuracy, f"seed {seed}"


@criterion("criterion 9 (no test-user leakage into training)")
def test_criterion_9_leakage(default_synthetic):
    view = default_synthetic
    train, test = split_users(view, 50, 0.7, 3)
    policy = EgoGraphPolicy()
    policy.fit(train)
    baseline = policy.similarity.values.copy()

    entries = view.entries()
    for victim in test.users:
        for film in view.films:
            if (film, victim) in entries:
                entries[(film, victim)] = 1.0 - 0.5 * entries[(film, victim)]
    perturbed = ViewMatrix(entries, films=view.films, users=view.users)
    train2, _ = split_users(perturbed, 50, 0.7, 3)
    policy2 = EgoGraphPolicy()
    policy2.fit(train2)
    assert np.array_equal(policy2.similarity.values, baseline)


@criterion("criterion 10 (pipeline and evaluation determinism)")
def test_criterion_10_determinism(default_synthetic, tmp_path):
    events_path = tmp_path / "events.csv"
    lines = ["film_id,user_id,watch_seconds,total_seconds"]
    for event in view_to_events(default_synthetic):
        lines.append(f"{event.film_id},{event.user_id},{event.watch_seconds!r},{event.total_seconds!r}")
    events_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = PipelineConfig()
    first = run_pipeline(events_path, config)
    second = run_pipeline(events_path, config)
    assert first.payload_without_timestamp() == second.payload_without_timestamp()

    train, test = split_users(default_synthetic, 50, 0.7, 4)
    report_a = evaluate_method(EgoGraphPolicy(), train, test)
    report_b = evaluate_method(EgoGraphPolicy(), train, test)
    assert report_a == report_b


# sha256 of the canonical JSON of payload_without_timestamp() for the
# criterion-10 fixture. Any change to the similarity, graph, centrality,
# clustering or profile output changes it.
GOLDEN_PAYLOAD_SHA256 = "4d7675b68495c8e16dc987f300d465fb41354e8acd2207aa479da7f684fe7cbe"


@criterion("criterion 10 (golden payload hash)")
def test_criterion_10_golden_payload_hash(default_synthetic, tmp_path):
    events_path = tmp_path / "events.csv"
    lines = ["film_id,user_id,watch_seconds,total_seconds"]
    for event in view_to_events(default_synthetic):
        lines.append(f"{event.film_id},{event.user_id},{event.watch_seconds!r},{event.total_seconds!r}")
    events_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    payload = run_pipeline(events_path, PipelineConfig()).payload_without_timestamp()
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_PAYLOAD_SHA256


def _criterion_10_artifact(view, tmp_path, config):
    events_path = tmp_path / "events.csv"
    lines = ["film_id,user_id,watch_seconds,total_seconds"]
    for event in view_to_events(view):
        lines.append(f"{event.film_id},{event.user_id},{event.watch_seconds!r},{event.total_seconds!r}")
    events_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return run_pipeline(events_path, config)


# sha256 of the canonical JSON of every profile user's full recommendation
# list (k = film count, scores as float.hex) for the criterion-10 fixture, at
# the default complete graph and at a sparse threshold where hop distances
# exceed 1 and some egos are unreachable. Recorded before the ranking and the
# evaluation policy shared one scorer; any change to a score's bits or to the
# order changes it.
GOLDEN_RANKING_SHA256 = {
    0.0: "db3861215468aba60d1acfb2a3ebf5a67836bc5a56d3a96c1b44f61cfbe23cd1",
    0.35: "89189904b4bcf2248bc2dad7b8f4b624f1a162e4203d18ebd508f7ea161dee55",
}


@criterion("criterion 10 (golden ranking hash)")
@pytest.mark.parametrize("edge_threshold", sorted(GOLDEN_RANKING_SHA256))
def test_criterion_10_golden_ranking_hash(default_synthetic, tmp_path, edge_threshold):
    artifact = _criterion_10_artifact(default_synthetic, tmp_path, PipelineConfig(edge_threshold=edge_threshold))
    k = len(artifact.similarity.films)
    document = {
        user: [[film, score.hex()] for film, score in recommend(artifact, user, k).entries]
        for user in artifact.profiles
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_RANKING_SHA256[edge_threshold]


# sha256 of the canonical JSON of payload_without_timestamp() for the
# criterion-10 fixture at a sparse threshold. Every betweenness value of the
# default complete graph is 0.0, so GOLDEN_PAYLOAD_SHA256 cannot see a change
# to the Brandes pass; here 59 of the 80 films have non-zero betweenness.
# Recorded before betweenness read the shared hop-distance memo.
GOLDEN_SPARSE_PAYLOAD_SHA256 = "651be6be23fc371df8c573f5251821fcf2101ee13c22c51543961fb7e2f711c1"


@criterion("criterion 10 (golden payload hash, sparse graph)")
def test_criterion_10_golden_payload_hash_sparse(default_synthetic, tmp_path):
    artifact = _criterion_10_artifact(default_synthetic, tmp_path, PipelineConfig(edge_threshold=0.35))
    assert sum(row.betweenness_c > 0.0 for row in artifact.centrality.rows.values()) == 59
    text = json.dumps(artifact.payload_without_timestamp(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SPARSE_PAYLOAD_SHA256


@criterion("criterion 10 (saved artifact reloads as built)")
@pytest.mark.parametrize("edge_threshold", [0.0, 0.35])
def test_criterion_10_artifact_reloads_as_built(default_synthetic, tmp_path, edge_threshold):
    """The file stores no centrality; load derives the same table bit for bit."""
    built = _criterion_10_artifact(default_synthetic, tmp_path, PipelineConfig(edge_threshold=edge_threshold))
    path = tmp_path / "artifact.json"
    built.save(path)
    assert "centrality" not in json.loads(path.read_text())
    assert PipelineArtifact.load(path).payload_without_timestamp() == built.payload_without_timestamp()


# sha256 of the canonical JSON of the ego_graph (edge threshold 0.35), knn,
# naive_bayes and random evaluation reports on the criterion-10 fixture, split
# 100 users 70/30 with seed 4. Recorded while ViewMatrix still kept a second,
# film-keyed copy of its entries; any change to a judgment, a score's bits or
# the order of the judgments changes it.
GOLDEN_EVAL_REPORT_SHA256 = "7b6b3324cb0b07ccf31dbe1281162213ea779bf5c76f1ae0c3447232bdff7ced"


@criterion("criterion 10 (golden evaluation report hash)")
def test_criterion_10_golden_eval_report_hash(default_synthetic):
    split = SplitSpec(100, 0.7, 4)
    train, test = split_users(default_synthetic, split.sample_size, split.train_fraction, split.seed)
    policies = [EgoGraphPolicy(edge_threshold=0.35), KnnPolicy(5), NaiveBayesPolicy(), RandomScorePolicy(4)]
    reports = [evaluate_method(policy, train, test, split=split).to_json_dict() for policy in policies]
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_EVAL_REPORT_SHA256
