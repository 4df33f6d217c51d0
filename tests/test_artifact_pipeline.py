import json

import pytest

import filmrec.graph
from filmrec import (
    DataError,
    DomainError,
    EgoGraphPolicy,
    PipelineArtifact,
    PipelineConfig,
    StageError,
    SyntheticSpec,
    generate_synthetic,
    is_cold_start,
    recommend,
    run_pipeline,
    run_pipeline_from_view,
)
from filmrec.config import load_config, parse_config_text
from filmrec.evaluation import view_to_events
from filmrec.similarity import AveragingPolicy


@pytest.fixture(scope="module")
def small_view():
    return generate_synthetic(
        SyntheticSpec(film_count=12, user_count=20, planted_cluster_count=2, seed=5)
    )


@pytest.fixture(scope="module")
def small_artifact(small_view):
    return run_pipeline_from_view(small_view, PipelineConfig())


@pytest.fixture()
def events_file(tmp_path, small_view):
    path = tmp_path / "events.csv"
    lines = ["film_id,user_id,watch_seconds,total_seconds"]
    for event in view_to_events(small_view):
        lines.append(
            f"{event.film_id},{event.user_id},{event.watch_seconds!r},{event.total_seconds!r}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfig:
    def test_parse_text(self):
        text = "# comment\nedge_threshold = 0.25\naveraging_policy = all_users\nclamp = false\n"
        config = PipelineConfig.from_dict(parse_config_text(text))
        assert config.edge_threshold == 0.25
        assert config.averaging_policy is AveragingPolicy.ALL_USERS
        assert config.clamp is False

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown config key"):
            PipelineConfig.from_dict({"wat": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(DataError):
            PipelineConfig.from_dict({"edge_threshold": "lots"})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_text("seed = 3\npreference_threshold = 0.6\n")
        config = load_config(path)
        assert config.seed == 3
        assert config.preference_threshold == 0.6

    def test_snapshot_round_trip(self):
        config = PipelineConfig(edge_threshold=0.3, seed=11)
        assert PipelineConfig.from_dict(config.to_dict()) == config


class TestRunPipeline:
    def test_from_events_file(self, events_file):
        artifact = run_pipeline(events_file, PipelineConfig())
        assert len(artifact.similarity.films) == 12
        assert max(artifact.clustering.assignment.values()) + 1 >= 2
        assert set(artifact.profiles) == set(artifact.profiles)

    def test_default_synthetic_run(self, small_artifact, small_view):
        assert small_artifact.graph.nodes == small_view.films
        assert len(small_artifact.profiles) == 20

    def test_empty_events_fails_at_ingest(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("film_id,user_id,watch_seconds,total_seconds\n")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(path, PipelineConfig())
        assert excinfo.value.stage == "ingest"

    def test_rerun_is_byte_identical_except_timestamp(self, events_file):
        first = run_pipeline(events_file, PipelineConfig())
        second = run_pipeline(events_file, PipelineConfig())
        assert first.payload_without_timestamp() == second.payload_without_timestamp()

    def test_config_validation(self, small_view):
        with pytest.raises(DomainError):
            run_pipeline_from_view(small_view, PipelineConfig(edge_threshold=2.0))

    @pytest.mark.parametrize(
        "start",
        [
            lambda view: run_pipeline_from_view(view, PipelineConfig(averaging_policy="all_users")),
            lambda view: run_pipeline_from_view(view, PipelineConfig(edge_threshold="0.3")),
            lambda view: EgoGraphPolicy(seed=2.5),
        ],
        ids=["averaging_policy_text", "edge_threshold_text", "ego_policy_float_seed"],
    )
    def test_mistyped_config_field_is_refused_before_any_stage(self, small_view, start):
        with pytest.raises(DomainError, match="expected"):
            start(small_view)


class TestArtifactSerialization:
    def test_round_trip_is_lossless(self, tmp_path, small_artifact):
        path = tmp_path / "artifact.json"
        small_artifact.save(path)
        loaded = PipelineArtifact.load(path)
        assert loaded.payload_without_timestamp() == small_artifact.payload_without_timestamp()
        assert loaded.created_at == small_artifact.created_at

    def test_round_trip_preserves_recommendations(self, tmp_path, small_artifact):
        path = tmp_path / "artifact.json"
        small_artifact.save(path)
        loaded = PipelineArtifact.load(path)
        for user in list(small_artifact.profiles)[:5]:
            assert recommend(loaded, user, 5) == recommend(small_artifact, user, 5)

    def test_save_is_deterministic(self, tmp_path, small_artifact):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        small_artifact.save(a)
        small_artifact.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_newer_version_refused(self, tmp_path, small_artifact):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="newer"):
            PipelineArtifact.load(path)

    def test_tampered_graph_rejected(self, tmp_path, small_artifact):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        payload["edges"] = payload["edges"][:-1]  # drop one edge
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="graph"):
            PipelineArtifact.load(path)

    def test_tampered_centrality_rejected(self, tmp_path, small_artifact):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        film = next(iter(payload["centrality"]))
        payload["centrality"][film][3] += 0.1
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="centrality"):
            PipelineArtifact.load(path)

    @staticmethod
    def _top_preferred(payload):
        for entry in payload["profiles"].values():
            if entry["preferred"]:
                return entry["preferred"][0]
        raise AssertionError("no user prefers anything")

    def _corrupt(self, payload, corruption):
        top = self._top_preferred(payload)
        assignment = payload["clustering"]["assignment"]
        if corruption == "phantom_clustered_film":
            assignment["phantom"] = assignment[top]
        elif corruption == "missing_clustered_film":
            del assignment[next(film for film in assignment if film != top)]
        elif corruption == "sparse_cluster_ids":
            assignment[top] = max(assignment.values()) + 5
        elif corruption == "phantom_centrality_film":
            payload["centrality"]["phantom"] = payload["centrality"][top]
        elif corruption == "missing_centrality_film":
            del payload["centrality"][top]
        elif corruption == "phantom_profile_film":
            user = next(iter(payload["profiles"]))
            payload["profiles"][user]["non_preferred"].append("phantom")

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("phantom_clustered_film", "clustering"),
            ("missing_clustered_film", "clustering"),
            ("sparse_cluster_ids", "cluster ids"),
            ("phantom_centrality_film", "centrality"),
            ("missing_centrality_film", "centrality"),
            ("phantom_profile_film", "profile"),
        ],
    )
    def test_film_set_mismatch_rejected(self, tmp_path, small_artifact, corruption, message):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        self._corrupt(payload, corruption)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            PipelineArtifact.load(path)

    @staticmethod
    def _corrupt_value(payload, corruption):
        films = payload["films"]
        similarity = payload["similarity"]
        if corruption == "similarity_diagonal_7":
            similarity[0][0] = 7.0
        elif corruption == "similarity_off_graph_negative":
            # both mirror cells, and the edge dropped, so the stored graph
            # still equals the one the similarity and threshold produce
            similarity[0][1] = similarity[1][0] = -3.0
            payload["edges"] = [e for e in payload["edges"] if {e[0], e[1]} != {films[0], films[1]}]
        elif corruption == "similarity_nan":
            similarity[2][2] = float("nan")
        elif corruption == "similarity_inf":
            similarity[1][2] = similarity[2][1] = float("inf")
        elif corruption == "similarity_asymmetric":
            similarity[2][1] = similarity[1][2] / 2  # the graph reads only the upper triangle
        elif corruption == "similarity_fractional_diagonal":
            similarity[0][0] = 0.5
        elif corruption == "modularity_nan":
            payload["clustering"]["modularity"] = float("nan")
        elif corruption == "modularity_string":
            payload["clustering"]["modularity"] = "x"
        elif corruption == "modularity_1.5":
            payload["clustering"]["modularity"] = 1.5
        elif corruption == "modularity_plus_1e-3":
            payload["clustering"]["modularity"] += 1e-3
        elif corruption == "centrality_component_above_one":
            payload["centrality"][films[0]][1] = 1.5
        elif corruption == "centrality_component_nan":
            payload["centrality"][films[0]][0] = float("nan")

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("similarity_diagonal_7", "similarity"),
            ("similarity_off_graph_negative", "similarity"),
            ("similarity_nan", "similarity"),
            ("similarity_inf", "similarity"),
            ("similarity_asymmetric", "symmetric"),
            ("similarity_fractional_diagonal", "diagonal"),
            ("modularity_nan", "modularity"),
            ("modularity_string", "modularity"),
            ("modularity_1.5", "modularity"),
            ("modularity_plus_1e-3", "modularity"),
            ("centrality_component_above_one", "centrality"),
            ("centrality_component_nan", "centrality"),
        ],
    )
    def test_out_of_range_value_rejected(self, tmp_path, small_artifact, corruption, message):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        self._corrupt_value(payload, corruption)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            PipelineArtifact.load(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("format_version", True, "format_version"),
            ("created_at", [], "created_at"),
            ("created_at", None, "created_at"),
            ("created_at", 1, "created_at"),
        ],
    )
    def test_mistyped_header_field_rejected(self, tmp_path, small_artifact, field, value, message):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            PipelineArtifact.load(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("preferred", "12", "profile"),  # a string iterates as the films "1" and "2"
            ("preferred", {"1": 0}, "profile"),
            ("non_preferred", "3", "profile"),
            ("cluster", False, "cluster id"),
            ("cluster", True, "cluster id"),
            ("cluster", 0.0, "cluster id"),
            ("cluster", 1.0, "cluster id"),
        ],
    )
    def test_mistyped_profile_or_cluster_field_rejected(self, tmp_path, small_artifact, field, value, message):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        if field == "cluster":
            assignment = payload["clustering"]["assignment"]
            # a film whose cluster id equals the value, so the ids stay dense
            assignment[next(film for film, cluster in assignment.items() if cluster == value)] = value
        else:
            user = next(user for user, entry in payload["profiles"].items() if entry["preferred"])
            payload["profiles"][user][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            PipelineArtifact.load(path)

    @pytest.mark.parametrize("bad_edge", ["weight_1.5", "self_loop"])
    def test_bad_stored_edge_rejected(self, tmp_path, small_artifact, bad_edge):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        a, b, weight = payload["edges"][0]
        payload["edges"][0] = [a, b, 1.5] if bad_edge == "weight_1.5" else [a, a, weight]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="graph"):
            PipelineArtifact.load(path)

    def test_load_builds_one_graph_and_validate_none(self, tmp_path, small_artifact, monkeypatch):
        path = tmp_path / "artifact.json"
        small_artifact.save(path)
        built = []
        init = filmrec.graph.FilmGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(filmrec.graph.FilmGraph, "__init__", counted)
        loaded = PipelineArtifact.load(path)
        assert built == [loaded.graph]
        loaded.validate()
        assert built == [loaded.graph]

    def test_recommend_for_every_user_after_load_runs_one_kernel_pass(self, tmp_path, small_artifact, traversals):
        path = tmp_path / "artifact.json"
        small_artifact.save(path)
        loaded = PipelineArtifact.load(path)
        for user in loaded.profiles:
            assert recommend(loaded, user, 5) == recommend(small_artifact, user, 5)
        # the built artifact's pass ran while the pipeline computed its centrality
        assert [id(p) for p in traversals.passes] == [id(loaded.graph.indptr)]
        assert not traversals.bfs

    @pytest.mark.parametrize("edge_threshold", [0.0, 0.35])
    def test_save_of_load_is_byte_identical(self, tmp_path, small_view, edge_threshold):
        saved, resaved = tmp_path / "saved.json", tmp_path / "resaved.json"
        run_pipeline_from_view(small_view, PipelineConfig(edge_threshold=edge_threshold)).save(saved)
        PipelineArtifact.load(saved).save(resaved)
        assert resaved.read_bytes() == saved.read_bytes()

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(DataError, match="JSON"):
            PipelineArtifact.load(path)

    def test_missing_sections_rejected(self, tmp_path, small_artifact):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        del payload["centrality"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed"):
            PipelineArtifact.load(path)

    @pytest.mark.parametrize("document", ["[]", "null", "1", '"x"'])
    def test_non_object_document_rejected(self, tmp_path, document):
        path = tmp_path / "artifact.json"
        path.write_text(document)
        with pytest.raises(DataError, match="object"):
            PipelineArtifact.load(path)

    @pytest.mark.parametrize("section", ["config", "centrality", "clustering", "profiles"])
    def test_list_section_rejected(self, tmp_path, small_artifact, section):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        payload[section] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed"):
            PipelineArtifact.load(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("preference_threshold", 0.0),
            ("preference_threshold", 1.0),
            ("edge_threshold", 5),
            ("edge_threshold", -0.1),
            ("seed", 2.5),
            ("edge_threshold", True),
            ("clamp", 1),
        ],
    )
    def test_out_of_domain_config_rejected(self, tmp_path, small_artifact, key, value):
        path = tmp_path / "artifact.json"
        payload = small_artifact.to_payload()
        payload["config"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=key):
            PipelineArtifact.load(path)


class TestRecommend:
    def test_known_user_gets_cluster_candidates(self, small_artifact):
        user = next(u for u, p in small_artifact.profiles.items() if p.preferred)
        ranked = recommend(small_artifact, user, 5)
        assert ranked.user_id == user
        assert len(ranked.entries) <= 5
        preferred = set(small_artifact.profiles[user].preferred)
        assert not preferred & set(ranked.films())
        wanted_clusters = {
            small_artifact.clustering.assignment[f] for f in preferred
        }
        for film in ranked.films():
            assert small_artifact.clustering.assignment[film] in wanted_clusters

    def test_unknown_user_gets_cold_start(self, small_artifact):
        ranked = recommend(small_artifact, "nobody", 3)
        assert is_cold_start(small_artifact, "nobody")
        assert ranked.user_id == "nobody"
        top = sorted(
            small_artifact.centrality.rows,
            key=lambda f: -small_artifact.centrality.ac(f),
        )[:3]
        assert set(ranked.films()) == set(top)

    def test_history_less_user_gets_cold_start(self, small_view):
        from filmrec import ViewMatrix

        entries = small_view.entries()
        # a user whose only watch is 20%: watched, but prefers nothing
        entries[("1", "zzz")] = 0.2
        view = ViewMatrix(entries, films=small_view.films, users=[*small_view.users, "zzz"])
        artifact = run_pipeline_from_view(view, PipelineConfig())
        assert is_cold_start(artifact, "zzz")
        ranked = recommend(artifact, "zzz", 4)
        assert len(ranked.entries) == 4

    def test_k_must_be_positive(self, small_artifact):
        with pytest.raises(DomainError):
            recommend(small_artifact, "anyone", 0)
