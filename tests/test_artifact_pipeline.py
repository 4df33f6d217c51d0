import dataclasses
import json
import logging
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filmrec.graph
from filmrec import (
    CentralityTable,
    DataError,
    DomainError,
    EgoGraphPolicy,
    PipelineArtifact,
    PipelineConfig,
    SimilarityMatrix,
    StageError,
    SyntheticSpec,
    ViewMatrix,
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


def saved_document(tmp_path, artifact) -> dict:
    """The document that ``save`` writes for ``artifact``."""
    path = tmp_path / "saved.json"
    artifact.save(path)
    return json.loads(path.read_text())


def load_document(tmp_path, document) -> PipelineArtifact:
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(document))
    return PipelineArtifact.load(path)


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

    def test_snapshot_writes_float_fields_as_floats(self):
        snapshot = PipelineConfig(edge_threshold=0, seed=3).to_dict()
        assert (type(snapshot["edge_threshold"]), type(snapshot["seed"])) == (float, int)

    def test_replace_rechecks_the_ranges(self):
        with pytest.raises(DomainError, match="edge_threshold outside"):
            dataclasses.replace(PipelineConfig(), edge_threshold=2.0)

    def test_int_in_a_float_field_is_stored_as_a_float(self):
        assert type(PipelineConfig(edge_threshold=0).edge_threshold) is float

    @pytest.mark.parametrize(
        "values, message",
        [({"seed": 2.5}, "expected an integer"), ({"averaging_policy": 3}, "expected one of")],
    )
    def test_non_text_mistyped_value_is_refused_by_the_constructor(self, values, message):
        with pytest.raises(DomainError, match=message):
            PipelineConfig.from_dict(values)

    def test_artifact_with_mistyped_config_fails_to_load(self, tmp_path, small_artifact):
        document = saved_document(tmp_path, small_artifact)
        document["config"]["seed"] = 2.5
        with pytest.raises(DataError, match="artifact config: config seed: expected an integer"):
            load_document(tmp_path, document)

    def test_comment_may_follow_a_value(self):
        values = parse_config_text("edge_threshold = 0.25  # minimum\nclamp = false#no clamping\n")
        assert values == {"edge_threshold": "0.25", "clamp": "false"}

    def test_readme_config_block_gives_the_defaults(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```$", text, flags=re.M | re.S)
        block = next(block for block in blocks if block.startswith("# pipeline.conf"))
        assert PipelineConfig.from_dict(parse_config_text(block)) == PipelineConfig()

    def test_repeated_key_rejected_with_both_lines(self):
        text = "edge_threshold = 0.3\nseed = 1\nedge_threshold = 0.5\n"
        with pytest.raises(DataError, match="config line 3: edge_threshold already set on line 1"):
            parse_config_text(text)


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


class TestRunLog:
    def test_every_stage_logs_its_time_at_info(self, events_file, caplog):
        with caplog.at_level(logging.INFO, logger="filmrec.pipeline"):
            run_pipeline(events_file, PipelineConfig())
        stages = [r.getMessage().split(":")[0] for r in caplog.records if r.levelno == logging.INFO]
        assert stages == [
            f"stage {name}" for name in ("ingest", "similarity", "graph", "centrality", "cluster", "profiles")
        ]

    @pytest.mark.parametrize(
        "edge_threshold, message",
        [
            (0.0, "similarity graph is complete: 66 edges at edge_threshold 0.0"),
            (0.9, "similarity graph is edgeless: 0 edges at edge_threshold 0.9"),
            (0.35, None),
        ],
    )
    def test_degenerate_graph_is_warned_about(self, small_view, caplog, edge_threshold, message):
        with caplog.at_level(logging.WARNING, logger="filmrec.pipeline"):
            artifact = run_pipeline_from_view(small_view, PipelineConfig(edge_threshold=edge_threshold))
        if message is None:
            assert 0 < artifact.graph.edge_count() < 66
        assert [r.getMessage() for r in caplog.records] == ([message] if message else [])

    @staticmethod
    def film_blocks(*sizes: int) -> ViewMatrix:
        """Disjoint blocks of films, each watched at 0.8 by its own two
        users: every block is a clique of weight-1 edges, and no edge joins
        two blocks."""
        entries, films = {}, iter(range(1, sum(sizes) + 1))
        for block, size in enumerate(sizes):
            for film in [str(next(films)) for _ in range(size)]:
                for user in (f"a{block}", f"b{block}"):
                    entries[(film, user)] = 0.8
        return ViewMatrix(entries)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ((3, 3), "centrality is constant over all 6 films at edge_threshold 0.5: degree, closeness, betweenness"),
            ((3, 2), "centrality is constant over all 5 films at edge_threshold 0.5: betweenness"),
        ],
    )
    def test_constant_centrality_component_is_warned_about(self, caplog, sizes, message):
        view = self.film_blocks(*sizes)
        with caplog.at_level(logging.WARNING, logger="filmrec.pipeline"):
            artifact = run_pipeline_from_view(view, PipelineConfig(edge_threshold=0.5))
        nodes = artifact.graph.node_count()
        assert 0 < artifact.graph.edge_count() < nodes * (nodes - 1) // 2
        assert [r.getMessage() for r in caplog.records] == [message]


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
        document = saved_document(tmp_path, small_artifact)
        document["format_version"] = 99
        with pytest.raises(DataError, match="newer"):
            load_document(tmp_path, document)

    def test_format_one_document_is_refused(self, tmp_path, small_artifact):
        with pytest.raises(DataError, match="format_version 1 .*rebuild it with `filmrec run`"):
            load_document(tmp_path, small_artifact.to_payload())

    def test_centrality_is_derived_from_the_loaded_similarity(self, tmp_path, small_artifact):
        """An edited similarity cell changes the graph, and the loaded
        centrality is that graph's, not the one the file was built with."""
        document = saved_document(tmp_path, small_artifact)
        document["similarity"][1] /= 2
        loaded = load_document(tmp_path, document)
        assert loaded.centrality == CentralityTable.compute(loaded.graph)
        assert loaded.centrality != small_artifact.centrality

    @staticmethod
    def _corrupt_state(artifact, corruption):
        """``artifact`` with one part of its state replaced."""
        films, assignment, profiles = artifact.similarity.films, artifact.clustering.assignment, artifact.profiles
        similarity_cell = {
            "similarity_negative": (1, 2, -0.5),
            "similarity_above_one": (1, 2, 1.5),
            "similarity_nan": (1, 2, float("nan")),
            "similarity_inf": (1, 2, float("inf")),
            "similarity_fractional_diagonal": (0, 0, 0.5),
        }
        if corruption in similarity_cell:
            i, j, value = similarity_cell[corruption]
            values = artifact.similarity.values.copy()
            values[i, j] = values[j, i] = value
            return dataclasses.replace(artifact, similarity=SimilarityMatrix(films, values))
        if corruption == "repeated_film":
            renamed = SimilarityMatrix((*films[:-1], films[0]), artifact.similarity.values)
            return dataclasses.replace(artifact, similarity=renamed)
        cluster_id = {"sparse_cluster_ids": 99, "cluster_id_float": 0.0, "cluster_id_bool": False}
        if corruption in cluster_id:
            film = next(f for f in films if assignment[f] == 0)
            clustering = dataclasses.replace(artifact.clustering, assignment={**assignment, film: cluster_id[corruption]})
            return dataclasses.replace(artifact, clustering=clustering)
        if corruption in ("profile_film_twice_in_one_list", "profile_film_in_both_lists"):
            user, profile = next((u, p) for u, p in profiles.items() if p.preferred)
            top = profile.preferred[0]
            if corruption == "profile_film_twice_in_one_list":
                profile = dataclasses.replace(profile, preferred=(*profile.preferred, top))
            else:
                profile = dataclasses.replace(profile, non_preferred=(*profile.non_preferred, top))
            return dataclasses.replace(artifact, profiles={**profiles, user: profile})
        if corruption == "phantom_clustered_film":
            clustering = dataclasses.replace(artifact.clustering, assignment={**assignment, "phantom": 0})
            return dataclasses.replace(artifact, clustering=clustering)
        if corruption == "missing_clustered_film":
            clustering = dataclasses.replace(artifact.clustering, assignment={f: assignment[f] for f in films[1:]})
            return dataclasses.replace(artifact, clustering=clustering)
        if corruption == "phantom_profile_film":
            user, profile = next(iter(profiles.items()))
            profile = dataclasses.replace(profile, non_preferred=(*profile.non_preferred, "phantom"))
            return dataclasses.replace(artifact, profiles={**profiles, user: profile})
        if corruption == "similarity_asymmetric":
            values = artifact.similarity.values.copy()
            values[2, 1] = values[1, 2] / 2
            return dataclasses.replace(artifact, similarity=SimilarityMatrix(films, values))
        raise AssertionError(corruption)

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("phantom_clustered_film", "artifact clustering does not cover exactly the film set"),
            ("missing_clustered_film", "artifact clustering does not cover exactly the film set"),
            ("phantom_profile_film", "artifact profile for .* names films outside the film set"),
            ("similarity_asymmetric", "artifact similarity is not symmetric"),
        ],
    )
    def test_validate_rejects_state_no_document_can_hold(self, small_artifact, corruption, message):
        """A saved document names films by position and stores one
        triangle of the similarity, so these fail only through ``validate``."""
        small_artifact.validate()
        with pytest.raises(DataError, match=message):
            self._corrupt_state(small_artifact, corruption).validate()

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("similarity_negative", "artifact similarity has an entry that is not finite or outside \\[0, 1\\]"),
            ("similarity_above_one", "artifact similarity has an entry that is not finite or outside \\[0, 1\\]"),
            ("similarity_nan", "artifact similarity has an entry that is not finite or outside \\[0, 1\\]"),
            ("similarity_inf", "artifact similarity has an entry that is not finite or outside \\[0, 1\\]"),
            ("similarity_fractional_diagonal", "artifact similarity diagonal holds a value other than 0.0 or 1.0"),
            ("repeated_film", "artifact films name 1 twice"),
            ("sparse_cluster_ids", "artifact cluster ids are not integers dense from 0"),
            ("cluster_id_float", "artifact cluster ids are not integers dense from 0"),
            ("cluster_id_bool", "artifact cluster ids are not integers dense from 0"),
            ("profile_film_twice_in_one_list", "artifact profile for .* names a film twice"),
            ("profile_film_in_both_lists", "artifact profile for .* names a film twice"),
        ],
    )
    def test_validate_repeats_the_state_checks_of_load(self, small_artifact, corruption, message):
        """Each state rule that a loaded document must meet fails through
        ``validate`` on a built artifact too."""
        small_artifact.validate()
        with pytest.raises(DataError, match=message):
            self._corrupt_state(small_artifact, corruption).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("format_version", True, "format_version"),
            ("format_version", 0, "format_version 0 "),
            ("format_version", -7, "format_version -7 "),
            ("format_version", 1, "format_version 1 .*rebuild it with `filmrec run`"),
            ("format_version", 2, "format_version 2 .*rebuild it with `filmrec run`"),
            ("format_version", 4, "format_version 4 is newer than supported 3"),
            ("format_version", "3", "missing integer format_version"),
            ("format_version", 3.0, "missing integer format_version"),
            ("format_version", None, "missing integer format_version"),
            ("created_at", [], "created_at"),
            ("created_at", None, "created_at"),
            ("created_at", 1, "created_at"),
        ],
    )
    def test_mistyped_header_field_rejected(self, tmp_path, small_artifact, field, value, message):
        document = saved_document(tmp_path, small_artifact)
        document[field] = value
        with pytest.raises(DataError, match=message):
            load_document(tmp_path, document)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("preferred", "12", "profile"),  # a string iterates, but is not a list
            ("preferred", {"1": 0}, "profile"),
            ("non_preferred", "3", "profile"),
            ("cluster", False, "cluster id"),
            ("cluster", True, "cluster id"),
            ("cluster", 0.0, "cluster id"),
            ("cluster", 1.0, "cluster id"),
        ],
    )
    def test_mistyped_profile_or_cluster_field_rejected(self, tmp_path, small_artifact, field, value, message):
        document = saved_document(tmp_path, small_artifact)
        if field == "cluster":
            assignment = document["clustering"]["assignment"]
            # a film whose cluster id equals the value, so the ids stay dense
            assignment[assignment.index(value)] = value
        else:
            user = next(user for user, entry in document["profiles"].items() if entry["preferred"])
            document["profiles"][user][field] = value
        with pytest.raises(DataError, match=message):
            load_document(tmp_path, document)

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

    @pytest.mark.parametrize("edge_threshold", [0, 0.0, 0.35])
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

    @pytest.mark.parametrize(
        "section", ["created_at", "config", "films", "similarity", "clustering", "profiles"]
    )
    def test_missing_sections_rejected(self, tmp_path, small_artifact, section):
        document = saved_document(tmp_path, small_artifact)
        del document[section]
        with pytest.raises(DataError, match="malformed"):
            load_document(tmp_path, document)

    @pytest.mark.parametrize("document", ["[]", "null", "1", '"x"'])
    def test_non_object_document_rejected(self, tmp_path, document):
        path = tmp_path / "artifact.json"
        path.write_text(document)
        with pytest.raises(DataError, match="object"):
            PipelineArtifact.load(path)

    @pytest.mark.parametrize("section", ["config", "clustering", "profiles"])
    def test_list_section_rejected(self, tmp_path, small_artifact, section):
        document = saved_document(tmp_path, small_artifact)
        document[section] = []
        with pytest.raises(DataError, match="malformed"):
            load_document(tmp_path, document)

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
        document = saved_document(tmp_path, small_artifact)
        document["config"][key] = value
        with pytest.raises(DataError, match=key):
            load_document(tmp_path, document)

    @pytest.mark.parametrize("key", [option.name for option in dataclasses.fields(PipelineConfig)])
    def test_config_missing_a_field_rejected(self, tmp_path, small_artifact, key):
        """A config file may leave a field at its default; an artifact's
        config names every field it was built with."""
        document = saved_document(tmp_path, small_artifact)
        del document["config"][key]
        with pytest.raises(DataError, match=f"artifact config is missing key '{key}'"):
            load_document(tmp_path, document)

    def test_empty_config_rejected(self, tmp_path, small_artifact):
        document = saved_document(tmp_path, small_artifact)
        document["config"] = {}
        with pytest.raises(DataError, match="artifact config is missing key 'averaging_policy'"):
            load_document(tmp_path, document)


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class TestSavedDocument:
    """The saved document holds only state, with films named by position."""

    def test_saved_document_holds_only_the_state(self, tmp_path, small_artifact):
        document = saved_document(tmp_path, small_artifact)
        films = small_artifact.similarity.films
        assert document["format_version"] == 3
        assert set(document) == {"format_version", "created_at", "config", "films", "similarity", "clustering", "profiles"}
        assert len(document["similarity"]) == len(films) * (len(films) + 1) // 2
        assert document["clustering"] == {
            "assignment": [small_artifact.clustering.assignment[film] for film in films]
        }
        user, profile = next((u, p) for u, p in small_artifact.profiles.items() if p.preferred)
        assert [films[i] for i in document["profiles"][user]["preferred"]] == list(profile.preferred)

    def test_saved_file_is_under_half_the_format_one_rendering(self, tmp_path, small_artifact):
        path = tmp_path / "saved.json"
        small_artifact.save(path)
        assert 2 * len(path.read_text()) < len(canonical(small_artifact.to_payload()))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 12),
        st.integers(1, 3),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 0.2, 0.35, 0.6, 1.0]),
        st.floats(0.05, 0.95),
    )
    def test_round_trip_over_small_specs(
        self, tmp_path_factory, film_count, user_count, clusters, seed, edge_threshold, preference_threshold
    ):
        spec = SyntheticSpec(
            film_count=film_count, user_count=user_count, planted_cluster_count=min(clusters, film_count), seed=seed
        )
        config = PipelineConfig(edge_threshold=edge_threshold, preference_threshold=preference_threshold)
        built = run_pipeline_from_view(generate_synthetic(spec), config)
        directory = tmp_path_factory.mktemp("round_trip")
        saved, resaved = directory / "saved.json", directory / "resaved.json"
        built.save(saved)
        loaded = PipelineArtifact.load(saved)
        loaded.save(resaved)
        assert resaved.read_bytes() == saved.read_bytes()
        assert loaded.payload_without_timestamp() == built.payload_without_timestamp()

    @staticmethod
    def _corrupt(document, corruption):
        films, similarity = document["films"], document["similarity"]
        profiles = document["profiles"]
        user = next(user for user, entry in profiles.items() if len(entry["preferred"]) > 1)
        entry = profiles[user]
        if corruption.startswith("similarity_cell_"):
            similarity[1] = {"text": "0.5", "true": True, "int": 0, "null": None}[corruption.rsplit("_", 1)[1]]
        elif corruption == "similarity_short":
            similarity.pop()
        elif corruption == "similarity_square":
            document["similarity"] = [similarity[:len(films)]] * len(films)
        elif corruption == "similarity_negative":
            similarity[1] = -0.5
        elif corruption == "similarity_nan":
            similarity[1] = float("nan")
        elif corruption == "similarity_nan_on_diagonal":
            similarity[0] = float("nan")
        elif corruption == "similarity_inf":
            similarity[1] = float("inf")
        elif corruption == "similarity_diagonal_7":
            similarity[0] = 7.0
        elif corruption == "similarity_fractional_diagonal":
            similarity[0] = 0.5
        elif corruption == "profile_index_bool":
            entry["preferred"][0] = True
        elif corruption == "profile_index_float":
            entry["preferred"][0] = 1.0
        elif corruption == "profile_index_text":
            entry["preferred"][0] = "1"
        elif corruption == "profile_index_negative":
            entry["preferred"][0] = -1
        elif corruption == "profile_index_past_end":
            entry["non_preferred"].append(len(films))
        elif corruption == "profile_index_repeated":
            entry["preferred"][1] = entry["preferred"][0]
        elif corruption == "profile_index_in_both_lists":
            entry["non_preferred"].append(entry["preferred"][0])
        elif corruption == "profile_not_an_object":
            profiles[user] = [entry["preferred"], entry["non_preferred"]]
        elif corruption == "profile_missing_list":
            del entry["non_preferred"]
        elif corruption == "bogus_key_top_level":
            document["bogus"] = 1
        elif corruption == "format_one_edges_key":
            document["edges"] = []
        elif corruption == "bogus_key_in_clustering":
            document["clustering"]["bogus"] = 1
        elif corruption == "format_one_modularity_key":
            document["clustering"]["modularity"] = 0.0
        elif corruption == "format_two_centrality_key":
            document["centrality"] = {"degree": [], "closeness": [], "betweenness": []}
        elif corruption == "bogus_key_in_profile":
            entry["bogus"] = []
        elif corruption == "bogus_key_in_config":
            document["config"]["bogus"] = 1
        elif corruption == "assignment_short":
            document["clustering"]["assignment"].pop()
        elif corruption == "assignment_bool":
            assignment = document["clustering"]["assignment"]
            assignment[assignment.index(0)] = False
        elif corruption == "assignment_sparse":
            document["clustering"]["assignment"][0] = 99
        elif corruption == "repeated_film":
            films[-1] = films[0]
        elif corruption == "film_not_text":
            films[0] = 1
        elif corruption == "no_films":
            document.update(films=[], similarity=[], clustering={"assignment": []}, profiles={})

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("similarity_cell_text", "similarity has an entry that is not a float"),
            ("similarity_cell_true", "similarity has an entry that is not a float"),
            ("similarity_cell_int", "similarity has an entry that is not a float"),
            ("similarity_cell_null", "similarity has an entry that is not a float"),
            ("similarity_short", "upper triangle"),
            ("similarity_square", "upper triangle"),
            ("similarity_negative", "outside \\[0, 1\\]"),
            ("similarity_nan", "not finite"),
            ("similarity_nan_on_diagonal", "not finite"),
            ("similarity_inf", "not finite"),
            ("similarity_diagonal_7", "outside \\[0, 1\\]"),
            ("similarity_fractional_diagonal", "diagonal"),
            ("profile_index_bool", "not a list of film indices"),
            ("profile_index_float", "not a list of film indices"),
            ("profile_index_text", "not a list of film indices"),
            ("profile_index_negative", "film index outside the film list"),
            ("profile_index_past_end", "film index outside the film list"),
            ("profile_index_repeated", "names a film twice"),
            ("profile_index_in_both_lists", "names a film twice"),
            ("profile_not_an_object", "is not an object"),
            ("profile_missing_list", "malformed"),
            ("bogus_key_top_level", "artifact document has unknown key 'bogus'"),
            ("format_one_edges_key", "artifact document has unknown key 'edges'"),
            ("bogus_key_in_clustering", "artifact clustering has unknown key 'bogus'"),
            ("format_one_modularity_key", "artifact clustering has unknown key 'modularity'"),
            ("format_two_centrality_key", "artifact document has unknown key 'centrality'"),
            ("bogus_key_in_profile", "has unknown key 'bogus'"),
            ("bogus_key_in_config", "unknown config key: bogus"),
            ("assignment_short", "one cluster id per film"),
            ("assignment_bool", "cluster ids"),
            ("assignment_sparse", "cluster ids"),
            ("repeated_film", "artifact films name 1 twice"),
            ("film_not_text", "not a list of film ids"),
            ("no_films", "artifact films is empty"),
        ],
    )
    def test_single_field_corruption_rejected(self, tmp_path, small_artifact, corruption, message):
        document = saved_document(tmp_path, small_artifact)
        self._corrupt(document, corruption)
        with pytest.raises(DataError, match=message):
            load_document(tmp_path, document)


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
