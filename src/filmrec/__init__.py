"""Film recommendations from implicit viewing percentages.

The pipeline: parse viewing logs into a (film, user) percentage matrix,
average per-user dual similarities into a film-by-film similarity matrix,
threshold it into a weighted graph, score films by centrality, cluster by
modularity, label each user's watched films as preferred or not, and rank
candidates from the user's preference co-clusters by ego-centric centrality.
"""

from .artifact import FORMAT_VERSION, PipelineArtifact
from .community import Clustering, louvain, modularity_score
from .config import PipelineConfig, load_config
from .errors import (
    DataError,
    DomainError,
    FilmRecError,
    FormatError,
    RowError,
    StageError,
)
from .evaluation import (
    EgoGraphPolicy,
    EvalCase,
    EvalReport,
    KnnPolicy,
    NaiveBayesPolicy,
    RandomScorePolicy,
    SplitSpec,
    SyntheticSpec,
    comembership_f1,
    evaluate_method,
    generate_synthetic,
    judge,
    planted_film_clusters,
    split_users,
)
from .graph import (
    CentralityTable,
    FilmGraph,
    average_centrality,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    degree_centrality,
    hop_distances,
)
from .ingest import ViewMatrix, ViewingEvent, build_view_matrix, parse_events
from .pipeline import is_cold_start, recommend, run_pipeline, run_pipeline_from_view
from .profiles import PreferenceProfile, build_profiles
from .ranking import (
    EgoScore,
    RecommendationList,
    candidate_set,
    ego_centrality,
    rank_cold_start,
    rank_for_user,
    recommendation_score,
)
from .similarity import (
    NOT_COMPARABLE,
    AveragingPolicy,
    SimilarityMatrix,
    average_similarity,
    dual_similarity,
)

__version__ = "0.1.0"

__all__ = [
    "FORMAT_VERSION",
    "PipelineArtifact",
    "Clustering",
    "louvain",
    "modularity_score",
    "PipelineConfig",
    "load_config",
    "DataError",
    "DomainError",
    "FilmRecError",
    "FormatError",
    "RowError",
    "StageError",
    "EgoGraphPolicy",
    "EvalCase",
    "EvalReport",
    "KnnPolicy",
    "NaiveBayesPolicy",
    "RandomScorePolicy",
    "SplitSpec",
    "SyntheticSpec",
    "comembership_f1",
    "evaluate_method",
    "generate_synthetic",
    "judge",
    "planted_film_clusters",
    "split_users",
    "CentralityTable",
    "FilmGraph",
    "average_centrality",
    "betweenness_centrality",
    "build_graph",
    "closeness_centrality",
    "degree_centrality",
    "hop_distances",
    "ViewMatrix",
    "ViewingEvent",
    "build_view_matrix",
    "parse_events",
    "is_cold_start",
    "recommend",
    "run_pipeline",
    "run_pipeline_from_view",
    "PreferenceProfile",
    "build_profiles",
    "EgoScore",
    "RecommendationList",
    "candidate_set",
    "ego_centrality",
    "rank_cold_start",
    "rank_for_user",
    "recommendation_score",
    "NOT_COMPARABLE",
    "AveragingPolicy",
    "SimilarityMatrix",
    "average_similarity",
    "dual_similarity",
    "__version__",
]
