from types import SimpleNamespace

import pytest

import filmrec.evaluation
import filmrec.graph
import filmrec.ranking


@pytest.fixture()
def traversals(monkeypatch):
    """Records every path-kernel pass (as the ``indptr`` array of the graph
    it ran on, in ``passes``) and every ``hop_distances`` call (as
    ``(graph, source)``, in ``bfs``) made while the test runs."""
    seen = SimpleNamespace(passes=[], bfs=[])
    kernel, bfs = filmrec.graph.all_sources_paths, filmrec.graph.hop_distances

    def counted_kernel(indptr, indices):
        seen.passes.append(indptr)
        return kernel(indptr, indices)

    def counted_bfs(g, source):
        seen.bfs.append((g, source))
        return bfs(g, source)

    monkeypatch.setattr(filmrec.graph, "all_sources_paths", counted_kernel)
    # every module-level name of the BFS, so a private import is counted too
    for module in (filmrec.graph, filmrec.ranking, filmrec.evaluation):
        if hasattr(module, "hop_distances"):
            monkeypatch.setattr(module, "hop_distances", counted_bfs)
    return seen

