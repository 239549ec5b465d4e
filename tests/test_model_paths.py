"""Path objects and overlap analysis."""

import pytest

from repro.errors import ModelError
from repro.model.paths import Path, PathSet
from repro.topologies.paper import build_paper_topology, paper_paths


class TestPath:
    def test_basic_properties(self):
        path = Path(["s", "v1", "d"], tag=1, name="Path 1")
        assert path.src == "s"
        assert path.dst == "d"
        assert path.links == (("s", "v1"), ("v1", "d"))

    def test_default_name(self):
        assert Path(["s", "d"]).name == "s->d"

    def test_too_short_rejected(self):
        with pytest.raises(ModelError):
            Path(["s"])

    def test_loop_rejected(self):
        with pytest.raises(ModelError):
            Path(["s", "v1", "s"])

    def test_shared_links(self):
        a = Path(["s", "v1", "v4", "d"])
        b = Path(["s", "v1", "v2", "d"])
        assert a.shares_link_with(b)
        assert a.shared_links(b) == [("s", "v1")]

    def test_disjoint_paths_share_nothing(self):
        a = Path(["s", "v1", "d"])
        b = Path(["s", "v2", "d"])
        assert not a.shares_link_with(b)
        assert a.shared_links(b) == []

    def test_capacity_is_bottleneck(self):
        topology = build_paper_topology()
        paths = paper_paths()
        # Path 1 traverses the 40 Mbps link s-v1 and the 80 Mbps link v4-d.
        assert paths[0].capacity(topology) == 40.0

    def test_propagation_delay_sums_links(self):
        topology = build_paper_topology()
        paths = paper_paths()
        delays = [p.propagation_delay(topology) for p in paths]
        # Path 2 was designed to be the shortest-RTT (default) path.
        assert delays[1] == min(delays)

    def test_hashable_and_equal(self):
        assert Path(["s", "d"], tag=1) == Path(["s", "d"], tag=1)
        assert len({Path(["s", "d"], tag=1), Path(["s", "d"], tag=1)}) == 1


class TestPathSet:
    def test_paper_paths_pairwise_overlap(self):
        paths = paper_paths()
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert len(paths[i].shared_links(paths[j])) == 1

    def test_is_disjoint(self):
        disjoint = PathSet([Path(["s", "a", "d"], tag=1), Path(["s", "b", "d"], tag=2)])
        assert disjoint.is_disjoint()
        assert not paper_paths().is_disjoint()

    def test_mixed_endpoints_rejected(self):
        with pytest.raises(ModelError):
            PathSet([Path(["s", "d"]), Path(["s", "x"])])

    def test_src_dst_properties(self):
        paths = paper_paths()
        assert paths.src == "s"
        assert paths.dst == "d"

    def test_indexing_and_iteration(self):
        paths = paper_paths()
        assert paths[1].name == "Path 2"
        assert len(list(paths)) == 3
