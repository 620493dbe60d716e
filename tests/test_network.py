import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from countnet import network
from countnet.filtering import Ensemble
from countnet.hawkes import HawkesParams
from countnet.network import (
    BETWEENNESS_WEIGHT_FLOOR,
    InfluenceNetwork,
    RankDistribution,
    centrality,
    error_metrics,
    mean_network,
    rank_distribution,
    save_network,
    save_rank_distribution,
    threshold_subnetwork,
)
import oracles
from oracles import brute_betweenness, heapq_betweenness, rank_nodes


def ensembles_from_members(alpha_members: np.ndarray) -> Ensemble:
    """alpha_members: (M, m, m) member excitation matrices -> the board of node ensembles."""
    M, m, _ = alpha_members.shape
    params = np.concatenate(
        [np.full((m, M, 1), 1.0), np.full((m, M, 1), 5.0), alpha_members.transpose(1, 0, 2)], axis=2
    )
    return Ensemble(np.full((m, M), 1.0), params)


class TestMeanNetwork:
    def test_identical_members_zero_spread(self):
        alpha = np.tile(np.arange(9.0).reshape(3, 3), (4, 1, 1))
        net = mean_network(ensembles_from_members(alpha))
        assert np.array_equal(net.adjacency, np.arange(9.0).reshape(3, 3))
        assert np.array_equal(net.edge_sd, np.zeros((3, 3)))

    def test_two_member_mean_and_sd(self):
        alpha = np.zeros((2, 2, 2))
        alpha[0, 0, 1] = 1.0
        alpha[1, 0, 1] = 3.0
        net = mean_network(ensembles_from_members(alpha))
        assert net.adjacency[0, 1] == 2.0
        assert net.edge_sd[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_ensembles_not_in_node_order_rejected(self):
        # sub-boards: rows are read as nodes 0..m-1, so each is refused
        alpha = np.random.default_rng(6).gamma(0.5, size=(4, 3, 3))
        ensembles = ensembles_from_members(alpha)
        for rows, message in (([0, 2, 1], "row 1 holds node 2's ensemble"),
                              ([0, 1], "one ensemble per node of 3, not 2"),
                              ([2], "row 0 holds node 2's ensemble")):
            with pytest.raises(ValueError, match=message):
                mean_network(ensembles.take(rows))
            with pytest.raises(ValueError, match=message):
                rank_distribution(ensembles.take(rows), "out_degree")


class TestInfluenceNetwork:
    def test_non_finite_weights_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            adjacency = np.ones((3, 3))
            adjacency[0, 2] = bad
            with pytest.raises(ValueError, match="edge weights must be finite"):
                InfluenceNetwork(adjacency)
            with pytest.raises(ValueError, match="edge_sd must be finite"):
                InfluenceNetwork(np.ones((3, 3)), edge_sd=adjacency)

    def test_repeated_label_rejected(self):
        # edges.csv would list two nodes under one name
        with pytest.raises(ValueError, match="node label 'a' is repeated"):
            InfluenceNetwork(np.ones((2, 2)), None, ["a", "a"])
        with pytest.raises(ValueError, match="node_labels length"):
            InfluenceNetwork(np.ones((2, 2)), None, ["a"])


class TestThreshold:
    def test_relative_rule_keeps_strong_edge(self):
        adj = np.zeros((3, 3))
        adj[0, 1], adj[1, 2], adj[2, 0] = 1.0, 2.0, 9.0
        net = InfluenceNetwork(adj)
        sub = threshold_subnetwork(net, relative_factor=2.0)
        # mean weight 4, threshold 8: only the 9-edge survives
        assert sub.m == 2
        assert sorted(sub.labels()) == ["node_1", "node_3"]
        assert sub.adjacency.max() == 9.0

    def test_absolute_rule(self):
        adj = np.array([[0.0, 0.5], [0.3, 0.0]])
        sub = threshold_subnetwork(InfluenceNetwork(adj), absolute=0.4)
        assert sub.m == 2
        assert sub.adjacency[0, 1] == 0.5
        assert sub.adjacency[1, 0] == 0.0

    def test_zero_absolute_keeps_all_positive_edges(self):
        adj = np.array([[0.0, 0.5], [0.3, 0.0]])
        sub = threshold_subnetwork(InfluenceNetwork(adj), absolute=0.0)
        assert np.array_equal(sub.adjacency, adj)

    def test_monotone_in_threshold(self):
        gen = np.random.default_rng(3)
        adj = gen.random((6, 6))
        np.fill_diagonal(adj, 0.0)
        net = InfluenceNetwork(adj)
        previous = None
        for w_min in np.linspace(0, 1, 11):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                kept = threshold_subnetwork(net, absolute=float(w_min))
            count = (kept.adjacency > 0).sum()
            if previous is not None:
                assert count <= previous
            previous = count

    def test_all_removed_warns_empty(self):
        adj = np.array([[0.0, 0.5], [0.3, 0.0]])
        with pytest.warns(UserWarning):
            sub = threshold_subnetwork(InfluenceNetwork(adj), absolute=10.0)
        assert sub.m == 0

    @pytest.mark.parametrize("rule", [{"absolute": -1.0}, {"relative_factor": -1.0},
                                      {"absolute": float("nan")}])
    def test_negative_rule_rejected(self, rule):
        # node c has only a self-loop; a negative threshold would keep it
        adj = np.array([[0.0, 0.5, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ValueError, match=">= 0"):
            threshold_subnetwork(InfluenceNetwork(adj, None, ["a", "b", "c"]), **rule)

    def test_exactly_one_rule(self):
        net = InfluenceNetwork(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            threshold_subnetwork(net)
        with pytest.raises(ValueError):
            threshold_subnetwork(net, relative_factor=1.0, absolute=0.1)


class TestCentrality:
    def test_single_edge_degrees(self):
        # edge from node 1 to node 0 with weight 5: adjacency[0, 1] = 5
        adj = np.array([[0.0, 5.0], [0.0, 0.0]])
        net = InfluenceNetwork(adj)
        assert np.array_equal(centrality(net, "out_degree"), [0.0, 5.0])
        assert np.array_equal(centrality(net, "in_degree"), [5.0, 0.0])

    def test_self_loops_excluded(self):
        adj = np.array([[7.0, 1.0], [2.0, 9.0]])
        net = InfluenceNetwork(adj)
        assert np.array_equal(centrality(net, "out_degree"), [2.0, 1.0])
        assert np.array_equal(centrality(net, "in_degree"), [1.0, 2.0])

    def test_symmetric_triangle_equal_betweenness(self):
        adj = np.ones((3, 3)) - np.eye(3)
        scores = centrality(InfluenceNetwork(adj), "betweenness")
        assert np.allclose(scores, scores[0])
        assert scores[0] == 0.0  # direct edges beat any two-hop path

    def test_directed_path_betweenness(self):
        # a -> b -> c -> d with equal weights
        adj = np.zeros((4, 4))
        for j in range(3):
            adj[j + 1, j] = 1.0
        scores = centrality(InfluenceNetwork(adj), "betweenness")
        assert np.array_equal(scores, [0.0, 2.0, 2.0, 0.0])

    def test_matches_brute_force_on_random_graphs(self):
        gen = np.random.default_rng(7)
        for _ in range(40):
            m = int(gen.integers(2, 7))
            adj = np.where(gen.random((m, m)) < 0.5, gen.uniform(0.1, 2.0, (m, m)), 0.0)
            np.fill_diagonal(adj, 0.0)
            net = InfluenceNetwork(adj)
            assert np.array_equal(centrality(net, "betweenness"), brute_betweenness(adj))

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            centrality(InfluenceNetwork(np.zeros((0, 0))), "out_degree")

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            centrality(InfluenceNetwork(np.zeros((2, 2))), "pagerank")

    def test_scale_equivariance_of_rankings(self):
        gen = np.random.default_rng(11)
        adj = gen.random((5, 5))
        np.fill_diagonal(adj, 0.0)
        for measure in ("out_degree", "in_degree"):
            base = rank_nodes(centrality(InfluenceNetwork(adj), measure))
            scaled = rank_nodes(centrality(InfluenceNetwork(3.7 * adj), measure))
            assert np.array_equal(base, scaled)


class TestRankDistribution:
    def test_identical_members_point_mass(self):
        member = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.5, 0.0, 0.0]])
        alpha = np.tile(member, (5, 1, 1))
        dist = rank_distribution(ensembles_from_members(alpha), "out_degree")
        assert dist.counts.max() == 5
        assert (dist.counts.sum(axis=0) == 5).all()
        assert (dist.counts.sum(axis=1) == 5).all()
        # out-degrees: node 0 -> 0.5+0? columns: j=0: 0.5, j=1: 1, j=2: 2
        order = rank_nodes(np.array([0.5, 1.0, 2.0]))
        for r, j in enumerate(order):
            assert dist.counts[r, j] == 5

    def test_two_members_split_top_ranks(self):
        alpha = np.zeros((2, 2, 2))
        alpha[0, 0, 1] = 2.0  # member 0: node 1 strongest
        alpha[1, 1, 0] = 2.0  # member 1: node 0 strongest
        dist = rank_distribution(ensembles_from_members(alpha), "out_degree")
        assert dist.counts[0, 0] == 1 and dist.counts[0, 1] == 1
        assert dist.counts[1, 0] == 1 and dist.counts[1, 1] == 1

    def test_row_and_column_sums(self):
        gen = np.random.default_rng(23)
        alpha = gen.gamma(1.0, 1.0, size=(40, 4, 4))
        for measure in ("out_degree", "in_degree", "betweenness"):
            dist = rank_distribution(ensembles_from_members(alpha), measure)
            assert (dist.counts.sum(axis=0) == 40).all()
            assert (dist.counts.sum(axis=1) == 40).all()

    def test_matches_per_member_loop(self):
        gen = np.random.default_rng(29)
        for m, M in ((3, 300), (12, 48)):
            alpha = gen.gamma(0.6, 0.5, size=(M, m, m))
            alpha[gen.random((M, m, m)) < 0.3] = 0.0
            # tied zero scores: nodes 0, 1 exert nothing, nodes 1, 2 receive nothing
            alpha[: M // 3, :, :2] = 0.0
            alpha[: M // 3, 1:3, :] = 0.0
            ensembles = ensembles_from_members(alpha)
            for measure in network.MEASURES:
                counts = rank_distribution(ensembles, measure).counts
                assert np.array_equal(counts, per_member_ranks(alpha, measure))

    def test_tie_break_by_node_index(self):
        scores = np.array([1.0, 2.0, 2.0, 0.5])
        assert list(rank_nodes(scores)) == [1, 2, 0, 3]


def zero_diagonal(members: np.ndarray) -> np.ndarray:
    """(M, m, m) member excitation matrices with self-loops removed."""
    off = members.copy()
    idx = np.arange(off.shape[1])
    off[:, idx, idx] = 0.0
    return off


def per_member_ranks(alpha_members: np.ndarray, measure: str) -> np.ndarray:
    """Rank counts from one scalar scoring and ranking per member."""
    M, m, _ = alpha_members.shape
    counts = np.zeros((m, m), dtype=np.int64)
    for off in zero_diagonal(alpha_members):
        if measure == "out_degree":
            scores = off.sum(axis=0)
        elif measure == "in_degree":
            scores = off.sum(axis=1)
        else:
            scores = heapq_betweenness(off)
        counts[np.arange(m), rank_nodes(scores)] += 1
    return counts


class TestBatchedBetweenness:
    """The batched kernel reproduces the scalar heap-based Brandes bit for bit."""

    def assert_matches_oracle(self, alpha_members):
        off = zero_diagonal(alpha_members)
        expected = np.stack([heapq_betweenness(g) for g in off])
        assert np.array_equal(network._betweenness(off), expected)
        for g, row in zip(off, expected):
            assert np.array_equal(centrality(InfluenceNetwork(g), "betweenness"), row)

    def test_tie_heavy_weights(self):
        # dyadic distances make equal-length paths common, so the
        # finalization order of tied nodes decides the summation order
        gen = np.random.default_rng(101)
        for m in range(2, 10):
            weights = gen.choice([0.5, 1.0, 2.0], (50, m, m))
            self.assert_matches_oracle(np.where(gen.random((50, m, m)) < 0.5, weights, 0.0))

    def test_gamma_ensemble(self):
        gen = np.random.default_rng(102)
        self.assert_matches_oracle(gen.gamma(0.5, 0.4, (64, 26, 26)))

    def test_unreachable_nodes_and_sub_floor_edges(self):
        gen = np.random.default_rng(103)
        m = 9
        alpha = np.where(gen.random((40, m, m)) < 0.2, gen.uniform(0.1, 2.0, (40, m, m)), 0.0)
        tiny = gen.random((40, m, m)) < 0.2
        alpha[tiny] = gen.choice([1e-9, 0.5e-6, BETWEENNESS_WEIGHT_FLOOR], tiny.sum())
        alpha[:, :, 4] = 0.0  # node 4 reaches nobody
        alpha[:, 6, :] = 0.0  # node 6 is reached by nobody
        self.assert_matches_oracle(alpha)
        off = zero_diagonal(alpha)
        # an edge at or below the floor is dropped: same scores as without it
        assert np.array_equal(
            network._betweenness(off),
            network._betweenness(np.where(off > BETWEENNESS_WEIGHT_FLOOR, off, 0.0)),
        )

    def test_batch_not_dividing_the_ensemble(self, monkeypatch):
        gen = np.random.default_rng(104)
        m, M = 8, 10
        alpha = np.where(gen.random((M, m, m)) < 0.4, gen.choice([0.5, 1.0, 2.0], (M, m, m)), 0.0)
        ensembles = ensembles_from_members(alpha)
        whole = {meas: rank_distribution(ensembles, meas).counts for meas in network.MEASURES}
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", 3 * m * m)  # batches of 3, 3, 3, 1
        for measure in network.MEASURES:
            counts = rank_distribution(ensembles, measure).counts
            assert np.array_equal(counts, whole[measure])
            assert np.array_equal(counts, per_member_ranks(alpha, measure))

    def test_board_left_unchanged(self, monkeypatch):
        # one-member batches of a one-node board are single cells of the board;
        # the self-loop is zeroed in a copy
        monkeypatch.setattr(network, "BLOCK_ELEMENTS", 1)
        ensembles = ensembles_from_members(np.array([[[0.5]], [[1.5]]]))
        before = ensembles.params.copy()
        assert rank_distribution(ensembles, "betweenness").counts.tolist() == [[2]]
        assert np.array_equal(ensembles.params, before)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        gen = np.random.default_rng(105)
        for _ in range(25):
            m = int(gen.integers(2, 31))
            adj = np.where(gen.random((m, m)) < 0.3, gen.uniform(0.05, 2.0, (m, m)), 0.0)
            adj[gen.random((m, m)) < 0.05] = 0.5e-6
            np.fill_diagonal(adj, 0.0)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(m))
            for i, j in zip(*np.nonzero(adj > BETWEENNESS_WEIGHT_FLOOR)):
                graph.add_edge(int(j), int(i), length=1.0 / adj[i, j])
            ref = nx.betweenness_centrality(graph, weight="length", normalized=False)
            ours = centrality(InfluenceNetwork(adj), "betweenness")
            assert np.allclose(ours, [ref[v] for v in range(m)], rtol=1e-12, atol=1e-12)


class TestErrorMetrics:
    def make_history(self, mean_path, var_path, truth):
        """The truth curves of a run whose parameter moments take these (n+1, m, m+2) paths."""
        from countnet.filtering import _CURVE_KEYS

        mean, var = np.asarray(mean_path), np.asarray(var_path)
        dev = np.abs(mean - np.column_stack((truth.baseline, truth.decay, truth.excitation)))
        return dict(zip(_CURVE_KEYS, (dev[:, :, 0], dev[:, :, 1], dev[:, :, 2:].mean(axis=2),
                                      (dev[:, :, 2:] ** 2).sum(axis=2), var[:, :, 0], var[:, :, 1],
                                      var[:, :, 2:].mean(axis=2))))

    def test_perfect_estimate_zero_error(self):
        truth = HawkesParams([2.0], [5.0], [[1.5]])
        start = np.array([[[3.0, 6.0, 1.0]]])
        end = np.array([[[2.0, 5.0, 1.5]]])
        history = self.make_history(np.concatenate([start, end]), np.ones((2, 1, 3)), truth)
        report = error_metrics(history, excitation_scale=1.5)
        assert report["baseline_error"][-1, 0] == 0.0
        assert report["decay_error"][-1, 0] == 0.0
        assert report["excitation_error"][-1, 0] == 0.0
        assert report["frobenius"][-1] == 0.0

    def test_initial_estimate_normalizes_to_one(self):
        truth = HawkesParams([2.0], [5.0], [[1.5]])
        start = np.array([[[3.0, 6.0, 1.0]]])
        history = self.make_history(np.concatenate([start, start]), np.ones((2, 1, 3)), truth)
        report = error_metrics(history)
        for key in ("baseline_error", "decay_error", "excitation_error"):
            assert report[key][0, 0] == 1.0
            assert report[key][-1, 0] == 1.0

    def test_scaled_frobenius_single_entry(self):
        truth = HawkesParams([2.0, 2.0], [5.0, 5.0], np.zeros((2, 2)))
        mean = np.zeros((1, 2, 4))
        mean[:, :, 0] = 3.0
        mean[:, :, 1] = 6.0
        mean[0, 0, 2] = 0.3  # single excitation deviation of 0.3
        history = self.make_history(mean, np.ones((1, 2, 4)), truth)
        report = error_metrics(history, excitation_scale=1.5)
        assert report["frobenius"][0] == pytest.approx(0.2, rel=1e-12)

    def test_zero_initial_error_reported_missing(self):
        truth = HawkesParams([2.0], [5.0], [[1.5]])
        exact = np.array([[[2.0, 5.0, 1.5]]])
        history = self.make_history(np.concatenate([exact, exact]), np.ones((2, 1, 3)), truth)
        report = error_metrics(history)
        assert np.isnan(report["baseline_error"]).all()
        # the mean moving off an exact start does not make the error infinite
        history = self.make_history(np.concatenate([exact, exact + 0.5]), np.ones((2, 1, 3)), truth)
        report = error_metrics(history)
        for key in ("baseline_error", "decay_error", "excitation_error"):
            assert np.isnan(report[key]).all()

    def test_variance_ratios(self):
        truth = HawkesParams([2.0], [5.0], [[1.5]])
        mean = np.ones((3, 1, 3))
        var = np.stack([np.full((1, 3), 4.0), np.full((1, 3), 2.0), np.full((1, 3), 1.0)])
        report = error_metrics(self.make_history(mean, var, truth))
        assert np.allclose(report["baseline_var_ratio"][:, 0], [1.0, 0.5, 0.25])
        assert np.allclose(report["excitation_var_ratio"][:, 0], [1.0, 0.5, 0.25])


class TestExports:
    def test_edge_csv_and_json(self, tmp_path):
        # a zero edge (b -> c), a self-loop (on b) and a label that needs quoting
        adj = np.array([[0.0, 2.0, 0.25], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
        sd = np.array([[0.0, 0.2, 0.1], [0.1, 0.05, 0.0], [0.0, 0.0, 0.0]])
        net = InfluenceNetwork(adj, sd, ["a", "b", "c,d"])
        save_network(net, tmp_path / "edges.csv", tmp_path / "net.json")
        assert (tmp_path / "edges.csv").read_bytes() == (
            b"src,dst,weight,weight_sd\r\n"
            b"b,a,2,0.20000000000000001\r\n"
            b'"c,d",a,0.25,0.10000000000000001\r\n'
            b"a,b,1,0.10000000000000001\r\n"
        )
        payload = json.loads((tmp_path / "net.json").read_text())
        assert payload == {"node_labels": ["a", "b", "c,d"], "adjacency": adj.tolist(), "edge_sd": sd.tolist()}

    def test_rank_distribution_label_count_checked(self):
        # one label for two nodes used to write a header one column short
        with pytest.raises(ValueError, match="node_labels length"):
            RankDistribution(np.ones((2, 2)), ["a"])

    def test_rank_distribution_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="node label 'a' is repeated"):
            RankDistribution(np.ones((2, 2)), ["a", "a"])

    def test_rank_distribution_csv(self, tmp_path):
        alpha = np.tile(np.array([[0.0, 1.0], [2.0, 0.0]]), (3, 1, 1))
        dist = rank_distribution(ensembles_from_members(alpha), "out_degree")
        save_rank_distribution(dist, tmp_path / "rank.csv")
        lines = (tmp_path / "rank.csv").read_text().splitlines()
        assert lines[0] == "rank,node_1,node_2"
        assert len(lines) == 3


# labels that csv.writer quotes, that json escapes, or that neither touches
LABEL_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "\u00e9", "\U0001F600"])
                     | st.characters(blacklist_categories=("Cs",)), max_size=5)
WEIGHT = st.sampled_from([0.0, 5e-324, 1e-300, 1e308, 1.0, 3.0, 2.0**53]) | st.floats(0.0, 1e308)
ODD_LABELS = ["a,b", 'say "hi"', "\r", "line\nbreak", " outer ", "", "caf\u00e9", "\U0001F600"]


def network_bytes(save, net: InfluenceNetwork) -> tuple[bytes, bytes]:
    """The bytes of ``edges.csv`` and ``network.json`` as ``save`` writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        edges, adjacency = Path(tmp) / "edges.csv", Path(tmp) / "network.json"
        save(net, edges, adjacency)
        return edges.read_bytes(), adjacency.read_bytes()


def rank_bytes(save, dist: RankDistribution) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rank.csv"
        save(dist, path)
        return path.read_bytes()


class TestWriterBytes:
    """The bulk writers against the csv.writer and json.dumps writers they replaced, byte for byte."""

    @given(data=st.data(), m=st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_network_files(self, data, m):
        adjacency = data.draw(arrays(np.float64, (m, m), elements=WEIGHT))
        sd = data.draw(arrays(np.float64, (m, m), elements=WEIGHT))
        labels = data.draw(st.none() | st.lists(LABEL_TEXT, min_size=m, max_size=m, unique=True))
        net = InfluenceNetwork(adjacency, sd, labels)
        assert network_bytes(save_network, net) == network_bytes(oracles.save_network, net)

    @pytest.mark.parametrize("labels", [None, ODD_LABELS])
    def test_network_files_edge_values(self, labels):
        values = [0.0, 5e-324, 1e-300, 1e308, 1.0, 3.0, 0.1, 2.0**53]
        adjacency = np.resize(values, (8, 8))
        net = InfluenceNetwork(adjacency, adjacency[::-1], labels)
        assert network_bytes(save_network, net) == network_bytes(oracles.save_network, net)

    def test_subnetwork_with_no_edges(self):
        net = InfluenceNetwork(np.array([[0.0, 1.0], [2.0, 0.0]]), None, ["a", "b"])
        with pytest.warns(UserWarning, match="threshold removed every edge"):
            sub = threshold_subnetwork(net, absolute=5.0)
        assert sub.m == 0
        edges, payload = network_bytes(save_network, sub)
        assert (edges, payload) == network_bytes(oracles.save_network, sub)
        assert payload == b'{\n  "node_labels": [],\n  "adjacency": [],\n  "edge_sd": []\n}\n'
        empty = RankDistribution(np.zeros((0, 0)), [])
        assert rank_bytes(save_rank_distribution, empty) == rank_bytes(oracles.save_rank_distribution, empty)

    @given(data=st.data(), m=st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_rank_csv(self, data, m):
        counts = data.draw(arrays(np.int64, (m, m), elements=st.integers(0, 2**62)))
        labels = data.draw(st.none() | st.lists(LABEL_TEXT, min_size=m, max_size=m, unique=True))
        dist = RankDistribution(counts, labels)
        assert rank_bytes(save_rank_distribution, dist) == rank_bytes(oracles.save_rank_distribution, dist)
