import numpy as np
import pytest

from countnet import rng


def test_same_key_same_draws():
    a = rng.node_stream(7, rng.ANALYSIS, 3).random(16)
    b = rng.node_stream(7, rng.ANALYSIS, 3).random(16)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_draws():
    base = rng.node_stream(7, rng.ANALYSIS, 3).random(16)
    other_node = rng.node_stream(7, rng.ANALYSIS, 4).random(16)
    other_purpose = rng.node_stream(7, rng.SIM_COUNTS, 3).random(16)
    other_seed = rng.node_stream(8, rng.ANALYSIS, 3).random(16)
    for arr in (other_node, other_purpose, other_seed):
        assert not np.array_equal(base, arr)


def test_node_streams_match_individual_construction():
    streams = rng.node_streams(11, rng.ENSEMBLE_INIT, range(4))
    for i, gen in enumerate(streams):
        expected = rng.node_stream(11, rng.ENSEMBLE_INIT, i).random(8)
        assert np.array_equal(gen.random(8), expected)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        rng.node_stream(-1, rng.ANALYSIS, 0)


@pytest.mark.parametrize("key", [(3.9, rng.ANALYSIS, 0), (3, rng.ANALYSIS, 1.0), (3, 3.0, 0), (np.float64(3), 3, 0)])
def test_a_float_key_is_refused_not_truncated(key):
    # int(3.9) would give seed 3's stream to seed 3.9
    with pytest.raises(TypeError):
        rng.node_stream(*key)


def test_numpy_integer_keys_name_the_same_stream():
    assert rng.node_stream(np.int64(3), np.uint8(3), np.intp(1)).random(4).tobytes() == \
        rng.node_stream(3, rng.ANALYSIS, 1).random(4).tobytes()


def test_node_streams_refuse_a_repeated_node():
    with pytest.raises(ValueError, match="node 2 has more than one stream"):
        rng.node_streams(5, rng.ABM_AGENTS, [0, 2, 1, 2])
    assert len(rng.node_streams(5, rng.ABM_AGENTS, np.arange(4))) == 4


def test_simulate_and_filter_config_refuse_a_float_seed():
    from countnet.filtering import FilterConfig
    from countnet.hawkes import HawkesParams, simulate

    params = HawkesParams(np.array([1.0, 2.0]), np.array([5.0, 5.0]), np.zeros((2, 2)))
    with pytest.raises(TypeError):
        simulate(params, 0.1, 5, seed=3.9)
    with pytest.raises(TypeError):
        FilterConfig(seed=2.7)
    # a numpy integer seed is kept as the int the manifests record
    assert type(FilterConfig(seed=np.int64(2)).seed) is int
