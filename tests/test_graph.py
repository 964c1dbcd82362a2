import numpy as np
import pytest

from cutrec.graph import build_graph, propagate

from helpers import dense_propagation_oracle, interaction_set


def test_single_edge_one_layer_average():
    # One user linked to one item, degree 1 each, K=1: the final user
    # embedding is the mean of its own and the item's base embedding.
    train = interaction_set([[0]], 1)
    graph = build_graph(train, k_layers=1)
    e_u = np.array([[1.0, 2.0]])
    e_i = np.array([[3.0, -4.0]])
    user_final, item_final = propagate(graph, e_u, e_i)
    np.testing.assert_allclose(user_final, (e_u + e_i) / 2.0)
    np.testing.assert_allclose(item_final, (e_u + e_i) / 2.0)


def test_zero_layers_identity():
    train = interaction_set([[0, 1], [1]], 2)
    graph = build_graph(train, k_layers=0)
    users = np.random.default_rng(0).normal(size=(2, 3))
    items = np.random.default_rng(1).normal(size=(2, 3))
    user_final, item_final = propagate(graph, users, items)
    np.testing.assert_array_equal(user_final, users)
    np.testing.assert_array_equal(item_final, items)


def test_normalisation_weights():
    # user0-{item0,item1}, user1-{item0}: weight(u0,i0)=1/sqrt(2*2).
    train = interaction_set([[0, 1], [0]], 2)
    graph = build_graph(train, k_layers=1)
    dense = graph.adjacency.toarray()
    assert dense[0, 2] == pytest.approx(1.0 / 2.0)          # deg 2 * deg 2
    assert dense[0, 3] == pytest.approx(1.0 / np.sqrt(2.0))  # deg 2 * deg 1
    assert dense[1, 2] == pytest.approx(1.0 / np.sqrt(2.0))
    np.testing.assert_allclose(dense, dense.T)


def test_isolated_node_scaled_base():
    # user1 has no interactions: its final embedding is base/(K+1).
    train = interaction_set([[0], []], 1)
    graph = build_graph(train, k_layers=2)
    users = np.array([[1.0], [9.0]])
    items = np.array([[2.0]])
    user_final, _ = propagate(graph, users, items)
    assert user_final[1, 0] == pytest.approx(9.0 / 3.0)


@pytest.mark.parametrize("k_layers", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_matches_dense_oracle(seed, k_layers):
    rng = np.random.default_rng(seed)
    n_users, n_items = 8, 12  # 20 nodes
    rows = [np.unique(rng.integers(0, n_items, size=rng.integers(0, 6)))
            for _ in range(n_users)]
    train = interaction_set([list(r) for r in rows], n_items)
    graph = build_graph(train, k_layers=k_layers)
    base = rng.normal(size=(n_users + n_items, 5))
    expected = dense_propagation_oracle(graph.adjacency.toarray(), base,
                                        k_layers)
    user_final, item_final = propagate(graph, base[:n_users], base[n_users:])
    np.testing.assert_allclose(np.vstack([user_final, item_final]), expected,
                               atol=1e-6)


def test_shape_validation():
    train = interaction_set([[0]], 1)
    graph = build_graph(train, k_layers=1)
    with pytest.raises(ValueError):
        propagate(graph, np.zeros((2, 3)), np.zeros((1, 3)))
