"""Symmetric degree-normalised bipartite graphs and mean-of-layers
embedding propagation.

The adjacency is self-adjoint, so backpropagating through the propagation
is the same operator applied to the output gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionSet


@dataclass(frozen=True)
class BipartiteGraph:
    n_users: int
    n_items: int
    adjacency: sp.csr_matrix  # (users+items) square, symmetric
    k_layers: int


def build_graph(train: InteractionSet, k_layers: int) -> BipartiteGraph:
    """Edge weight between user u and item i is 1/sqrt(deg(u) * deg(i)),
    computed from training interactions only. Isolated nodes simply have
    no edges."""
    if k_layers < 0:
        raise ValueError("k_layers must be >= 0")
    n_users, n_items = train.n_users, train.n_items
    users, items = train.users, train.indices
    user_deg = np.diff(train.indptr).astype(np.float64)
    item_deg = np.bincount(items, minlength=n_items).astype(np.float64)
    weights = 1.0 / np.sqrt(user_deg[users] * item_deg[items])
    user_item = sp.csr_matrix((weights, items, train.indptr),
                              shape=(n_users, n_items))
    adjacency = sp.bmat([[None, user_item], [user_item.T, None]],
                        format="csr")
    return BipartiteGraph(n_users, n_items, adjacency, k_layers)


def propagate(graph: BipartiteGraph, user_values: np.ndarray,
              item_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of propagated layers 0..K (uniform layer weights)."""
    if user_values.shape[0] != graph.n_users:
        raise ValueError("user embedding count does not match graph")
    if item_values.shape[0] != graph.n_items:
        raise ValueError("item embedding count does not match graph")
    current = np.vstack([user_values, item_values]).astype(np.float64,
                                                           copy=False)
    acc = current.copy()
    for _ in range(graph.k_layers):
        current = graph.adjacency @ current
        acc += current
    acc /= graph.k_layers + 1
    acc = acc.astype(user_values.dtype, copy=False)
    return acc[:graph.n_users], acc[graph.n_users:]
