"""Single-domain recommendation backbones: dot-product matrix
factorisation and mean-of-layers graph propagation over a bipartite
interaction graph, trained with hand-derived gradients.
"""

from __future__ import annotations

import numpy as np

from .corpus import InteractionSet
from .embeddings import (EmbeddingTable, ROLE_ITEM_TARGET,
                         ROLE_USER_TARGET_PHASE1, init_embeddings)
from .graph import BipartiteGraph, build_graph, propagate
from .losses import bce_loss, bpr_loss
from .optim import GradBuffer

BACKBONE_MF = "mf"
BACKBONE_LIGHTGCN = "lightgcn"
LOSS_FNS = {"bce": bce_loss, "bpr": bpr_loss}


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def sample_negatives(rng: np.random.Generator, n_items: int,
                     train_row: np.ndarray, count: int = 1) -> np.ndarray:
    """Uniform rejection sampling over items outside the user's train row."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if train_row.size >= n_items:
        raise ValueError("user interacted with every item; cannot sample negatives")
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        cand = rng.integers(0, n_items, size=count - filled)
        if train_row.size:
            pos = np.searchsorted(train_row, cand)
            pos = np.minimum(pos, train_row.size - 1)
            good = cand[train_row[pos] != cand]
        else:
            good = cand
        out[filled:filled + good.size] = good
        filled += good.size
    return out


def sample_negatives_batch(rng: np.random.Generator, n_items: int,
                           train_rows, users: np.ndarray) -> np.ndarray:
    """One negative per batch entry, drawn in batch order."""
    return np.array([sample_negatives(rng, n_items, train_rows[u], 1)[0]
                     for u in users], dtype=np.int64)


class SingleDomainModel:
    """A backbone over one user/item index space: MF without a graph,
    LightGCN with one."""

    def __init__(self, users: EmbeddingTable, items: EmbeddingTable,
                 graph: BipartiteGraph | None = None):
        if users.dim != items.dim:
            raise ValueError("user and item tables must share one dimension")
        self.users = users
        self.items = items
        self.graph = graph

    @classmethod
    def create(cls, n_users: int, n_items: int, dim: int, seed, *,
               backbone: str = BACKBONE_MF,
               train: InteractionSet | None = None, k_layers: int = 2,
               dtype=np.float32) -> "SingleDomainModel":
        if backbone not in (BACKBONE_MF, BACKBONE_LIGHTGCN):
            raise ValueError(f"unknown backbone {backbone!r}")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        user_seed, item_seed = seed.spawn(2)
        users = init_embeddings(n_users, dim, user_seed,
                                role=ROLE_USER_TARGET_PHASE1, dtype=dtype)
        items = init_embeddings(n_items, dim, item_seed,
                                role=ROLE_ITEM_TARGET, dtype=dtype)
        graph = None
        if backbone == BACKBONE_LIGHTGCN:
            if train is None:
                raise ValueError("lightgcn backbone needs train interactions")
            graph = build_graph(train, k_layers)
        return cls(users, items, graph)

    @property
    def n_items(self) -> int:
        return self.items.rows

    def params(self) -> dict[str, np.ndarray]:
        return {"user": self.users.values, "item": self.items.values}

    def make_scorer(self):
        """Read-only per-user scorer over all items."""
        user_final, item_final = self.users.values, self.items.values
        if self.graph is not None:
            user_final, item_final = propagate(self.graph, user_final,
                                               item_final)
        item_t = item_final.T.copy()
        return lambda user: user_final[user] @ item_t


def rows_read(graph: BipartiteGraph | None, users: np.ndarray) -> np.ndarray:
    """Sorted layer-0 user rows that a domain loss over ``users`` reads:
    the distinct batch users, or every user when a graph propagates."""
    return np.unique(users) if graph is None else np.arange(graph.n_users)


def domain_forward_backward(user_vals: np.ndarray, item_vals: np.ndarray,
                            graph: BipartiteGraph | None, users: np.ndarray,
                            pos_items: np.ndarray, neg_items: np.ndarray,
                            loss_fn, weight: float):
    """One domain's batch loss and the gradient of ``weight * loss`` on
    the layer-0 user and item values.

    ``users`` index rows of ``user_vals``. Without a graph the scores are
    plain dot products and the gradients cover the batch rows, repeats
    included; with one they use the propagated embeddings and cover every
    row. Returns ``(loss, (user_rows, user_grad), (item_rows,
    item_grad))``. Positive item rows come before negative ones, so
    accumulating them in order matches adding the two groups one after
    the other.
    """
    if graph is None:
        user_final, item_final = user_vals, item_vals
    else:
        user_final, item_final = propagate(graph, user_vals, item_vals)
    u_vecs = user_final[users]
    pos_vecs = item_final[pos_items]
    neg_vecs = item_final[neg_items]
    loss, d_pos, d_neg = loss_fn(row_dots(u_vecs, pos_vecs),
                                 row_dots(u_vecs, neg_vecs))
    d_user = weight * (d_pos[:, None] * pos_vecs + d_neg[:, None] * neg_vecs)
    item_rows = np.concatenate([pos_items, neg_items])
    d_item = (weight * np.concatenate([d_pos, d_neg]))[:, None] \
        * np.concatenate([u_vecs, u_vecs])
    if graph is None:
        return loss, (users, d_user), (item_rows, d_item)
    d_user_final = np.zeros_like(user_final, dtype=np.float64)
    d_item_final = np.zeros_like(item_final, dtype=np.float64)
    np.add.at(d_user_final, users, d_user)
    np.add.at(d_item_final, item_rows, d_item)
    # The adjacency is symmetric, so the backward pass through the
    # propagation is the propagation itself.
    d_user0, d_item0 = propagate(graph, d_user_final, d_item_final)
    return (loss, (np.arange(graph.n_users), d_user0),
            (np.arange(graph.n_items), d_item0))


def single_domain_forward_backward(model: SingleDomainModel,
                                   users: np.ndarray, pos_items: np.ndarray,
                                   neg_items: np.ndarray,
                                   loss_kind: str) -> tuple[float, GradBuffer]:
    """Forward scores, loss, and hand-derived gradients for one batch."""
    if users.size == 0:
        raise ValueError("batch must be non-empty")
    buf = GradBuffer(model.params())
    loss, (user_rows, d_user), (item_rows, d_item) = domain_forward_backward(
        model.users.values, model.items.values, model.graph, users,
        pos_items, neg_items, LOSS_FNS[loss_kind], 1.0)
    buf.add_rows("user", user_rows, d_user)
    buf.add_rows("item", item_rows, d_item)
    return loss, buf
