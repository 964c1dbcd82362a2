"""Single-domain recommendation backbones: dot-product matrix
factorisation and mean-of-layers graph propagation over a bipartite
interaction graph, trained with hand-derived gradients.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Checkpoint
from .config import TrainingConfig
from .corpus import InteractionSet, SplitDataset
from .embeddings import (EmbeddingTable, ROLE_ITEM_TARGET,
                         ROLE_USER_TARGET_PHASE1, init_embeddings)
from .graph import BipartiteGraph, build_graph, propagate
from .losses import bce_loss, bpr_loss
from .optim import GradBuffer, scatter_rows

BACKBONE_MF = "mf"
BACKBONE_LIGHTGCN = "lightgcn"
LOSS_FNS = {"bce": bce_loss, "bpr": bpr_loss}


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def sample_negatives_batch(rng: np.random.Generator, n_items: int,
                           train: InteractionSet, users) -> np.ndarray:
    """One negative per batch entry, uniform over the items outside the
    user's ``train`` row: one draw for the whole batch, then redraws of
    the entries whose key ``searchsorted`` finds in ``train.keys``."""
    if n_items != train.n_items:
        raise ValueError("n_items does not match the train set")
    users = np.asarray(users, dtype=np.int64)
    full = train.indptr[users + 1] - train.indptr[users] >= n_items
    if full.any():
        raise ValueError(f"user {users[full][0]} interacted with every "
                         "item; cannot sample negatives")
    out = rng.integers(0, n_items, size=users.size)
    keys = train.keys
    todo = np.arange(users.size if keys.size else 0)
    while todo.size:
        wanted = users[todo] * n_items + out[todo]
        pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        todo = todo[keys[pos] == wanted]
        out[todo] = rng.integers(0, n_items, size=todo.size)
    return out


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
            graph = build_graph(train, k_layers, dtype)
        return cls(users, items, graph)

    @property
    def n_items(self) -> int:
        return self.items.rows

    def params(self) -> dict[str, np.ndarray]:
        return {"user": self.users.values, "item": self.items.values}

    def make_scorer(self):
        """Read-only scorer: user ids to their score rows over all items."""
        user_final, item_final = self.users.values, self.items.values
        if self.graph is not None:
            user_final, item_final = propagate(self.graph, user_final,
                                               item_final)
        item_t = item_final.T.copy()
        return lambda users: user_final[users] @ item_t

    def to_checkpoint(self, config: TrainingConfig) -> Checkpoint:
        hyper = {"model_kind": "single", "training": config.to_dict()}
        return Checkpoint([self.users, self.items], hyper, 0)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint,
                        target_split: SplitDataset) -> "SingleDomainModel":
        """Rebuild a model saved by ``to_checkpoint`` for its target split."""
        config = ckpt.training_config()
        train = target_split.train
        items = ckpt.table(ROLE_ITEM_TARGET, train.n_items)
        graph = (build_graph(train, config.k_layers, items.values.dtype)
                 if config.backbone == BACKBONE_LIGHTGCN else None)
        return cls(ckpt.table(ROLE_USER_TARGET_PHASE1, train.n_users), items,
                   graph)


def rows_read(graph: BipartiteGraph | None, users) -> np.ndarray | slice:
    """Sorted layer-0 user rows that a domain loss over ``users`` reads:
    the distinct batch users, or a slice of all when a graph propagates."""
    return np.unique(users) if graph is None else slice(0, graph.n_users)


def domain_forward_backward(user_vals: np.ndarray, item_vals: np.ndarray,
                            graph: BipartiteGraph | None, users: np.ndarray,
                            pos_items: np.ndarray, neg_items: np.ndarray,
                            loss_fn, weight: float):
    """One domain's batch loss and the gradient of ``weight * loss`` on
    the layer-0 user and item values.

    ``users`` index rows of ``user_vals``. Without a graph the scores are
    plain dot products and the gradients cover the batch rows, repeats
    included; with one they use the propagated embeddings and each is one
    block over its whole table, its rows given as a slice. Returns
    ``(loss, (user_rows, user_grad), (item_rows, item_grad))``. Positive
    item rows come before negative ones, so accumulating them in order
    matches adding the two groups one after the other.
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
    d_scores = (weight * np.concatenate([d_pos, d_neg])).astype(u_vecs.dtype)
    d_pos, d_neg = np.split(d_scores, 2)
    d_user = d_pos[:, None] * pos_vecs + d_neg[:, None] * neg_vecs
    item_rows = np.concatenate([pos_items, neg_items])
    d_item = d_scores[:, None] * np.concatenate([u_vecs, u_vecs])
    if graph is None:
        return loss, (users, d_user), (item_rows, d_item)
    # One scatter over the stacked rows, fed float64 so SciPy copies nothing;
    # the adjacency is symmetric, so the backward pass is the propagation.
    d_final = scatter_rows(np.concatenate([users, item_rows + graph.n_users]),
                           np.concatenate([d_user, d_item], dtype=np.float64),
                           graph.adjacency.shape[0]).astype(user_vals.dtype)
    d_user0, d_item0 = propagate(graph, *np.split(d_final, [graph.n_users]))
    return (loss, (slice(0, graph.n_users), d_user0),
            (slice(0, graph.n_items), d_item0))


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
