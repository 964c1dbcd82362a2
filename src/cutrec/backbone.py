"""Single-domain recommendation backbones: dot-product matrix
factorisation and mean-of-layers graph propagation over a bipartite
interaction graph, trained with hand-derived gradients.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .checkpoint import Checkpoint
from .config import TrainingConfig
from .corpus import InteractionSet, SplitDataset
from .embeddings import (EmbeddingTable, ROLE_ITEM_TARGET,
                         ROLE_USER_TARGET_PHASE1, init_embeddings)
from .graph import BipartiteGraph, build_graph, propagate
from .losses import bce_loss, bpr_loss
from .optim import GradBuffer, distinct_rows

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


def rows_read(graph: BipartiteGraph | None, index) -> tuple:
    """The table rows that a loss over the batch entries ``index`` reads,
    and each entry's position among them: the distinct entries, or all
    rows when a graph propagates."""
    return distinct_rows(index) if graph is None else (slice(None), index)


def domain_forward_backward(user_vals: np.ndarray, item_vals: np.ndarray,
                            graph: BipartiteGraph | None, users: np.ndarray,
                            pos_items: np.ndarray, neg_items: np.ndarray,
                            loss_fn, weight: float):
    """One domain's batch loss and the gradient of ``weight * loss`` on
    the layer-0 user and item values.

    ``user_vals`` holds the user rows that ``rows_read`` gives, and
    ``users`` index it. With ``S`` the sparse users x items matrix of the
    score gradients, the gradients on the scored rows are ``S @ items``
    and ``S.T @ users`` in float64: ``user_vals`` and the batch items, or
    the propagated tables, whose gradients then go back through the graph
    in the table dtype. Returns ``(loss, user_grad, (item_rows,
    item_grad))``, the item rows as ``rows_read`` gives them.
    """
    item_rows, item_local = rows_read(
        graph, np.concatenate([pos_items, neg_items]))
    user_final, item_final = user_vals, item_vals[item_rows]
    if graph is not None:
        user_final, item_final = propagate(graph, user_final, item_final)
    u_vecs = user_final[users]
    pos_local, neg_local = np.split(item_local, 2)
    loss, d_pos, d_neg = loss_fn(row_dots(u_vecs, item_final[pos_local]),
                                 row_dots(u_vecs, item_final[neg_local]))
    # Both products at once: the stacked rows times the symmetric
    # [[0, S], [S.T, 0]] in COO, an entry per score and side, so that each
    # output row adds its terms in batch order, positives first. Float64
    # operands: SciPy would upcast float32 ones, over twice as slowly.
    stacked = np.concatenate([user_final, item_final], dtype=np.float64)
    ends = np.concatenate([users, users, item_local + len(user_final)])
    d_scores = np.tile(weight * np.concatenate([d_pos, d_neg]), 2)
    scores = sp.coo_matrix((d_scores, (ends, np.roll(ends, 2 * users.size))),
                           shape=(len(stacked),) * 2)
    d_user, d_item = np.split(scores @ stacked, [len(user_final)])
    if graph is not None:
        # The adjacency is symmetric: the backward pass is the propagation.
        d_user, d_item = propagate(graph, d_user.astype(user_vals.dtype),
                                   d_item.astype(item_vals.dtype))
    return loss, d_user, (item_rows, d_item)


def single_domain_forward_backward(model: SingleDomainModel,
                                   users: np.ndarray, pos_items: np.ndarray,
                                   neg_items: np.ndarray,
                                   loss_kind: str) -> tuple[float, GradBuffer]:
    """Forward scores, loss, and hand-derived gradients for one batch."""
    if users.size == 0:
        raise ValueError("batch must be non-empty")
    buf = GradBuffer(model.params())
    rows, local = rows_read(model.graph, users)
    loss, d_user, (item_rows, d_item) = domain_forward_backward(
        model.users.values[rows], model.items.values, model.graph, local,
        pos_items, neg_items, LOSS_FNS[loss_kind], 1.0)
    buf.add_rows("user", rows, d_user)
    buf.add_rows("item", item_rows, d_item)
    return loss, buf
