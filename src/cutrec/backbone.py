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
from .embeddings import (ROLE_ITEM_TARGET, ROLE_USER_TARGET_PHASE1,
                         init_embeddings)
from .graph import BipartiteGraph, build_graph, propagate
from .losses import bce_loss
from .optim import GradBuffer, distinct_rows

BACKBONE_LIGHTGCN = "lightgcn"


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def sample_negatives_batch(rng: np.random.Generator, n_items: int,
                           train: InteractionSet, users) -> np.ndarray:
    """One negative per batch entry, uniform over the items outside the
    user's ``train`` row: one draw for the whole batch, then redraws of
    the entries whose key is set in ``train.bits``. A batch holding a user
    whose row is full is refused before any draw."""
    if n_items != train.n_items:
        raise ValueError("n_items does not match the train set")
    users = np.asarray(users, dtype=np.int64)
    if train.full_users.size:
        full = users[np.isin(users, train.full_users)]
        if full.size:
            raise ValueError(f"user {full[0]} interacted with every item; "
                             "cannot sample negatives")
    out = rng.integers(0, n_items, size=users.size)
    todo = np.flatnonzero(train.contains(users * n_items + out))
    while todo.size:
        out[todo] = rng.integers(0, n_items, size=todo.size)
        todo = todo[train.contains(users[todo] * n_items + out[todo])]
    return out


def make_scorer(user_final: np.ndarray, item_final: np.ndarray,
                graph: BipartiteGraph | None):
    """Read-only scorer over layer-0 user and item tables: user ids to
    their score rows over all items, after ``graph``'s propagation when
    there is one."""
    if graph is not None:
        user_final, item_final = propagate(graph, user_final, item_final)
    item_t = item_final.T.copy()
    return lambda users: user_final[users] @ item_t


class SingleDomainModel:
    """A backbone over one user/item index space, as its ``config`` says:
    MF without a graph, LightGCN with one over ``train``, in the tables'
    dtype. Its params are the ``user-target-phase1`` and ``item-target``
    tables."""

    def __init__(self, config: TrainingConfig, params: dict[str, np.ndarray],
                 train: InteractionSet):
        self.config = config
        self._params = params
        self.graph = (build_graph(train, config.k_layers,
                                  params[ROLE_ITEM_TARGET].dtype)
                      if config.backbone == BACKBONE_LIGHTGCN else None)

    @classmethod
    def create(cls, config: TrainingConfig, train: InteractionSet,
               seed: np.random.SeedSequence, *,
               dtype=np.float32) -> "SingleDomainModel":
        """A fresh model for ``train``'s users and items, its two tables
        drawn from streams spawned from ``seed``."""
        user_seed, item_seed = seed.spawn(2)
        dim = config.embedding_dim
        params = {
            ROLE_USER_TARGET_PHASE1: init_embeddings(train.n_users, dim,
                                                     user_seed, dtype),
            ROLE_ITEM_TARGET: init_embeddings(train.n_items, dim, item_seed,
                                              dtype)}
        return cls(config, params, train)

    @property
    def n_items(self) -> int:
        return len(self._params[ROLE_ITEM_TARGET])

    def params(self) -> dict[str, np.ndarray]:
        return self._params

    def make_target_scorer(self):
        return make_scorer(self._params[ROLE_USER_TARGET_PHASE1],
                           self._params[ROLE_ITEM_TARGET], self.graph)

    def to_checkpoint(self, step: int = 0) -> Checkpoint:
        hyper = {"model_kind": "single", "training": self.config.to_dict()}
        return Checkpoint(self._params, hyper, step)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint,
                        target_split: SplitDataset) -> "SingleDomainModel":
        """Rebuild a model saved by ``to_checkpoint`` for its target split."""
        config = ckpt.training_config()
        train = target_split.train
        params = ckpt.take({ROLE_USER_TARGET_PHASE1: train.n_users,
                            ROLE_ITEM_TARGET: train.n_items})
        return cls(config, params, train)


def rows_read(graph: BipartiteGraph | None, index) -> tuple:
    """The table rows that a loss over the batch entries ``index`` reads,
    and each entry's position among them: the distinct entries, or all
    rows when a graph propagates."""
    return distinct_rows(index) if graph is None else (slice(None), index)


def domain_forward_backward(user_vals: np.ndarray, item_vals: np.ndarray,
                            graph: BipartiteGraph | None, users: np.ndarray,
                            pos_items: np.ndarray, neg_items: np.ndarray,
                            weight: float):
    """One domain's batch loss, ``bce_loss`` over each entry's positive
    and negative score, and the gradient of ``weight * loss`` on the
    layer-0 user and item values.

    ``user_vals`` holds the user rows that ``rows_read`` gives, and
    ``users`` index it; batch entry ``i`` scores ``users[i]`` against
    ``pos_items[i]`` and ``neg_items[i]``. With ``S`` the sparse users x
    items matrix of the score gradients, the gradients on the scored rows
    are ``S @ items`` and ``S.T @ users`` in float64: ``user_vals`` and
    the batch items, or the propagated tables, whose gradients then go
    back through the graph in the table dtype. Returns ``(loss,
    user_grad, (item_rows, item_grad))``, the item rows as ``rows_read``
    gives them.
    """
    item_rows, item_local = rows_read(
        graph, np.concatenate([pos_items, neg_items]))
    user_final, item_final = user_vals, item_vals[item_rows]
    if graph is not None:
        user_final, item_final = propagate(graph, user_final, item_final)
    u_vecs = user_final[users]
    pos_local, neg_local = np.split(item_local, 2)
    loss, d_pos, d_neg = bce_loss(row_dots(u_vecs, item_final[pos_local]),
                                  row_dots(u_vecs, item_final[neg_local]))
    # Both products at once: the stacked rows times the symmetric
    # [[0, S], [S.T, 0]] in COO, an entry per score and side, so that each
    # output row adds its terms in batch order, positives first. Float64
    # operands: SciPy would upcast float32 ones, over twice as slowly.
    stacked = np.concatenate([user_final, item_final], dtype=np.float64)
    del user_final, item_final, u_vecs  # the stacked copy holds them
    ends = np.concatenate([users, users, item_local + len(user_vals)])
    d_scores = np.tile(weight * np.concatenate([d_pos, d_neg]), 2)
    scores = sp.coo_matrix((d_scores, (ends, np.roll(ends, 2 * users.size))),
                           shape=(len(stacked),) * 2)
    d_user, d_item = np.split(scores @ stacked, [len(user_vals)])
    del stacked, scores
    if graph is not None:
        # The adjacency is symmetric: the backward pass is the propagation,
        # with only its operands, cast to the table dtype, alive beside it.
        d_user, d_item = (d_user.astype(user_vals.dtype),
                          d_item.astype(item_vals.dtype))
        d_user, d_item = propagate(graph, d_user, d_item)
    return loss, d_user, (item_rows, d_item)


def single_domain_forward_backward(model: SingleDomainModel,
                                   users: np.ndarray, pos_items: np.ndarray,
                                   neg_items: np.ndarray
                                   ) -> tuple[float, GradBuffer]:
    """Forward scores, loss, and hand-derived gradients for one batch."""
    if users.size == 0:
        raise ValueError("batch must be non-empty")
    params = model.params()
    buf = GradBuffer(params)
    rows, local = rows_read(model.graph, users)
    loss, d_user, (item_rows, d_item) = domain_forward_backward(
        params[ROLE_USER_TARGET_PHASE1][rows], params[ROLE_ITEM_TARGET],
        model.graph, local, pos_items, neg_items, 1.0)
    buf.add_rows(ROLE_USER_TARGET_PHASE1, rows, d_user)
    buf.add_rows(ROLE_ITEM_TARGET, item_rows, d_item)
    return loss, buf
