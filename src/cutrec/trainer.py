"""Two-phase training orchestration.

Phase one trains a single-domain backbone on the target domain and
freezes its user embeddings as the similarity source. Phase two trains a
fresh model on both domains jointly. It keeps one base embedding per
user: source interactions score against the raw base embeddings, target
interactions against transformed ones, and a contrastive term ties the
transformed representations to the frozen phase-one similarity
structure. Both phases run the same epoch loop, ``fit``, and both
domains of both phases share one loss routine,
``backbone.domain_forward_backward``, with gradients summed over the batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backbone import (BACKBONE_LIGHTGCN, LOSS_FNS, SingleDomainModel,
                       domain_forward_backward, rows_read,
                       sample_negatives_batch,
                       single_domain_forward_backward)
from .checkpoint import Checkpoint
from .config import TrainingConfig
from .contrastive import contrastive_loss, total_loss
from .corpus import CrossDomainDataset, InteractionSet, SplitDataset
from .embeddings import (EmbeddingTable, ROLE_ITEM_SOURCE, ROLE_ITEM_TARGET,
                         ROLE_USER, ROLE_USER_TARGET_PHASE1, assert_finite,
                         init_embeddings)
from .errors import CheckpointError, ConfigError, TrainingDivergedError
from .evaluation import evaluate_full
from .graph import build_graph, propagate
from .optim import Adam, GradBuffer
from .similarity import PairSets, SimilarityOracle, extract_pairs
from .transform import TransformLayer

logger = logging.getLogger(__name__)

# Seed-stream labels: phase-1 and phase-2 streams must not collide.
_STREAM_TARGET_INIT = 0
_STREAM_TARGET_TRAIN = 1
_STREAM_TRANSFER_INIT = 2
_STREAM_TRANSFER_TRAIN = 3


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step loss components and their weighted combination."""

    target: float
    source: float
    contrastive: float
    total: float


class EarlyStopper:
    """Stops after ``patience`` consecutive epochs without improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch: int | None = None
        self._since_best = 0

    def update(self, value: float, epoch: int) -> bool:
        if value > self.best:
            self.best = value
            self.best_epoch = epoch
            self._since_best = 0
            return True
        self._since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self._since_best >= self.patience


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.size, batch_size):
        yield order[start:start + batch_size]


def _recycling_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Infinite batch stream; each pass over the data is reshuffled."""
    while True:
        yield from _batches(rng.permutation(n), batch_size)


def fit(model, step, n_pairs: int, scorer, split: SplitDataset,
        config: TrainingConfig, shuffle_rng: np.random.Generator,
        phase: str) -> tuple[int, list[float]]:
    """The epoch loop of both phases.

    Each epoch visits the ``n_pairs`` training pairs in a fresh shuffled
    order, calling ``step(batch)`` on each batch of pair indices; ``step``
    trains and returns the batch loss. After each epoch ``scorer()``
    builds the scorer for validation NDCG@10. Training early-stops on that
    metric, then restores the best epoch's parameters and checks that
    they are finite. Returns the best epoch and the validation curve.
    """
    params = model.params()

    def snapshot() -> dict[str, np.ndarray]:
        return {name: value.copy() for name, value in params.items()}

    stopper = EarlyStopper(config.patience)
    best_state = snapshot()
    history: list[float] = []
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n_pairs)
        epoch_loss = 0.0
        try:
            for batch in _batches(order, config.batch_size):
                epoch_loss += step(batch)
        except TrainingDivergedError as err:
            raise TrainingDivergedError(
                f"{phase} phase epoch {epoch}: {err}") from err
        metric = evaluate_full(scorer(), split, k=10,
                               part="valid").means["ndcg"]
        history.append(metric)
        if stopper.update(metric, epoch):
            best_state = snapshot()
        logger.debug("%s phase epoch %d: loss=%.4f valid ndcg@10=%.4f",
                     phase, epoch, epoch_loss, metric)
        if stopper.should_stop:
            break
    for name, value in params.items():
        value[...] = best_state[name]
    assert_finite(params, f"{phase} phase end")
    return stopper.best_epoch or 0, history


@dataclass
class TargetPhaseResult:
    model: SingleDomainModel
    frozen: EmbeddingTable
    best_epoch: int
    valid_history: list[float]
    config: TrainingConfig
    train: InteractionSet

    @cached_property
    def oracle(self) -> SimilarityOracle:
        """Built on first use: only the contrastive term needs it, and a
        low gamma can make its graph too large to build."""
        if self.config.history_similarity:
            return SimilarityOracle.from_history(self.train, self.config.gamma)
        return SimilarityOracle.from_embeddings(self.frozen, self.config.gamma)


def run_target_phase(ds: CrossDomainDataset, target_split: SplitDataset,
                     config: TrainingConfig) -> TargetPhaseResult:
    """Train the phase-one backbone on the target domain, early-stopping
    on validation NDCG@10, and freeze the best-epoch user embeddings. The
    result's similarity oracle reads them (or the training history under
    the corresponding ablation)."""
    train = target_split.train
    model = SingleDomainModel.create(
        ds.target.n_users, ds.target.n_items, config.embedding_dim,
        np.random.SeedSequence([config.seed, _STREAM_TARGET_INIT]),
        backbone=config.backbone, train=train, k_layers=config.k_layers)
    optimizer = Adam(model.params(), lr=config.lr,
                     weight_decay=config.weight_decay)
    shuffle_rng, negative_rng = (
        np.random.default_rng(s) for s in
        np.random.SeedSequence([config.seed, _STREAM_TARGET_TRAIN]).spawn(2))

    def step(batch: np.ndarray) -> float:
        batch_users = train.users[batch]
        neg_items = sample_negatives_batch(negative_rng, model.n_items,
                                           train, batch_users)
        loss, buf = single_domain_forward_backward(
            model, batch_users, train.indices[batch], neg_items,
            config.loss_kind)
        optimizer.step(buf.grads())
        return loss

    best_epoch, history = fit(model, step, train.n_interactions,
                              model.make_scorer, target_split, config,
                              shuffle_rng, "target")
    frozen = EmbeddingTable(ROLE_USER_TARGET_PHASE1,
                            model.users.values.copy())
    frozen.values.setflags(write=False)
    return TargetPhaseResult(model, frozen, best_epoch, history, config, train)


def _graphs(config: TrainingConfig, target_split: SplitDataset,
            source_split: SplitDataset, dtype) -> tuple:
    """The (target, source) training graphs LightGCN propagates over, in
    the tables' ``dtype``; MF has none."""
    if config.backbone != BACKBONE_LIGHTGCN:
        return None, None
    return (build_graph(target_split.train, config.k_layers, dtype),
            build_graph(source_split.train, config.k_layers, dtype))


class CutModel:
    """Phase-two model: one base user table, per-domain item tables,
    optional per-domain graphs, and the user transformation layer.

    The user table (role ``user``) holds every user in
    ``CrossDomainDataset`` order: target-only, overlap, source-only.
    Target-local user ``u`` is row ``u``, and source-local user ``v`` is
    row ``source_offset + v``, so both domains read and train an overlap
    user's one row. Target-domain scoring applies the transform to the
    base embedding; source-domain scoring uses it raw. Item embeddings
    are never transformed.
    """

    def __init__(self, config: TrainingConfig, tables: dict[str, EmbeddingTable],
                 transform: TransformLayer | None, n_target: int,
                 source_offset: int, graph_target=None, graph_source=None):
        self.config = config
        self.tables = tables
        self.transform = transform
        self.n_target = n_target
        self.source_offset = source_offset
        self.graph_target = graph_target
        self.graph_source = graph_source
        dims = {t.dim for t in tables.values()}
        if len(dims) != 1:
            raise ValueError("all tables must share one embedding dimension")

    @classmethod
    def build(cls, ds: CrossDomainDataset, target_split: SplitDataset,
              source_split: SplitDataset, config: TrainingConfig, *,
              frozen: EmbeddingTable | None = None,
              dtype=np.float32) -> "CutModel":
        dim = config.embedding_dim
        seeds = np.random.SeedSequence(
            [config.seed, _STREAM_TRANSFER_INIT]).spawn(6)
        # One init stream per user partition, in dataset order, so that a
        # partition's initial rows do not depend on the others' sizes.
        users = [init_embeddings(rows, dim, seed, dtype=dtype).values
                 for rows, seed in zip((ds.n_target_only, ds.n_overlap,
                                        ds.n_source_only), seeds) if rows]
        tables = {
            ROLE_USER: EmbeddingTable(ROLE_USER, np.vstack(users)),
            ROLE_ITEM_TARGET: init_embeddings(
                ds.target.n_items, dim, seeds[3], role=ROLE_ITEM_TARGET,
                dtype=dtype),
            ROLE_ITEM_SOURCE: init_embeddings(
                ds.source.n_items, dim, seeds[4], role=ROLE_ITEM_SOURCE,
                dtype=dtype),
        }
        if config.warm_start:
            if frozen is None:
                raise ConfigError("warm_start requires frozen phase-one "
                                  "embeddings")
            tables[ROLE_USER].values[:ds.target.n_users] = frozen.values

        transform = None
        if not config.no_transform:
            transform = TransformLayer.create(
                dim, seeds[5], init=config.transform_init, dtype=dtype)
        return cls(config, tables, transform, ds.target.n_users,
                   ds.n_target_only,
                   *_graphs(config, target_split, source_split, dtype))

    @property
    def target_users(self) -> np.ndarray:
        return self.tables[ROLE_USER].values[:self.n_target]

    @property
    def source_users(self) -> np.ndarray:
        return self.tables[ROLE_USER].values[self.source_offset:]

    def params(self) -> dict[str, np.ndarray]:
        out = {role: tbl.values for role, tbl in self.tables.items()}
        if self.transform is not None:
            out["transform-weight"] = self.transform.weight
            out["transform-bias"] = self.transform.bias
        return out

    def apply_transform(self, x: np.ndarray) -> np.ndarray:
        return x if self.transform is None else self.transform.apply(x)

    def make_target_scorer(self):
        """Read-only target-path scorer: user ids to their score rows."""
        user_final = self.apply_transform(self.target_users)
        item_final = self.tables[ROLE_ITEM_TARGET].values
        if self.graph_target is not None:
            user_final, item_final = propagate(self.graph_target, user_final,
                                               item_final)
        item_t = item_final.T.copy()
        return lambda users: user_final[users] @ item_t

    def to_checkpoint(self, step: int = 0) -> Checkpoint:
        hyper = {"model_kind": "cut", "training": self.config.to_dict()}
        return Checkpoint(list(self.tables.values()), hyper, step,
                          self.transform)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, target_split: SplitDataset,
                        source_split: SplitDataset) -> "CutModel":
        """Rebuild a model saved by ``to_checkpoint`` for the splits it
        was trained on; the user counts of the splits place the source
        users in the user table."""
        config = ckpt.training_config()
        tables = {role: ckpt.table(role, rows) for role, rows in (
            (ROLE_USER, None), (ROLE_ITEM_TARGET, target_split.train.n_items),
            (ROLE_ITEM_SOURCE, source_split.train.n_items))}
        rows = tables[ROLE_USER].rows
        n_target, n_source = target_split.train.n_users, source_split.train.n_users
        source_offset = rows - n_source
        if not 0 <= source_offset <= n_target <= rows:
            raise CheckpointError(
                f"checkpoint user table has {rows} rows, which cannot hold "
                f"{n_target} target users and {n_source} source users")
        if config.no_transform != (ckpt.transform is None):
            raise CheckpointError(f"checkpoint transform does not match "
                                  f"no_transform={config.no_transform}")
        return cls(config, tables, ckpt.transform, n_target, source_offset,
                   *_graphs(config, target_split, source_split,
                            tables[ROLE_USER].values.dtype))


def transfer_forward_backward(model: CutModel, src_users: np.ndarray,
                              src_pos: np.ndarray, src_neg: np.ndarray,
                              tgt_users: np.ndarray, tgt_pos: np.ndarray,
                              tgt_neg: np.ndarray,
                              pairs: PairSets | None
                              ) -> tuple[LossBreakdown, GradBuffer]:
    """One combined-objective forward/backward pass (no optimizer step).

    ``pairs`` must be None when the contrastive term is disabled.
    """
    config = model.config
    if src_users.size == 0 or tgt_users.size == 0:
        raise ValueError("both domain batches must be non-empty")
    loss_fn = LOSS_FNS[config.loss_kind]
    alpha = config.alpha
    lam = config.contrastive_weight
    buf = GradBuffer(model.params())

    # -- source domain, raw base embeddings --
    rows, local = rows_read(model.graph_source, src_users)
    l_source, d_user, (item_rows, d_item) = domain_forward_backward(
        model.source_users[rows], model.tables[ROLE_ITEM_SOURCE].values,
        model.graph_source, local, src_pos, src_neg, loss_fn, alpha)
    buf.add_rows(ROLE_USER, np.arange(model.source_offset, len(
        model.tables[ROLE_USER].values))[rows], d_user)
    buf.add_rows(ROLE_ITEM_SOURCE, item_rows, d_item)

    # -- target domain: transform once the base rows the loss reads --
    graph = model.graph_target
    rows, local = rows_read(graph, tgt_users)
    base = model.target_users[rows]
    transformed = model.apply_transform(base)
    l_target, d_transformed, (item_rows, d_item) = domain_forward_backward(
        transformed, model.tables[ROLE_ITEM_TARGET].values, graph, local,
        tgt_pos, tgt_neg, loss_fn, 1.0 - alpha)
    buf.add_rows(ROLE_ITEM_TARGET, item_rows, d_item)
    d_transformed = d_transformed.astype(np.float64, copy=False)

    # -- contrastive regulariser on the transformed batch users (without
    #    a graph, the rows read), nothing without similar pairs --
    l_contrastive = 0.0
    if pairs is not None and pairs.n_similar > 0:
        at = pairs.users if graph is not None else slice(None)
        if graph is None and not np.array_equal(pairs.users, rows):
            raise ValueError("pair users are not the distinct batch users")
        l_contrastive, d_pairs = contrastive_loss(
            transformed[at], pairs, config.temperature,
            normalize=config.normalized_contrastive)
        d_transformed[at] += lam * d_pairs

    # -- chain both target terms through the transform at once --
    if model.transform is not None:
        buf.add_dense("transform-weight", d_transformed.T @ base)
        buf.add_dense("transform-bias", d_transformed.sum(axis=0))
        d_transformed = d_transformed @ model.transform.weight
    buf.add_rows(ROLE_USER, np.arange(model.n_target)[rows], d_transformed)

    l_all = total_loss(l_target, l_source, l_contrastive, alpha, lam)
    return LossBreakdown(l_target, l_source, l_contrastive, l_all), buf


def transfer_step(model: CutModel, optimizer: Adam,
                  oracle: SimilarityOracle | None,
                  src_users: np.ndarray, src_pos: np.ndarray,
                  tgt_users: np.ndarray, tgt_pos: np.ndarray,
                  src_train: InteractionSet, tgt_train: InteractionSet,
                  rng_src: np.random.Generator,
                  rng_tgt: np.random.Generator) -> LossBreakdown:
    """Negative sampling, pair extraction, combined gradients, one Adam
    step over all touched parameters."""
    config = model.config
    src_neg = sample_negatives_batch(
        rng_src, model.tables[ROLE_ITEM_SOURCE].rows, src_train, src_users)
    tgt_neg = sample_negatives_batch(
        rng_tgt, model.tables[ROLE_ITEM_TARGET].rows, tgt_train, tgt_users)
    pairs = None
    if not config.no_contrastive:
        if oracle is None:
            raise ConfigError("contrastive training requires a similarity oracle")
        pairs = extract_pairs(tgt_users, oracle)
    breakdown, buf = transfer_forward_backward(
        model, src_users, src_pos, src_neg, tgt_users, tgt_pos, tgt_neg, pairs)
    optimizer.step(buf.grads())
    return breakdown


@dataclass
class TransferPhaseResult:
    model: CutModel
    best_epoch: int
    valid_history: list[float]
    step_count: int


def run_transfer_phase(ds: CrossDomainDataset, target_split: SplitDataset,
                       source_split: SplitDataset, config: TrainingConfig,
                       oracle: SimilarityOracle | None = None, *,
                       frozen: EmbeddingTable | None = None
                       ) -> TransferPhaseResult:
    """Train the phase-two model on paired source/target batch streams.

    Epochs follow the target stream; the source stream reshuffles and
    recycles. Early-stops on target validation NDCG@10 and returns the
    best-validation model.
    """
    if not config.no_contrastive and oracle is None:
        raise ConfigError("transfer phase needs a similarity oracle unless "
                          "the contrastive term is disabled")
    if not config.no_contrastive and oracle.n_pairs == 0:
        logger.warning("no user pair has cosine above gamma=%g (largest "
                       "%.4f): the contrastive term will be zero for every "
                       "batch", oracle.gamma, oracle.max_cosine)
    model = CutModel.build(ds, target_split, source_split, config,
                           frozen=frozen)
    optimizer = Adam(model.params(), lr=config.lr,
                     weight_decay=config.weight_decay)
    streams = np.random.SeedSequence(
        [config.seed, _STREAM_TRANSFER_TRAIN]).spawn(4)
    shuffle_rng, source_rng, neg_src_rng, neg_tgt_rng = (
        np.random.default_rng(s) for s in streams)

    tgt, src = target_split.train, source_split.train
    if src.n_interactions == 0:
        raise ValueError("source training split is empty")
    source_stream = _recycling_batches(src.n_interactions, config.batch_size,
                                       source_rng)

    def step(batch: np.ndarray) -> float:
        src_batch = next(source_stream)
        return transfer_step(
            model, optimizer, oracle, src.users[src_batch],
            src.indices[src_batch], tgt.users[batch], tgt.indices[batch],
            src, tgt, neg_src_rng, neg_tgt_rng).total

    best_epoch, history = fit(model, step, tgt.n_interactions,
                              model.make_target_scorer, target_split, config,
                              shuffle_rng, "transfer")
    return TransferPhaseResult(model, best_epoch, history,
                               optimizer.step_count)
