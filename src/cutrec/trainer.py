"""Two-phase training orchestration.

Phase one trains a single-domain backbone on the target domain and
freezes its user embeddings as the similarity source. Phase two trains a
fresh model on both domains jointly. It keeps one base embedding per
user: source interactions score against the raw base embeddings, target
interactions against transformed ones, and a contrastive term ties the
transformed representations to the phase-one similarity oracle, which
``run_transfer_phase`` alone picks. Both phases run one epoch loop,
``fit``, and both domains of both phases share one loss routine,
``backbone.domain_forward_backward``, with gradients summed over the batch.
The base user table's source and target gradient parts meet only in
``transfer_forward_backward``, so each parameter's gradient leaves it whole.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backbone import (BACKBONE_LIGHTGCN, SingleDomainModel,
                       domain_forward_backward, make_scorer, rows_read,
                       sample_negatives_batch,
                       single_domain_forward_backward)
from .checkpoint import Checkpoint
from .config import TrainingConfig
from .contrastive import contrastive_loss
from .corpus import CrossDomainDataset, InteractionSet, SplitDataset
from .embeddings import (ROLE_ITEM_SOURCE, ROLE_ITEM_TARGET, ROLE_USER,
                         ROLE_USER_TARGET_PHASE1, TRANSFORM_BIAS,
                         TRANSFORM_WEIGHT, assert_finite, init_embeddings)
from .errors import CheckpointError, ConfigError, TrainingDivergedError
from .evaluation import evaluate_full
from .graph import build_graph, propagate  # noqa: F401 (perfbench wraps it)
from .optim import Adam, GradBuffer, distinct_rows
from .similarity import PairSets, SimilarityOracle, extract_pairs

logger = logging.getLogger(__name__)

# Seed-stream labels: phase-1 and phase-2 streams must not collide.
_STREAM_TARGET_INIT = 0
_STREAM_TARGET_TRAIN = 1
_STREAM_TRANSFER_INIT = 2
_STREAM_TRANSFER_TRAIN = 3

# An untouched block of this many bytes, which ``fit`` frees before the
# first step. glibc's malloc then serves blocks up to that size from its
# heap and trims the heap top only past twice that size (mallopt(3), the
# dynamic mmap threshold), so each step's multi-MB temporaries are reused
# instead of being mapped and faulted in anew on every step, whatever the
# process freed before training.
_HEAP_RESERVE = 16 << 20


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step loss components and their weighted combination."""

    target: float
    source: float
    contrastive: float
    total: float


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
    builds the scorer for validation NDCG@10. The best epoch is the first
    to raise that metric above all earlier ones; training stops once
    ``config.patience`` epochs have passed since it, then restores its
    parameters and checks that they are finite. Returns the best epoch
    (0 when no epoch gave a metric above -inf) and the validation curve.
    """
    params = model.params()
    np.empty(_HEAP_RESERVE, dtype=np.uint8)  # allocated and freed at once

    def snapshot() -> dict[str, np.ndarray]:
        return {name: value.copy() for name, value in params.items()}

    best, best_epoch = -np.inf, 0
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
        if metric > best:
            best, best_epoch, best_state = metric, epoch, snapshot()
        logger.debug("%s phase epoch %d: loss=%.4f valid ndcg@10=%.4f",
                     phase, epoch, epoch_loss, metric)
        if epoch - best_epoch >= config.patience:
            break
    for name, value in params.items():
        value[...] = best_state[name]
    assert_finite(params, f"{phase} phase end")
    return best_epoch, history


def reads_embedding_oracle(config: TrainingConfig) -> bool:
    """Whether phase two's contrastive term is on and reads the oracle of
    the frozen phase-one user table."""
    return config.contrastive_weight > 0 and not config.history_similarity


def needs_phase_one(config: TrainingConfig) -> bool:
    """Whether phase two reads the frozen phase-one user table: under
    ``warm_start``, or for the oracle of an active contrastive term."""
    return config.warm_start or reads_embedding_oracle(config)


def _check_frozen(config: TrainingConfig, frozen: np.ndarray | None,
                  n_target: int) -> None:
    """Refuse a phase-one user table that phase two reads but lacks, or
    whose shape it cannot use: a row per target user and, under
    ``warm_start``, ``embedding_dim`` columns."""
    use = ("warm_start" if config.warm_start
           else "the embedding similarity oracle")
    if frozen is None:
        raise ConfigError(f"{use} needs the frozen phase-one user table")
    rows, width = frozen.shape
    dim = config.embedding_dim
    if rows != n_target or (config.warm_start and width != dim):
        raise ConfigError(
            f"{use}: the phase-one user table is {width} wide ({rows} "
            f"rows), embedding_dim is {dim} ({n_target} target users)")


@dataclass
class TargetPhaseResult:
    model: SingleDomainModel
    frozen: np.ndarray  # read-only copy of the best-epoch user table
    best_epoch: int
    valid_history: list[float]

    @cached_property
    def oracle(self) -> SimilarityOracle:
        """The frozen table's oracle at phase one's gamma, built on first
        use: only the contrastive term needs it, and a low gamma can make
        its graph too large to build."""
        return SimilarityOracle.from_embeddings(self.frozen,
                                                self.model.config.gamma)


def run_target_phase(ds: CrossDomainDataset, target_split: SplitDataset,
                     config: TrainingConfig) -> TargetPhaseResult:
    """Train the phase-one backbone on the target domain, early-stopping
    on validation NDCG@10, and freeze the best-epoch user embeddings."""
    train = target_split.train
    model = SingleDomainModel.create(
        config, train,
        np.random.SeedSequence([config.seed, _STREAM_TARGET_INIT]))
    optimizer = Adam(model.params(), lr=config.lr)
    shuffle_rng, negative_rng = (
        np.random.default_rng(s) for s in
        np.random.SeedSequence([config.seed, _STREAM_TARGET_TRAIN]).spawn(2))

    def step(batch: np.ndarray) -> float:
        batch_users = train.users[batch]
        neg_items = sample_negatives_batch(negative_rng, model.n_items,
                                           train, batch_users)
        loss, buf = single_domain_forward_backward(
            model, batch_users, train.indices[batch], neg_items)
        optimizer.step(buf.grads())
        return loss

    best_epoch, history = fit(model, step, train.n_interactions,
                              model.make_target_scorer, target_split, config,
                              shuffle_rng, "target")
    frozen = model.params()[ROLE_USER_TARGET_PHASE1].copy()
    frozen.setflags(write=False)
    return TargetPhaseResult(model, frozen, best_epoch, history)


class CutModel:
    """Phase-two model: one base user table, per-domain item tables,
    optional per-domain graphs, and the user transformation layer
    ``x -> W x + b``.

    The params are ``user``, ``item-target`` and ``item-source``, then
    ``transform-weight`` and ``transform-bias`` unless ``no_transform``.
    The user table holds every user in ``CrossDomainDataset`` order:
    target-only, overlap, source-only. Target-local user ``u`` is row
    ``u``, and source-local user ``v`` is row ``source_offset + v``, so
    both domains read and train an overlap user's one row. Target-domain
    scoring applies the transform to the base embedding; source-domain
    scoring uses it raw. Item embeddings are never transformed. The
    training sets ``target`` and ``source`` place the users and, under
    LightGCN, give each domain's graph in the tables' dtype.
    """

    def __init__(self, config: TrainingConfig, params: dict[str, np.ndarray],
                 target: InteractionSet, source: InteractionSet):
        self.config = config
        self._params = params
        self.n_target = target.n_users
        self.source_offset = len(params[ROLE_USER]) - source.n_users
        lightgcn = config.backbone == BACKBONE_LIGHTGCN
        self.graph_target, self.graph_source = (
            build_graph(train, config.k_layers, params[ROLE_USER].dtype)
            if lightgcn else None for train in (target, source))

    @classmethod
    def build(cls, ds: CrossDomainDataset, target_split: SplitDataset,
              source_split: SplitDataset, config: TrainingConfig, *,
              frozen: np.ndarray | None = None,
              dtype=np.float32) -> "CutModel":
        dim = config.embedding_dim
        seeds = np.random.SeedSequence(
            [config.seed, _STREAM_TRANSFER_INIT]).spawn(5)
        # One init stream per user partition, in dataset order, so that a
        # partition's initial rows do not depend on the others' sizes.
        users = [init_embeddings(rows, dim, seed, dtype)
                 for rows, seed in zip((ds.n_target_only, ds.n_overlap,
                                        ds.n_source_only), seeds) if rows]
        params = {
            ROLE_USER: np.vstack(users),
            ROLE_ITEM_TARGET: init_embeddings(ds.target.n_items, dim,
                                              seeds[3], dtype),
            ROLE_ITEM_SOURCE: init_embeddings(ds.source.n_items, dim,
                                              seeds[4], dtype),
        }
        if config.warm_start:
            _check_frozen(config, frozen, ds.target.n_users)
            params[ROLE_USER][:ds.target.n_users] = frozen
        if not config.no_transform:
            params[TRANSFORM_WEIGHT] = np.eye(dim, dtype=dtype)
            params[TRANSFORM_BIAS] = np.zeros(dim, dtype=dtype)
        return cls(config, params, target_split.train, source_split.train)

    @property
    def target_users(self) -> np.ndarray:
        return self._params[ROLE_USER][:self.n_target]

    @property
    def source_users(self) -> np.ndarray:
        return self._params[ROLE_USER][self.source_offset:]

    def params(self) -> dict[str, np.ndarray]:
        return self._params

    def apply_transform(self, x: np.ndarray) -> np.ndarray:
        """Each row u becomes ``W @ u + b``; the identity when ablated."""
        if self.config.no_transform:
            return x
        weight = self._params[TRANSFORM_WEIGHT]
        return x @ weight.T + self._params[TRANSFORM_BIAS]

    def make_target_scorer(self):
        """Read-only target-path scorer: user ids to their score rows."""
        return make_scorer(self.apply_transform(self.target_users),
                           self._params[ROLE_ITEM_TARGET], self.graph_target)

    def to_checkpoint(self, step: int = 0) -> Checkpoint:
        hyper = {"model_kind": "cut", "training": self.config.to_dict()}
        return Checkpoint(self._params, hyper, step)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, target_split: SplitDataset,
                        source_split: SplitDataset) -> "CutModel":
        """Rebuild a model saved by ``to_checkpoint`` for the splits it
        was trained on; the user counts of the splits place the source
        users in the user table."""
        config = ckpt.training_config()
        transform = dict.fromkeys((TRANSFORM_WEIGHT, TRANSFORM_BIAS))
        if config.no_transform == bool(transform.keys() & ckpt.arrays.keys()):
            raise CheckpointError(f"checkpoint transform does not match "
                                  f"no_transform={config.no_transform}")
        target, source = target_split.train, source_split.train
        params = ckpt.take({
            ROLE_USER: None, ROLE_ITEM_TARGET: target.n_items,
            ROLE_ITEM_SOURCE: source.n_items,
            **({} if config.no_transform else transform)})
        rows = len(params[ROLE_USER])
        if not 0 <= rows - source.n_users <= target.n_users <= rows:
            raise CheckpointError(
                f"checkpoint user table has {rows} rows, which cannot hold "
                f"{target.n_users} target users and {source.n_users} source "
                f"users")
        return cls(config, params, target, source)


def transfer_forward_backward(model: CutModel, src_users: np.ndarray,
                              src_pos: np.ndarray, src_neg: np.ndarray,
                              tgt_users: np.ndarray, tgt_pos: np.ndarray,
                              tgt_neg: np.ndarray,
                              pairs: PairSets | None
                              ) -> tuple[LossBreakdown, GradBuffer]:
    """One combined-objective forward/backward pass (no optimizer step),
    with the contrastive term whenever ``pairs`` holds similar pairs."""
    config = model.config
    if src_users.size == 0 or tgt_users.size == 0:
        raise ValueError("both domain batches must be non-empty")
    alpha = config.alpha
    lam = config.contrastive_weight
    params = model.params()

    # -- source domain, raw base embeddings --
    src_rows, local = rows_read(model.graph_source, src_users)
    l_source, d_source, source_items = domain_forward_backward(
        model.source_users[src_rows], params[ROLE_ITEM_SOURCE],
        model.graph_source, local, src_pos, src_neg, alpha)

    # -- target domain: transform once the base rows the loss reads --
    graph = model.graph_target
    rows, local = rows_read(graph, tgt_users)
    base = model.target_users[rows]
    transformed = model.apply_transform(base)
    l_target, d_transformed, target_items = domain_forward_backward(
        transformed, params[ROLE_ITEM_TARGET], graph, local,
        tgt_pos, tgt_neg, 1.0 - alpha)
    d_transformed = d_transformed.astype(np.float64, copy=False)

    # -- contrastive regulariser on the transformed batch users (without
    #    a graph, the rows read), nothing without similar pairs --
    l_contrastive = 0.0
    if pairs is not None and pairs.n_similar > 0:
        at = pairs.users if graph is not None else slice(None)
        if graph is None and not np.array_equal(pairs.users, rows):
            raise ValueError("pair users are not the distinct batch users")
        l_contrastive, d_pairs = contrastive_loss(
            transformed[at], pairs, config.temperature)
        d_transformed[at] += lam * d_pairs

    # -- chain both target terms through the transform at once --
    grads = {ROLE_ITEM_SOURCE: source_items, ROLE_ITEM_TARGET: target_items}
    if not config.no_transform:
        grads[TRANSFORM_WEIGHT] = slice(None), d_transformed.T @ base
        grads[TRANSFORM_BIAS] = slice(None), d_transformed.sum(axis=0)
        d_transformed = d_transformed @ params[TRANSFORM_WEIGHT]

    # -- the user table's two parts meet, the source part first: under a
    #    graph both are ranges of the table, else at their distinct rows --
    if isinstance(src_rows, slice):
        user_rows = np.arange(len(params[ROLE_USER]))
        at_source = slice(model.source_offset, None)
        at_target = slice(model.n_target)
    else:
        user_rows, at = distinct_rows(np.concatenate(
            [model.source_offset + src_rows, rows]))
        at_source, at_target = np.split(at, [src_rows.size])
    d_user = np.zeros((user_rows.size, d_transformed.shape[1]))
    d_user[at_source] += d_source
    d_user[at_target] += d_transformed
    buf = GradBuffer(params)
    for name, part in {ROLE_USER: (user_rows, d_user), **grads}.items():
        buf.add_rows(name, *part)

    l_all = (1.0 - alpha) * l_target + alpha * l_source + lam * l_contrastive
    return LossBreakdown(l_target, l_source, l_contrastive, l_all), buf


def transfer_step(model: CutModel, optimizer: Adam,
                  oracle: SimilarityOracle | None,
                  src_users: np.ndarray, src_pos: np.ndarray,
                  tgt_users: np.ndarray, tgt_pos: np.ndarray,
                  src_train: InteractionSet, tgt_train: InteractionSet,
                  rng_src: np.random.Generator,
                  rng_tgt: np.random.Generator) -> LossBreakdown:
    """Negative sampling, pair extraction (only given an ``oracle``),
    combined gradients, one Adam step over all touched parameters."""
    params = model.params()
    src_neg = sample_negatives_batch(rng_src, len(params[ROLE_ITEM_SOURCE]),
                                     src_train, src_users)
    tgt_neg = sample_negatives_batch(rng_tgt, len(params[ROLE_ITEM_TARGET]),
                                     tgt_train, tgt_users)
    pairs = None if oracle is None else extract_pairs(tgt_users, oracle)
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
                       frozen: np.ndarray | None = None
                       ) -> TransferPhaseResult:
    """Train the phase-two model on paired source/target batch streams.

    At ``contrastive_weight`` 0 the contrastive term is off and no oracle
    is built or read. Else it reads the target training history's oracle
    under ``history_similarity``, else ``oracle`` or, without one, that of
    ``frozen``, the phase-one table. Wherever phase two reads ``frozen``,
    its presence and shape are checked before any work. Epochs follow the
    target stream; the source stream reshuffles and recycles. Early-stops
    on target validation NDCG@10 and returns the best-validation model.
    """
    tgt, src = target_split.train, source_split.train
    if config.warm_start or (oracle is None and needs_phase_one(config)):
        _check_frozen(config, frozen, tgt.n_users)
    if config.contrastive_weight == 0.0:
        oracle = None
    elif config.history_similarity:
        oracle = SimilarityOracle.from_history(tgt, config.gamma)
    elif oracle is None:
        oracle = SimilarityOracle.from_embeddings(frozen, config.gamma)
    if oracle is not None and oracle.n_pairs == 0:
        logger.warning("no user pair has cosine above gamma=%g (largest "
                       "%.4f): the contrastive term will be zero for every "
                       "batch", oracle.gamma, oracle.max_cosine)
    model = CutModel.build(ds, target_split, source_split, config,
                           frozen=frozen)
    optimizer = Adam(model.params(), lr=config.lr)
    streams = np.random.SeedSequence(
        [config.seed, _STREAM_TRANSFER_TRAIN]).spawn(4)
    shuffle_rng, source_rng, neg_src_rng, neg_tgt_rng = (
        np.random.default_rng(s) for s in streams)

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
