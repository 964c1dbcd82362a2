"""Independent oracles and utilities shared by the test suite.

The oracles here are deliberately written as the naive/brute-force route
so they stay independent of the implementation under test;
``interaction_set`` and ``raw_interactions`` only build test inputs,
``rewrite_arrays`` damages files for the malformed-input tests, and
``traced_peak`` measures a call's memory.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np

from cutrec.backbone import row_dots
from cutrec.contrastive import contrastive_loss
from cutrec.corpus import (NO_TIME, CrossDomainDataset, DomainId,
                           InteractionSet, RawInteractions, read_arrays,
                           write_arrays)
from cutrec.embeddings import ROLE_ITEM_SOURCE, ROLE_ITEM_TARGET, ROLE_USER
from cutrec.errors import ParseError
from cutrec.graph import propagate
from cutrec.losses import bce_loss


def sigmoid_reference(x) -> np.ndarray:
    """The logistic function 1 / (1 + e^-x) in long double."""
    return 1 / (1 + np.exp(-np.asarray(x, dtype=np.longdouble)))


def fd_gradient(loss_fn, array: np.ndarray, flat_indices, h: float = 1e-6):
    """Central finite differences of ``loss_fn()`` w.r.t. entries of
    ``array`` (perturbed in place)."""
    out = np.zeros(len(flat_indices))
    flat = array.reshape(-1)
    for pos, idx in enumerate(flat_indices):
        original = flat[idx]
        flat[idx] = original + h
        up = loss_fn()
        flat[idx] = original - h
        down = loss_fn()
        flat[idx] = original
        out[pos] = (up - down) / (2.0 * h)
    return out


def assert_grad_matches(loss_fn, params: dict[str, np.ndarray],
                        analytic: dict[str, np.ndarray], *,
                        rtol: float = 1e-4, h: float = 1e-6,
                        max_entries_per_param: int | None = None,
                        rng: np.random.Generator | None = None):
    """Check every (or a sampled subset of) parameter entry against
    central differences. ``analytic`` maps names to dense gradients."""
    for name, array in params.items():
        dense = analytic.get(name)
        if dense is None:
            dense = np.zeros_like(array, dtype=np.float64)
        n = array.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            assert rng is not None
            indices = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            indices = np.arange(n)
        fd = fd_gradient(loss_fn, array, indices, h=h)
        ana = dense.reshape(-1)[indices]
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-6)
        rel = np.abs(fd - ana) / scale
        worst = int(np.argmax(rel))
        assert rel.max() <= rtol, (
            f"gradient mismatch for {name!r}: analytic={ana[worst]!r} "
            f"fd={fd[worst]!r} rel={rel.max():.3g}")


def dense_grads(grads: dict, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Expand (rows, values) sparse gradients to dense arrays."""
    out = {}
    for name, (rows, values) in grads.items():
        dense = np.zeros(params[name].shape, dtype=np.float64)
        dense[rows] = values
        out[name] = dense
    return out


def sample_negatives(rng: np.random.Generator, n_items: int,
                     train_row: np.ndarray, count: int = 1) -> np.ndarray:
    """Uniform rejection sampling over items outside one user's train row,
    one user at a time."""
    if train_row.size >= n_items:
        raise ValueError("user interacted with every item")
    out: list[int] = []
    banned = set(train_row.tolist())
    while len(out) < count:
        out.extend(int(item) for item in rng.integers(0, n_items,
                                                      size=count - len(out))
                   if item not in banned)
    return np.array(out, dtype=np.int64)


def searchsorted_negatives(rng: np.random.Generator, n_items: int,
                           train: InteractionSet, users) -> np.ndarray:
    """``sample_negatives_batch`` by binary search over ``train.keys``: one
    draw for the batch, then redraws of the entries found there, with the
    same generator calls in the same order."""
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


def held_keys(inter: InteractionSet, keys) -> np.ndarray:
    """Whether each key ``user * n_items + item`` is in ``inter``, by a
    Python set of its (user, item) pairs."""
    held = {(user, item) for user, row in enumerate(inter.rows)
            for item in row.tolist()}
    keys = np.asarray(keys, dtype=np.int64)
    return np.array([divmod(key, inter.n_items) in held
                     for key in keys.ravel().tolist()],
                    dtype=bool).reshape(keys.shape)


def full_table_grads(params: dict[str, np.ndarray], row_parts):
    """``GradBuffer.grads()`` the long way: scatter every row part into a
    zeroed float64 copy of its whole table, keep the touched rows."""
    out = {}
    for name, parts in row_parts.items():
        table = np.zeros(params[name].shape, dtype=np.float64)
        touched = np.zeros(params[name].shape[0], dtype=bool)
        for rows, values in parts:
            np.add.at(table, rows, values)
            touched[rows] = True
        rows = np.flatnonzero(touched)
        out[name] = (rows, table[rows])
    return out


def merge_row_parts(param: np.ndarray, parts) -> tuple:
    """The merge that ``optim.GradBuffer.grads`` made of one parameter's
    ``(rows, values)`` parts, rows a slice or strictly increasing ints,
    before each gradient reached it whole: float64 zeros on the distinct
    rows of all parts, then each part added in the order given at its
    rows' positions, by slice where those are consecutive."""
    parts = [(np.arange(len(param))[rows] if isinstance(rows, slice)
              else rows, values) for rows, values in parts]
    rows, inverse = np.unique(np.concatenate([r for r, _ in parts]),
                              return_inverse=True)
    total = np.zeros((rows.size, *param.shape[1:]))
    for part, values in parts:
        at, inverse = inverse[:part.size], inverse[part.size:]
        if at.size and at[-1] - at[0] == at.size - 1:
            at = slice(at[0], at[-1] + 1)
        total[at] += values
    return rows, total


def dense_contrastive_gradient(values: np.ndarray, sim_mask: np.ndarray,
                               tau: float) -> np.ndarray:
    """Gradient of the batch regulariser w.r.t. ``values``, through dense
    u-by-u masks: (softmax - sim / |S|) / tau plus its transpose."""
    n = values.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    logits = values @ values.T / tau
    exp = np.where(off_diag, np.exp(logits - logits[off_diag].max()), 0.0)
    d_logits = (exp / exp.sum() - sim_mask / sim_mask.sum()) / tau
    return (d_logits + d_logits.T) @ values


def adam_row_step(param: np.ndarray, m: np.ndarray, v: np.ndarray,
                  rows: np.ndarray, grad: np.ndarray, t: int, *, lr: float,
                  beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> None:
    """Adam step ``t`` on ``rows`` only, gathered and scattered by index:
    the lazy per-row arithmetic, in place on ``param``, ``m`` and ``v``."""
    m[rows] = beta1 * m[rows] + (1.0 - beta1) * grad
    v[rows] = beta2 * v[rows] + (1.0 - beta2) * grad * grad
    step = lr * (m[rows] / (1.0 - beta1 ** t)) \
        / (np.sqrt(v[rows] / (1.0 - beta2 ** t)) + eps)
    param[rows] = param[rows] - step.astype(param.dtype)


def adam_dense_step(param: np.ndarray, m: np.ndarray, v: np.ndarray,
                    grad: np.ndarray, t: int, *, lr: float,
                    beta1: float = 0.9, beta2: float = 0.999,
                    eps: float = 1e-8) -> None:
    """Adam step ``t`` on the whole table, out of place: each moment
    rebuilt from fresh temporaries."""
    bias1, bias2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    m[...] = beta1 * m + (1.0 - beta1) * grad
    v[...] = beta2 * v + (1.0 - beta2) * grad * grad
    param -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def adam_step_oracle(params: dict, moments: dict, grads: dict, t: int, *,
                     lr: float) -> None:
    """``Adam.step`` over ``(rows, grad)`` pairs with the formulas above:
    ``adam_dense_step`` where the rows cover the table, else
    ``adam_row_step``; ``moments`` maps a name to its ``(m, v)``."""
    for name, (rows, grad) in grads.items():
        param, (m, v) = params[name], moments[name]
        grad = grad.astype(param.dtype)
        if rows.size == param.shape[0]:
            adam_dense_step(param, m, v, grad, t, lr=lr)
        else:
            adam_row_step(param, m, v, rows, grad, t, lr=lr)


def csr_graph(graph):
    """``graph`` with its adjacency in CSR."""
    return dataclasses.replace(graph, adjacency=graph.adjacency.tocsr())


def per_entry_grads(user_vals, item_vals, graph, users, pos_items,
                    neg_items, weight, *, row_dtype=np.float64,
                    back: bool = True):
    """``backbone.domain_forward_backward`` the per-entry way, over whole
    tables: scores in the table dtype (propagated over ``graph`` if given),
    then one gradient row per score for its user and one for its item,
    the score's gradient times the other side's vector in ``row_dtype``,
    added into float64 tables by ``np.add.at`` in batch order, positives
    first. With a graph the sums are cast to the table dtype and
    propagated back, unless ``back`` is false. Returns the loss and the
    user and item gradients."""
    if graph is None:
        user_final, item_final = user_vals, item_vals
    else:
        user_final, item_final = propagate(graph, user_vals, item_vals)
    u_vecs = user_final[users]
    pos_vecs, neg_vecs = item_final[pos_items], item_final[neg_items]
    loss, d_pos, d_neg = bce_loss(row_dots(u_vecs, pos_vecs),
                                  row_dots(u_vecs, neg_vecs))
    d_scores = (weight * np.concatenate([d_pos, d_neg]))[:, None]
    d_user = np.zeros(user_final.shape)
    d_item = np.zeros(item_final.shape)
    np.add.at(d_user, np.concatenate([users, users]), d_scores.astype(
        row_dtype) * np.concatenate([pos_vecs, neg_vecs]).astype(row_dtype))
    np.add.at(d_item, np.concatenate([pos_items, neg_items]),
              d_scores.astype(row_dtype)
              * np.concatenate([u_vecs, u_vecs]).astype(row_dtype))
    if graph is not None and back:
        d_user, d_item = propagate(graph, d_user.astype(user_vals.dtype),
                                   d_item.astype(item_vals.dtype))
    return loss, d_user, d_item


def lightgcn_transfer_oracle(model, src_users, src_pos, src_neg, tgt_users,
                             tgt_pos, tgt_neg, pairs):
    """``trainer.transfer_forward_backward`` for a LightGCN ``CutModel``,
    row-indexed: ``per_entry_grads`` for both domains over whole tables,
    the contrastive gradient added at the pair users' rows, and every
    part as ``np.arange`` rows merged by ``full_table_grads``. Returns the
    target, source and contrastive losses and the gradients."""
    config, params = model.config, model.params()
    l_source, d_user, d_item = per_entry_grads(
        model.source_users, params[ROLE_ITEM_SOURCE],
        model.graph_source, src_users, src_pos, src_neg, config.alpha)
    row_parts = {
        ROLE_USER: [(np.arange(len(d_user)) + model.source_offset, d_user)],
        ROLE_ITEM_SOURCE: [(np.arange(len(d_item)), d_item)]}
    base = model.target_users
    transformed = model.apply_transform(base)
    l_target, d_transformed, d_item = per_entry_grads(
        transformed, params[ROLE_ITEM_TARGET],
        model.graph_target, tgt_users, tgt_pos, tgt_neg,
        1.0 - config.alpha)
    row_parts[ROLE_ITEM_TARGET] = [(np.arange(len(d_item)), d_item)]
    d_transformed = d_transformed.astype(np.float64)
    l_contrastive = 0.0
    if pairs is not None and pairs.n_similar > 0:
        l_contrastive, d_pairs = contrastive_loss(
            transformed[pairs.users], pairs, config.temperature)
        d_transformed[pairs.users] += config.contrastive_weight * d_pairs
    if not config.no_transform:
        every = np.arange(base.shape[1])
        row_parts["transform-weight"] = [(every, d_transformed.T @ base)]
        row_parts["transform-bias"] = [(every, d_transformed.sum(axis=0))]
        d_transformed = d_transformed @ params["transform-weight"]
    row_parts[ROLE_USER].append((np.arange(len(base)), d_transformed))
    return ((l_target, l_source, l_contrastive),
            full_table_grads(params, row_parts))


def dense_propagation_oracle(adjacency_dense: np.ndarray, base: np.ndarray,
                             k_layers: int) -> np.ndarray:
    """Mean over matrix powers 0..K, computed with dense matrix products."""
    acc = base.astype(np.float64).copy()
    current = base.astype(np.float64)
    power = np.eye(adjacency_dense.shape[0])
    for _ in range(k_layers):
        power = adjacency_dense @ power
        current = power @ base
        acc += current
    return acc / (k_layers + 1)


def brute_force_contrastive(vectors: np.ndarray, similar_pairs, all_pairs,
                            tau: float) -> float:
    """Literal evaluation of the batch regulariser via python loops."""
    if not similar_pairs:
        return 0.0
    denom = sum(math.exp(float(np.dot(vectors[x], vectors[y])) / tau)
                for x, y in all_pairs)
    total = 0.0
    for i, j in similar_pairs:
        numer = len(all_pairs) * math.exp(
            float(np.dot(vectors[i], vectors[j])) / tau)
        total += math.log(numer / denom)
    return -total / len(similar_pairs)


def brute_force_k_core(records, min_count: int):
    """Repeated count-and-filter over plain tuples until stable."""
    current = list(records)
    changed = True
    while changed:
        users = {}
        items = {}
        for u, i, _ in current:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        nxt = [r for r in current
               if users[r[0]] >= min_count and items[r[1]] >= min_count]
        changed = len(nxt) != len(current)
        current = nxt
    return current


def full_sort_topk(scores: np.ndarray, mask, k: int) -> list[int]:
    """Rank every item by (score desc, index asc) and keep the unmasked
    prefix of length k."""
    masked = set(int(i) for i in mask) if mask is not None else set()
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    kept = [i for i in order if i not in masked]
    return kept[:k]


def recall_at_k(topk, test_items, k: int = 10) -> float:
    test = set(int(i) for i in test_items)
    hits = sum(1 for item in list(topk)[:k] if int(item) in test)
    return hits / len(test)


def hr_at_k(topk, test_items, k: int = 10) -> int:
    test = set(int(i) for i in test_items)
    return int(any(int(item) in test for item in list(topk)[:k]))


def ndcg_at_k(topk, test_items, k: int = 10) -> float:
    test = set(int(i) for i in test_items)
    dcg = sum(1.0 / math.log2(rank + 1)
              for rank, item in enumerate(list(topk)[:k], start=1)
              if int(item) in test)
    idcg = sum(1.0 / math.log2(rank + 1)
               for rank in range(1, min(k, len(test)) + 1))
    return dcg / idcg


def per_user_metrics(table: np.ndarray, split, k: int, part: str = "test",
                     mask_seen: bool = True) -> tuple[dict, dict]:
    """Means and stds of Recall, HR and NDCG@k over the users with
    held-out items, one user at a time: ``full_sort_topk`` of the user's
    row of ``table`` with their seen items masked, then the per-user
    formulas above."""
    held = split.test if part == "test" else split.valid
    seen = (split.train, split.valid) if part == "test" else (split.train,)
    values = {"recall": [], "hr": [], "ndcg": []}
    for user in range(held.n_users):
        test_items = held.rows[user]
        if test_items.size == 0:
            continue
        mask = ({int(i) for p in seen for i in p.rows[user]}
                if mask_seen else None)
        topk = full_sort_topk(table[user], mask, k)
        values["recall"].append(recall_at_k(topk, test_items, k))
        values["hr"].append(hr_at_k(topk, test_items, k))
        values["ndcg"].append(ndcg_at_k(topk, test_items, k))
    return ({name: float(np.mean(v)) for name, v in values.items()},
            {name: float(np.std(v)) for name, v in values.items()})


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors in float64; a zero vector has cosine 0 to
    anything."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a, norm_b = math.sqrt(float(a @ a)), math.sqrt(float(b @ b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(a @ b) / (norm_a * norm_b)


def pair_cosines(representations: np.ndarray) -> np.ndarray:
    """Every pair's ``cosine``, one pair at a time; the diagonal is NaN."""
    n = len(representations)
    out = np.full((n, n), np.nan)
    for p in range(n):
        for q in range(n):
            if p != q:
                out[p, q] = cosine(representations[p], representations[q])
    return out


def materialised_similarity(representations: np.ndarray, gamma: float,
                            users=None) -> np.ndarray:
    """Boolean u-by-u similar-pair matrix over ``users`` (default: all
    rows) by per-pair cosine strictly above ``gamma``; diagonal False."""
    users = np.arange(len(representations)) if users is None else users
    return pair_cosines(np.asarray(representations)[users]) > gamma


def interaction_set(rows, n_items: int) -> InteractionSet:
    """An interaction set whose user ``u`` has the items ``rows[u]``."""
    users = [user for user, row in enumerate(rows) for _ in row]
    items = [int(item) for row in rows for item in row]
    return InteractionSet.from_pairs(len(rows), n_items, users, items)


def naive_rows(n_users: int, pairs) -> list[list[int]]:
    """Each user's distinct items, sorted, from (user, item) pairs."""
    return [sorted({item for u, item in pairs if u == user})
            for user in range(n_users)]


def raw_interactions(records, domain=DomainId.TARGET) -> RawInteractions:
    """The interactions of (user, item, timestamp-or-None) ``records``,
    whose (user, item) pairs are distinct, as rows in the same order."""
    users = {tok: idx for idx, tok in
             enumerate(dict.fromkeys(r[0] for r in records))}
    items = {tok: idx for idx, tok in
             enumerate(dict.fromkeys(r[1] for r in records))}
    return RawInteractions.from_codes(
        domain, list(users), [users[r[0]] for r in records],
        list(items), [items[r[1]] for r in records],
        [NO_TIME if r[2] is None else r[2] for r in records])


def load_records(path) -> tuple:
    """``load_interactions`` one line at a time: the sorted (user, item,
    timestamp-or-None) records of a TSV file, each pair once with its
    earliest known timestamp, or the ``ParseError`` of its first bad
    line. A file that is not all UTF-8 fails at the line of its first bad
    byte, before any line is parsed."""
    best = {}
    # Bytes that are not UTF-8 come through as lone surrogates, so each
    # line's own bytes can be checked.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        lines = [line.rstrip("\r\n") for line in handle]
    for line_no, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(path, line_no, "invalid UTF-8 at byte "
                             f"{err.start + 1}") from None
    for line_no, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ParseError(
                path, line_no,
                f"expected 2 or 3 tab-separated fields, got {len(parts)}")
        user, item = parts[0], parts[1]
        if not user or not item:
            raise ParseError(path, line_no, "empty user or item token")
        ts = None
        if len(parts) == 3:
            try:
                ts = int(parts[2])
            except ValueError:
                raise ParseError(
                    path, line_no,
                    f"invalid timestamp {parts[2]!r}") from None
            if not NO_TIME < ts <= 2**63 - 1:
                raise ParseError(path, line_no,
                                 f"timestamp {ts} outside (-2**63, 2**63)")
        key = (user, item)
        if key in best:
            prev = best[key]
            if ts is not None and (prev is None or ts < prev):
                best[key] = ts
        else:
            best[key] = ts
    if not best:
        raise ParseError(path, None, "file contains no interaction records")
    return tuple(sorted((u, i, t) for (u, i), t in best.items()))


def cross_domain_from_records(source, target) -> CrossDomainDataset:
    """``build_cross_domain`` over record lists, by token dictionaries:
    target-only, overlap and source-only users, each group sorted."""
    source_users = {r[0] for r in source}
    target_users = {r[0] for r in target}
    overlap = sorted(source_users & target_users)
    target_only = sorted(target_users - source_users)
    source_only = sorted(source_users - target_users)
    user_tokens = tuple(target_only + overlap + source_only)
    user_index = {tok: idx for idx, tok in enumerate(user_tokens)}

    def domain_set(records, first_user, n_users):
        item_tokens = tuple(sorted({r[1] for r in records}))
        item_index = {tok: idx for idx, tok in enumerate(item_tokens)}
        return item_tokens, InteractionSet.from_pairs(
            n_users, len(item_tokens),
            [user_index[r[0]] - first_user for r in records],
            [item_index[r[1]] for r in records],
            [NO_TIME if r[2] is None else r[2] for r in records])

    source_items, source_set = domain_set(
        source, len(target_only), len(overlap) + len(source_only))
    target_items, target_set = domain_set(
        target, 0, len(target_only) + len(overlap))
    return CrossDomainDataset(source_set, target_set, user_tokens,
                              source_items, target_items)


def split_counts(n: int, ratios) -> list[int]:
    """Floor proportions with remainder to train; each positive eval part
    gets at least one interaction when the user can afford it."""
    total = float(sum(ratios))
    counts = [math.floor(n * r / total) for r in ratios]
    eval_parts = [i for i in range(1, len(ratios)) if ratios[i] > 0]
    if n >= 1 + len(eval_parts):
        for i in eval_parts:
            counts[i] = max(counts[i], 1)
    counts[0] = n - sum(counts[1:])
    return counts


def split_per_user(inter: InteractionSet, ratios, seed: int) -> list:
    """The split of ``corpus._split_interactions`` one user at a time:
    ``[train, valid, test]``."""
    rng = np.random.default_rng(seed)
    part = np.empty(inter.n_interactions, dtype=np.int64)
    labels = np.arange(len(ratios))
    bounds = inter.indptr.tolist()
    for user, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if inter.timed[user]:
            order = np.argsort(inter.times[start:stop], kind="stable")
        else:
            order = rng.permutation(stop - start)
        part[start + order] = np.repeat(labels,
                                        split_counts(stop - start, ratios))
    return [InteractionSet.from_pairs(inter.n_users, inter.n_items,
                                      inter.users[part == p],
                                      inter.indices[part == p])
            for p in range(3)]


def rewrite_arrays(path, edit) -> None:
    """Let ``edit(header, arrays)`` change the header and the arrays of
    the ``write_arrays`` file at ``path`` in place, and write them back."""
    header, arrays = read_arrays(path)
    edit(header, arrays)
    write_arrays(path, header, arrays)


def traced_peak(fn, *args) -> int:
    """The peak bytes that ``tracemalloc`` traces during ``fn(*args)``,
    above what was traced when the call began. NumPy reports its buffers
    there, so the figure does not depend on the allocator."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
