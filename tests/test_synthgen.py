import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutrec import evaluation, synthgen
from cutrec.corpus import DomainId, build_cross_domain
from cutrec.synthgen import SynthConfig, generate

from helpers import argsort_top_k_interactions, traced_peak


def base_config(**overrides):
    params = dict(n_users=60, n_items_per_domain=50, latent_dim=6,
                  overlap_fraction=1.0, distortion=0.0,
                  interactions_per_user=10, seed=0)
    params.update(overrides)
    return SynthConfig(**params)


def records_by_user(raw):
    out = {}
    for user, item, _ in raw.records:
        out.setdefault(user, set()).add(item)
    return out


def history_vector(items, n_items, prefix):
    vec = np.zeros(n_items)
    for item in items:
        vec[int(item[len(prefix):])] = 1.0
    return vec


def mean_history_cosine(cfg):
    source, target, meta = generate(cfg)
    src = records_by_user(source)
    tgt = records_by_user(target)
    sims = []
    for token in meta.overlap_tokens:
        a = history_vector(src[token], cfg.n_items_per_domain, "s")
        b = history_vector(tgt[token], cfg.n_items_per_domain, "t")
        sims.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    return float(np.mean(sims))


def test_zero_distortion_identical_rankings_with_shared_items():
    cfg = base_config(share_item_factors=True, score_noise=0.0)
    source, target, _ = generate(cfg)
    src = records_by_user(source)
    tgt = records_by_user(target)
    for token, items in src.items():
        expected = {f"t{item[1:]}" for item in items}
        assert tgt[token] == expected


def test_full_distortion_decorrelates_scores():
    # Over many seeds, the correlation between an overlapping user's
    # source and target score vectors (same item factors) centres on 0.
    corrs = []
    for seed in range(100):
        cfg = base_config(n_users=4, distortion=1.0, share_item_factors=True,
                          seed=seed, score_noise=0.0)
        _, _, meta = generate(cfg)
        rng = np.random.default_rng(seed + 10_000)
        items = rng.normal(size=(cfg.n_items_per_domain, cfg.latent_dim))
        for idx in range(cfg.n_users):
            s = meta.source_factors[idx] @ items.T
            t = meta.target_factors[idx] @ items.T
            corrs.append(np.corrcoef(s, t)[0, 1])
    assert abs(float(np.mean(corrs))) < 0.05


def test_overlap_fraction_exact_count():
    cfg = base_config(n_users=100, overlap_fraction=0.5)
    source, target, meta = generate(cfg)
    assert len(meta.overlap_tokens) == 50
    shared = set(records_by_user(source)) & set(records_by_user(target))
    assert shared == set(meta.overlap_tokens)


def test_history_similarity_non_increasing_in_distortion():
    for seed in range(5):
        values = [mean_history_cosine(base_config(
            distortion=d, share_item_factors=True, seed=seed))
            for d in (0.0, 0.5, 1.0)]
        assert values[0] >= values[1] >= values[2], values


def test_deterministic_under_seed():
    cfg = base_config(n_clusters=5, distortion=0.3)
    a_source, a_target, _ = generate(cfg)
    b_source, b_target, _ = generate(cfg)
    assert a_source.records == b_source.records
    assert a_target.records == b_target.records


def test_zero_distortion_factors_equal_exactly():
    cfg = base_config(n_clusters=4, overlap_fraction=0.6)
    _, _, meta = generate(cfg)
    n_overlap = len(meta.overlap_tokens)
    assert np.array_equal(meta.source_factors[:n_overlap],
                          meta.target_factors[:n_overlap])


def test_output_feeds_corpus_pipeline():
    cfg = base_config(overlap_fraction=0.5)
    source, target, _ = generate(cfg)
    ds = build_cross_domain(source, target)
    assert ds.n_overlap == 30
    assert source.domain_id == DomainId.SOURCE
    assert target.domain_id == DomainId.TARGET


def test_validation_errors():
    with pytest.raises(ValueError):
        base_config(distortion=1.5)
    with pytest.raises(ValueError):
        base_config(interactions_per_user=51)
    with pytest.raises(ValueError):
        base_config(n_users=0)


def log_bytes(raws) -> list:
    """The token tables and the column bytes of interaction logs."""
    return [(raw.domain_id, raw.user_tokens, raw.item_tokens,
             *(col.dtype.str + col.tobytes().hex()
               for col in (raw.users, raw.items, raw.times)))
            for raw in raws]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generate_matches_whole_matrix_argsort_oracle(data):
    # Clustered or not, noisy or noiseless with shared item factors (where
    # an overlap user's two domains score alike at distortion 0), up to the
    # whole catalogue a user, and blocks of one row to all rows.
    n_items = data.draw(st.integers(1, 40))
    noiseless = data.draw(st.booleans())
    cfg = SynthConfig(
        n_users=data.draw(st.integers(1, 30)), n_items_per_domain=n_items,
        latent_dim=data.draw(st.integers(1, 6)),
        overlap_fraction=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
        distortion=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        interactions_per_user=data.draw(st.sampled_from(
            [1, max(1, n_items // 2), n_items])),
        seed=data.draw(st.integers(0, 2**32 - 1)),
        n_clusters=data.draw(st.sampled_from([0, 3])),
        score_noise=0.0 if noiseless else 0.05,
        share_item_factors=noiseless or data.draw(st.booleans()))
    entries = data.draw(st.sampled_from([1, 3 * n_items, 1 << 18]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "BLOCK_ENTRIES", entries)
        got = log_bytes(generate(cfg)[:2])
        patch.setattr(synthgen, "_top_k_interactions",
                      argsort_top_k_interactions)
        assert got == log_bytes(generate(cfg)[:2]), (cfg, entries)


def test_generate_holds_one_block_of_scores_at_a_time():
    # The medium shape: the whole-matrix generator traced 161 MiB here, and
    # one users x items float64 array of the target domain alone is 41.6 MB.
    cfg = SynthConfig(n_users=4000, n_items_per_domain=2000, latent_dim=16,
                      overlap_fraction=0.3, distortion=0.5,
                      interactions_per_user=30, seed=5)
    assert traced_peak(generate, cfg) < 16_000_000
