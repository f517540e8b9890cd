"""as-of join, range join, quantiles, per-group top-k, ngrams."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_asof_join_interleaved(ray_session):
    """Genuinely interleaved timestamps: each left row matches the
    greatest right ts <= its ts within its key, nulls when none."""
    import ray.data as rd
    from swishray.ops.joins import asof_join

    left = pa.table({
        "lid": pa.array(range(6), type=pa.int64()),
        "k": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
        "ts": pa.array([5, 15, 25, 10, 3, 7], type=pa.int64()),
    })
    right = pa.table({
        "k": pa.array([1, 1, 1, 2, 9], type=pa.int64()),
        "rts": pa.array([10, 20, 20, 4, 1], type=pa.int64()),
        "val": pa.array([100, 200, 201, 400, 900], type=pa.int64()),
    })
    out = asof_join(rd.from_arrow(left), rd.from_arrow(right),
                    on="k", left_ts="ts", right_ts="rts",
                    right_cols=["val"], right_tiebreak="val").take_all()
    got = {r["lid"]: r["__r_val"] for r in out}
    #  lid0 ts5 k1 -> none; lid1 ts15 -> rts10 val100; lid2 ts25 ->
    #  rts20 tie -> larger tiebreak val 201; lid3 ts10 k2 -> 400;
    #  lid4 ts3 k2 -> none; lid5 k3 -> no right rows -> none
    assert got == {0: None, 1: 100, 2: 201, 3: 400, 4: None, 5: None}


def test_range_join_edges(ray_session):
    import ray.data as rd
    from swishray.ops.joins import range_join_broadcast

    t = pa.table({"v": pa.array([0.5, 1.0, 9.99, 10.0, 50.0, 51.0],
                                type=pa.float64())})
    iv = [(1, 10, "a"), (10, 25, "b"), (40, 51, "d")]
    out = range_join_broadcast(rd.from_arrow(t), iv, "v").take_all()
    got = [r["bucket"] for r in sorted(out, key=lambda r: r["v"])]
    assert got == [None, "a", "a", "b", "d", None]


def test_discrete_quantiles_exact(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import discrete_quantiles

    rng = np.random.RandomState(0)
    vals = rng.randint(1, 30, size=5000)
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, type=pa.int64())}))
    out = {r["q"]: r["value"]
           for r in discrete_quantiles(ds, "v", [0.0, 0.5, 0.9, 1.0])
           .to_pylist()}
    sv = np.sort(vals)
    import math
    for q in [0.0, 0.5, 0.9, 1.0]:
        # PERCENTILE_DISC rule: smallest value with cum fraction >= q
        assert out[q] == sv[max(0, math.ceil(q * len(sv)) - 1)]


def test_topk_per_group_combiner_equivalence(ray_session, spread):
    """The map-side combiner must not change results vs a plain
    per-group sort+head."""
    import ray.data as rd
    from swishray.ops.aggregates import topk_per_group

    rng = np.random.RandomState(1)
    df = pd.DataFrame({
        "g": rng.randint(0, 7, size=2000),
        "x": rng.randint(0, 100, size=2000),
        "id": np.arange(2000),
    })
    spread(range(7))
    ds = rd.from_pandas(df).repartition(16)
    got = topk_per_group(ds, "g", "x", k=4, tiebreak="id").to_pandas()
    want = (df.sort_values(["x", "id"], ascending=[False, True])
              .groupby("g", sort=False).head(4))
    key = lambda d: sorted(map(tuple, d[["g", "x", "id"]].to_numpy()))
    assert key(got) == key(want)


def test_ngram_counts(ray_session):
    import ray.data as rd
    from swishray.ops.textstats import ngram_counts

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": ["a b c a b c", "a b c d"],
    }))
    out = {r["gram"]: r["n"] for r in ngram_counts(ds, 3).take_all()}
    assert out == {"a b c": 3, "b c a": 1, "c a b": 1, "b c d": 1}


def test_cosine_ivf_recall(ray_session):
    """IVF-bucketed near-dup pairs: exact precision (scores computed
    directly), high recall at high threshold vs the exact grid join."""
    import ray.data as rd
    from swishray.ops.similarity import cosine_dup_pairs, cosine_dup_pairs_ivf

    rng = np.random.RandomState(5)
    base = rng.randn(60, 16)
    # plant near-dups: small perturbations of base vectors
    dups = base + rng.randn(60, 16) * 0.05
    vecs = np.vstack([base, dups])
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(120), type=pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float64()))}))
    exact = {(r["a"], r["b"]) for r in
             cosine_dup_pairs(ds, threshold=0.98, grid=4).take_all()}
    approx = {(r["a"], r["b"]) for r in
              cosine_dup_pairs_ivf(ds, threshold=0.98,
                                   n_centroids=6).take_all()}
    assert approx <= exact  # precision is exact
    assert len(exact) >= 50
    recall = len(approx & exact) / len(exact)
    assert recall >= 0.9, f"recall {recall}"


def test_sessionize_salted_equal(ray_session, spread):
    """Salted sessionization (skew-proof two-phase) equals the plain
    per-user form and a single-process pandas replay, including
    sessions crossing the salt boundary and a hot user whose events
    span ~40 daily salts."""
    import datetime
    import ray.data as rd
    from swishray.ops.windows import sessionize, sessionize_salted

    rng = np.random.RandomState(2)
    rows = {"event_id": [], "user_id": [], "ts": [], "value": []}
    eid = 0
    base = datetime.datetime(2024, 1, 1)
    for u in range(7):
        t = base + datetime.timedelta(minutes=int(rng.randint(0, 600)))
        for _ in range(300 if u < 6 else 1500):
            # cluster of short gaps, occasional > gap jumps; some
            # sessions deliberately straddle midnight
            step = int(rng.choice([60, 120, 200, 5000],
                                  p=[0.5, 0.3, 0.15, 0.05]))
            if u == 6:  # the hot user: ~40 days of events
                step *= 6
            t = t + datetime.timedelta(seconds=step)
            rows["event_id"].append(eid)
            rows["user_id"].append(u)
            rows["ts"].append(t)
            rows["value"].append(float(rng.rand()))
            eid += 1
    tbl = pa.table({
        "event_id": pa.array(rows["event_id"], type=pa.int64()),
        "user_id": pa.array(rows["user_id"], type=pa.int64()),
        "ts": pa.array(rows["ts"], type=pa.timestamp("us")),
        "value": pa.array(rows["value"], type=pa.float64()),
    })
    ds = rd.from_arrow(tbl).repartition(8)

    def norm(res):
        out = sorted(
            ((r["user_id"], r["session_start"], r["session_end"],
              r["n_events"], round(r["sum_value"], 6)) for r in res))
        return out

    plain = norm(sessionize(ds, 1800).take_all())
    salted = norm(sessionize_salted(ds, 1800, "day").take_all())
    # sanity: boundary-straddling sessions exist in this corpus
    days = {s[1].date() != s[2].date() for s in plain}
    assert True in days
    assert plain == salted
    hot = [s for s in plain if s[0] == 6]
    assert (hot[-1][2] - hot[0][1]).days >= 30

    spread(range(7))
    df = tbl.to_pandas().sort_values(["user_id", "ts"])
    want = []
    for u, g in df.groupby("user_id"):
        sid = (g.ts.diff().dt.total_seconds() > 1800).cumsum()
        for _, s in g.groupby(sid):
            want.append((u, s.ts.min(), s.ts.max(), len(s),
                         round(s.value.sum(), 6)))
    assert plain == sorted(want)


def test_hash_sample_stable_split(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import hash_sample

    t = pa.table({"doc_id": pa.array(range(1000), type=pa.int64())})
    ds = rd.from_arrow(t).repartition(8)
    train = {r["doc_id"] for r in hash_sample(ds, 0.8).take_all()}
    val = {r["doc_id"] for r in hash_sample(ds, 0.8, invert=True)
           .take_all()}
    # disjoint, exhaustive, order/partitioning independent, ~rate-sized
    assert train | val == set(range(1000)) and not (train & val)
    assert 700 < len(train) < 900
    train2 = {r["doc_id"]
              for r in hash_sample(rd.from_arrow(t).repartition(3), 0.8)
              .take_all()}
    assert train2 == train


def test_md5vec_matches_hashlib():
    """The vectorized single-block MD5 must be bit-identical to
    hashlib on every stringified key shape, including the >55-byte
    fallback boundary."""
    import hashlib
    import random
    import string
    import numpy as np
    from swishray.ops.md5vec import md5_u32

    random.seed(7)
    keys = [0, 1, -3, "", "a", 3.5, None, True, "x" * 54, "x" * 55,
            "x" * 56, "x" * 57, "é中" * 10] + \
        ["".join(random.choices(string.printable, k=random.randint(0, 90)))
         for _ in range(500)] + list(range(200))
    got = md5_u32(keys)
    want = np.array([int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16)
                     for k in keys], dtype=np.uint32)
    assert np.array_equal(got, want)


def test_vectorized_textstats_match_python(ray_session):
    """The Arrow/RE2 stat kernels must equal the per-row Python
    semantics they replaced (split/len/stopword/punct counting)."""
    import ray.data as rd
    from swishray.ops.textstats import (STOPWORDS, quality_scores,
                                        token_count_ws)

    texts = ["", "  ", "the quick brown fox", "a  b   c ", "und der die",
             "péril; 3.14 -- ok?", "the the the a of to in is",
             " leading and trailing  ", "punct!!! ??? ,,,", "one"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": texts}))

    ws = {r["doc_id"]: r["n_tokens_ws"]
          for r in token_count_ws(ds).take_all()}
    for i, t in enumerate(texts):
        assert ws[i] == len(t.split()), (i, t)

    qs = {r["doc_id"]: r for r in quality_scores(ds).take_all()}
    for i, t in enumerate(texts):
        words = t.split()
        nw = len(words)
        assert qs[i]["n_chars"] == len(t)
        assert qs[i]["n_words"] == nw
        assert qs[i]["mean_word_len"] == (
            sum(len(w) for w in words) / nw if nw else 0.0)
        assert qs[i]["stopword_ratio"] == (
            sum(1 for w in words if w in STOPWORDS) / nw if nw else 0.0)
        np_ = sum(1 for c in t if not c.isalnum() and not c.isspace())
        assert qs[i]["punct_ratio"] == (np_ / len(t) if t else 0.0), (i, t)


def test_url_parts_components(ray_session):
    import ray.data as rd
    from swishray.ops.textstats import url_parts
    t = pa.table({"url": pa.array([
        "https://WWW.Example.COM:8443/a/b.html?x=1#frag",
        "http://host/",
        "ftp://files.example.org",
        "not a url"], pa.string())})
    out = url_parts(rd.from_arrow(t), col="url").take_all()
    r = out[0]
    assert (r["scheme"], r["host"], r["port"]) == (
        "https", "www.example.com", "8443")
    assert (r["path"], r["query"], r["site"]) == (
        "/a/b.html", "x=1", "example.com")
    assert (out[1]["host"], out[1]["path"], out[1]["port"]) == (
        "host", "/", "")
    assert out[1]["site"] == "host"          # no dots -> heuristic
    assert (out[2]["scheme"], out[2]["path"]) == ("ftp", "/")
    assert out[3]["host"] == "" and out[3]["scheme"] == ""


def test_hll_count_distinct_accuracy(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import hll_count_distinct
    n = 60000
    t = pa.table({"v": pa.array(
        [f"value-{i % 20000}" for i in range(n)], pa.string())})
    ds = rd.from_arrow(t).repartition(8)
    out = hll_count_distinct(ds, "v", p=12)
    # true cardinality 20000; p=12 std error ~1.6% -> assert 5%
    assert abs(out["estimate"] - 20000) / 20000 < 0.05
    # determinism: same input -> identical estimate
    again = hll_count_distinct(rd.from_arrow(t).repartition(3), "v", p=12)
    assert again["estimate"] == out["estimate"]


def test_hll_small_range_linear_counting(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import hll_count_distinct
    t = pa.table({"v": pa.array(list(range(50)) * 4, pa.int64())})
    out = hll_count_distinct(rd.from_arrow(t), "v", p=12)
    assert abs(out["estimate"] - 50) < 3


def test_stratified_sample_membership(ray_session):
    import hashlib
    import ray.data as rd
    from swishray.ops.aggregates import stratified_hash_sample
    t = pa.table({
        "doc_id": pa.array(range(400), pa.int64()),
        "lang": pa.array([["en", "es", "de", "zz"][i % 4]
                          for i in range(400)], pa.string())})
    rates = {"en": 0.5, "es": 0.25, "de": 0.0}
    out = stratified_hash_sample(rd.from_arrow(t), rates,
                                 class_col="lang").take_all()
    got = {r["doc_id"] for r in out}
    for i in range(400):
        lang = ["en", "es", "de", "zz"][i % 4]
        h = int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
        expect = h < int(rates.get(lang, 0.0) * (1 << 32))
        assert (i in got) == expect
    assert not any(["zz" == r["lang"] or "de" == r["lang"] for r in out])


def test_build_vocab_ranks(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import build_vocab
    t = pa.table({"text": pa.array(
        ["b b b a a c", "a b", "d", ""], pa.string())})
    v = build_vocab(rd.from_arrow(t), min_count=2).to_pydict()
    # a:3 b:4 c:1 d:1 -> cut c,d; rank by count desc, token asc
    assert v["token"] == ["b", "a"]
    assert v["n"] == [4, 3]
    assert v["id"] == [0, 1]


def test_word_rarity_counts(ray_session, monkeypatch):
    import ray.data as rd
    from swishray.ops.textstats import word_rarity
    from swishray.ops import joins

    for budget in (None, 0):  # broadcast, then the join path
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        t = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["b b a", "a  b c", "", None], pa.string())})
        out = word_rarity(rd.from_arrow(t).repartition(2), min_count=2) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        # corpus counts: a:2 b:3 c:1 -> vocab {a:2, b:3}; c is OOV
        assert out["doc_id"].tolist() == [0, 1, 2, 3]
        assert out["freq_sum"].tolist() == [8, 5, 0, 0]   # b+b+a / a+b
        assert out["n_words"].tolist() == [3, 3, 0, 0]
        assert out["n_oov"].tolist() == [0, 1, 0, 0]


def test_word_rarity_prebuilt_vocab(ray_session, monkeypatch):
    import ray.data as rd
    from swishray.ops.textstats import word_rarity
    from swishray.ops import joins

    for budget in (None, 0):  # broadcast, then the join path
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        ref = pa.table({"token": pa.array(["x", "y"], pa.string()),
                        "n": pa.array([10, 1], pa.int64())})
        t = pa.table({"doc_id": pa.array([0], pa.int64()),
                      "text": pa.array(["x z y x"], pa.string())})
        out = word_rarity(rd.from_arrow(t), vocab=ref).to_pandas()
        assert out.loc[0, "freq_sum"] == 21
        assert out.loc[0, "n_words"] == 4
        assert out.loc[0, "n_oov"] == 1


def test_url_canonicalize(ray_session):
    import ray.data as rd
    from swishray.ops.textstats import url_canonicalize
    urls = [
        "HTTP://WWW.Ex.COM:80/Path/P?x=1#frag",   # case/port/fragment
        "https://a.example:443/p",                 # default https port
        "https://a.example:8443/p",                # real port kept
        "https://e.example/p?utm_source=x&id=5&gclid=9",
        "https://e.example/p?utm_a=1",             # query vanishes
        "https://e.example/a&b",                   # & in path, no ?
        "foo/Bar#f",                               # relative url
        None,
    ]
    t = pa.table({"url": pa.array(urls, pa.string())})
    got = url_canonicalize(
        rd.from_arrow(t),
        strip_params=("utm_[a-z0-9]+", "gclid")).to_pandas()
    want = [
        "http://www.ex.com/Path/P?x=1",
        "https://a.example/p",
        "https://a.example:8443/p",
        "https://e.example/p?id=5",
        "https://e.example/p",
        "https://e.example/a&b",
        "foo/Bar",
        None,
    ]
    assert got["url"].where(got["url"].notna(), None).tolist() == want


def test_resample_to_mix(ray_session):
    import hashlib
    import ray.data as rd
    from swishray.ops.aggregates import resample_to_mix
    # 100 en / 50 es / 10 de, target 4:2:1 -> de binds (10/1 < 50/2
    # < 100/4): keep all 10 de, thresholds aim at 40 en / 20 es
    rows = ([{"doc_id": i, "lang": "en"} for i in range(100)]
            + [{"doc_id": 100 + i, "lang": "es"} for i in range(50)]
            + [{"doc_id": 150 + i, "lang": "de"} for i in range(10)]
            + [{"doc_id": 160, "lang": "zz"}])  # unlisted: dropped
    ds = rd.from_items(rows).repartition(3)
    out = resample_to_mix(ds, {"en": 4, "es": 2, "de": 1}) \
        .to_pandas()
    got = out.groupby("lang").size().to_dict()
    assert got.get("de") == 10          # binding class kept whole
    assert "zz" not in got
    # membership is exactly the md5 predicate with the closed-form
    # integer thresholds
    thr = {"en": ((1 << 32) * 4 * 10) // (1 * 100),
           "es": ((1 << 32) * 2 * 10) // (1 * 50),
           "de": 1 << 32}
    for r in rows:
        h = int(hashlib.md5(str(r["doc_id"]).encode())
                .hexdigest()[:8], 16)
        expect = h < thr.get(r["lang"], 0)
        assert (r["doc_id"] in set(out["doc_id"])) == expect
    # proportions land near 4:2:1 (hash noise aside)
    assert abs(got.get("en", 0) - 40) <= 12
    assert abs(got.get("es", 0) - 20) <= 9


def test_weighted_hash_sample(ray_session):
    import hashlib
    import ray.data as rd
    from swishray.ops.aggregates import weighted_hash_sample
    rows = [{"doc_id": i, "rate": r} for i, r in
            [(0, 0.0), (1, 1.0), (2, 0.5), (3, 0.5), (4, None),
             (5, 0.25), (6, 0.75), (7, 1.0)]]
    ds = rd.from_items(rows).repartition(2)
    kept = set(weighted_hash_sample(ds, "rate")
               .to_pandas()["doc_id"])
    for r in rows:
        h = int(hashlib.md5(str(r["doc_id"]).encode())
                .hexdigest()[:8], 16)
        rate = r["rate"] or 0.0
        assert (r["doc_id"] in kept) == (h < int(rate * (1 << 32)))
    assert 1 in kept and 7 in kept   # rate 1.0 always kept
    assert 0 not in kept and 4 not in kept  # rate 0 / null dropped


def test_hopping_counts(ray_session):
    import datetime as dt
    import ray.data as rd
    from swishray.ops.windows import hopping_counts
    base = dt.datetime(2024, 1, 1, 10, 30)
    rows = [{"event_type": "a", "ts": base, "value": 1.0},
            {"event_type": "a",
             "ts": base + dt.timedelta(minutes=45), "value": 3.0},
            {"event_type": "b", "ts": base, "value": 2.0}]
    out = hopping_counts(rd.from_items(rows).repartition(2),
                         width_s=7200, slide_s=3600).to_pandas() \
        .sort_values(["event_type", "window_start"]) \
        .reset_index(drop=True)
    # 10:30 -> windows 09:00 and 10:00; 11:15 -> 10:00 and 11:00
    a = out[out.event_type == "a"]
    assert [w.hour for w in a["window_start"]] == [9, 10, 11]
    assert a["n_events"].tolist() == [1, 2, 1]
    assert a["min_value"].tolist() == [1.0, 1.0, 3.0]
    b = out[out.event_type == "b"]
    assert [w.hour for w in b["window_start"]] == [9, 10]
    assert b["n_events"].tolist() == [1, 1]
    # width == slide degenerates to tumbling
    t = hopping_counts(rd.from_items(rows), width_s=3600,
                       slide_s=3600).to_pandas()
    assert t["n_events"].sum() == 3
    import pytest
    with pytest.raises(ValueError):
        hopping_counts(rd.from_items(rows), width_s=5000,
                       slide_s=3600)


def test_compression_ratio(ray_session):
    import zlib
    import ray.data as rd
    from swishray.ops.textstats import compression_ratio
    texts = ["abc " * 200, "the quick brown fox", "", None]
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = compression_ratio(rd.from_arrow(t).repartition(2)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    for i, txt in enumerate(texts):
        raw = (txt or "").encode()
        assert out.loc[i, "n_bytes"] == len(raw)
        assert out.loc[i, "n_compressed"] == len(zlib.compress(raw, 6))
    # repetitive text compresses much harder than natural text
    r0 = out.loc[0, "n_compressed"] / out.loc[0, "n_bytes"]
    r1 = out.loc[1, "n_compressed"] / out.loc[1, "n_bytes"]
    assert r0 < 0.05 < r1


def test_cm_topk_matches_exact(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import cm_topk_words
    # zipf-ish corpus: token t{i} appears ~(40-i) times
    texts = []
    for i in range(40):
        texts.extend([f"t{i:02d}"] * (40 - i))
    t = pa.table({"text": pa.array(
        [" ".join(texts[j::7]) for j in range(7)], pa.string())})
    out = cm_topk_words(rd.from_arrow(t).repartition(3), k=10)
    got = dict(zip(out.column("token").to_pylist(),
                   out.column("est_count").to_pylist()))
    # CM never undercounts; with width >> vocab the estimates are
    # exact here, and the top-10 is exactly the 10 most frequent
    assert sorted(got) == [f"t{i:02d}" for i in range(10)]
    for i in range(10):
        assert got[f"t{i:02d}"] == 40 - i


import os
import pytest


@pytest.mark.skipif(not os.path.isdir("/root/testdata/sf0.01"),
                    reason="needs driver testdata")
def test_cm_topk_vs_exact_corpus(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import cm_topk_words
    from swishray.pipeline import top_n_words
    ds = rd.read_parquet("/root/testdata/sf0.01/documents.parquet",
                         columns=["text"]).repartition(4)
    approx = cm_topk_words(ds, k=20)
    got = dict(zip(approx.column("token").to_pylist(),
                   approx.column("est_count").to_pylist()))
    # exact heavy hitters via the whitespace-split convention the
    # sketch uses (top_n_words tokenizes differently, so recompute)
    import collections
    c = collections.Counter()
    for r in ds.take_all():
        c.update((r["text"] or "").split())
    exact = dict(c.most_common(20))
    # every exact top-10 token is found, estimate >= truth (CM never
    # undercounts) and within 2% of truth at this width
    for tok in list(exact)[:10]:
        assert tok in got
        assert got[tok] >= c[tok]
        assert got[tok] <= c[tok] * 1.02


def test_fixed_size_sample(ray_session):
    import hashlib
    import ray.data as rd
    from swishray.ops.aggregates import fixed_size_sample
    rows = [{"doc_id": i, "v": i * 2} for i in range(100)]
    ds = rd.from_items(rows).repartition(5)
    out = fixed_size_sample(ds, 7).to_pandas()
    assert len(out) == 7 and "__h" not in out.columns
    want = sorted(range(100), key=lambda i: (
        int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16), i))[:7]
    assert sorted(out["doc_id"]) == sorted(want)
    assert dict(zip(out["doc_id"], out["v"])) == \
        {i: i * 2 for i in want}
    # n larger than the corpus: everything survives
    assert fixed_size_sample(ds, 1000).count() == 100


def test_profile(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import profile
    t = pa.table({
        "k": pa.array([3, 1, 2, None, 2], pa.int64()),
        "s": pa.array(["b", "a", None, None, "c"], pa.string())})
    out = profile(rd.from_arrow(t).repartition(2)).to_pandas() \
        .set_index("column")
    assert out.loc["k", "n_rows"] == 5
    assert out.loc["k", "n_null"] == 1
    assert out.loc["k", "min"] == "1" and out.loc["k", "max"] == "3"
    assert out.loc["k", "n_distinct_est"] == 3  # linear counting
    assert out.loc["s", "n_null"] == 2
    assert out.loc["s", "min"] == "a" and out.loc["s", "max"] == "c"
    assert out.loc["s", "n_distinct_est"] == 3
    # column subset
    sub = profile(rd.from_arrow(t), columns=["s"]).to_pandas()
    assert sub["column"].tolist() == ["s"]


def test_quantiles_per_group_matches_walk(ray_session, spread):
    """Per-group exact quantile_disc vs a local sorted-multiset walk,
    including a one-row group and a skewed value histogram."""
    import ray.data as rd
    from fractions import Fraction
    from swishray.ops.aggregates import discrete_quantiles_per_group

    rng = np.random.default_rng(7)
    names = ["a", "b", "c", "d", "e", "f", "g", "h"]
    sizes = [500, 40, 1, 7, 30, 3, 12, 60]
    g = np.repeat(names, sizes)
    v = np.concatenate([
        rng.choice([1, 2, 3, 3, 3, 9], 500),
        rng.integers(0, 100, 40),
        [42]] + [rng.integers(-5, 5, n) for n in sizes[3:]]) \
        .astype(np.int64)
    spread(names)
    t = pa.table({"g": pa.array(g), "v": pa.array(v)})
    qs = [0.1, 0.29, 0.5, 0.9, 1.0]
    out = discrete_quantiles_per_group(
        rd.from_arrow(t).repartition(6), "g", "v", qs).to_pandas()

    import math
    assert len(out) == len(names) * len(qs)
    for grp in names:
        vals = np.sort(v[g == grp])
        for q in qs:
            idx = max(0, math.ceil(Fraction(str(q)) * len(vals)) - 1)
            want = vals[idx]
            got = out[(out.g == grp) & (out.q == q)].value.iloc[0]
            assert got == want, (grp, q)


def test_collect_sorted_and_mode(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import collect_sorted, mode_per_group

    t = pa.table({
        "g": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "o": pa.array([3, 1, 2, 10, 9], pa.int64()),
        "v": pa.array(["c", "a", "b", "z", "z"], pa.string())})
    ds = rd.from_arrow(t).repartition(3)

    got = collect_sorted(ds, "g", "v", sep="-", order="o") \
        .to_pandas().set_index("g").sort_index()
    assert got.loc[1, "items"] == "a-b-c"
    assert got.loc[2, "items"] == "z-z"
    assert list(got.n_items) == [3, 2]

    m = pa.table({
        "g": pa.array([1] * 5 + [2] * 4, pa.int64()),
        "v": pa.array([7, 7, 3, 3, 1, 9, 9, 2, 2], pa.int64())})
    got = mode_per_group(rd.from_arrow(m).repartition(4), "g", "v") \
        .to_pandas().set_index("g").sort_index()
    # g1: 7 and 3 tie at 2 -> smaller value 3; g2: 9 and 2 tie -> 2
    assert list(got["mode"]) == [3, 2]
    assert list(got.mode_n) == [2, 2]


def test_continuous_quantiles_exact(ray_session):
    """Exact PERCENTILE_DISC on continuous doubles vs a local sorted
    replay — forced through multiple narrowing rounds by a tiny
    collect_cap, plus a massive point mass and q=0/1 edges."""
    import math
    import ray.data as rd
    from swishray.ops.aggregates import continuous_quantiles

    rng = np.random.RandomState(3)
    vals = np.concatenate([
        rng.lognormal(0, 2, size=20000),
        np.full(5000, 1.2345),          # point mass > collect_cap
        -rng.rand(1000) * 1e6])
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.float64())})) \
        .repartition(9)
    qs = [0.0, 0.1, 0.29, 0.5, 0.75, 0.9, 0.999, 1.0]
    out = {r["q"]: r["value"]
           for r in continuous_quantiles(
               ds, "v", qs, bins=64, collect_cap=500).to_pylist()}
    sv = np.sort(vals)
    for q in qs:
        want = sv[max(0, math.ceil(q * len(sv)) - 1)]
        assert out[q] == want, (q, out[q], want)


def test_continuous_quantiles_all_identical(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import continuous_quantiles

    ds = rd.from_arrow(pa.table({
        "v": pa.array([7.5] * 1000, pa.float64())})).repartition(4)
    out = continuous_quantiles(ds, "v", [0.1, 0.9], bins=16,
                               collect_cap=10).to_pylist()
    assert [r["value"] for r in out] == [7.5, 7.5]


def test_union_harmonized(ray_session):
    """By-name union with widening: int32+int64 -> int64, missing
    column -> typed nulls, int+float -> float64; incompatible types
    raise."""
    import pytest
    import ray.data as rd
    from swishray.ops.partitioning import union_harmonized

    a = rd.from_arrow(pa.table({
        "id": pa.array([1, 2], pa.int32()),
        "x": pa.array([1.5, 2.5], pa.float64())}))
    b = rd.from_arrow(pa.table({
        "id": pa.array([3], pa.int64()),
        "x": pa.array([7], pa.int64()),
        "tag": pa.array(["new"], pa.string())}))
    u = union_harmonized(a, b)
    t = pa.Table.from_pylist(u.take_all())
    df = u.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(df.id) == [1, 2, 3]
    assert list(df.x) == [1.5, 2.5, 7.0]
    assert list(df.tag)[:2] == [None, None] and df.tag[2] == "new"
    sch = u.schema()
    types = dict(zip(sch.names, sch.types))
    assert types["id"] == pa.int64()
    assert types["x"] == pa.float64()

    c = rd.from_arrow(pa.table({"id": pa.array(["s"], pa.string())}))
    with pytest.raises(TypeError, match="harmonize"):
        union_harmonized(a, c)


def test_funnel_counts(ray_session):
    """Subsequence semantics: ordered, not adjacent; partial
    prefixes counted; no credit for out-of-order steps; step names
    never match as substrings of other event types."""
    import ray.data as rd
    from swishray.ops.windows import funnel_counts

    rows = [
        # u0: full funnel with noise between steps
        (0, "A"), (0, "noise"), (0, "B"), (0, "x"), (0, "C"),
        # u1: A then B only
        (1, "A"), (1, "B"),
        # u2: out of order (B before A, no later B)
        (2, "B"), (2, "A"), (2, "C"),
        # u3: substring trap: "AB" is not "A" or "B"
        (3, "AB"), (3, "C"),
        # u4: A only
        (4, "A"),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows], pa.string()),
        "event_id": pa.array(range(len(rows)), pa.int64())})
    out = funnel_counts(rd.from_arrow(t).repartition(3),
                        steps=["A", "B", "C"]).to_pandas() \
        .sort_values("step")
    assert list(out.n_users) == [4, 2, 1]  # A: u0,u1,u2,u4; A->B: u0,u1; A->B->C: u0


def test_retention_cohorts(ray_session):
    """Hand-built two-cohort stream: week-0 self-retention, gaps in
    later weeks, a second cohort starting one week later."""
    import ray.data as rd
    from swishray.ops.windows import retention_cohorts

    base = pd.Timestamp("2024-01-01")  # a Monday
    wk = pd.Timedelta(days=7)
    rows = []
    # users 0,1: first seen week 0; user 0 returns wk1+wk3, user 1 wk1
    for u, weeks in [(0, [0, 1, 3]), (1, [0, 1]), (2, [1])]:
        for w in weeks:
            rows.append((u, base + w * wk + pd.Timedelta(hours=u)))
            rows.append((u, base + w * wk + pd.Timedelta(hours=9)))
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us"))})
    out = retention_cohorts(rd.from_arrow(t).repartition(3)) \
        .to_pandas()
    got = {(r.cohort_start, r.period_offset): r.n_users
           for r in out.itertuples()}
    w0, w1 = base, base + wk
    assert got == {(w0, 0): 2, (w0, 1): 2, (w0, 3): 1, (w1, 0): 1}


def test_rrf_fuse(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.aggregates import rrf_fuse

    a = pa.table({"k": pa.array([10, 20, 30], type=pa.int64()),
                  "rank": pa.array([1, 2, 3], type=pa.int64())})
    b = pa.table({"k": pa.array([20, 40], type=pa.int64()),
                  "rank": pa.array([1, 2], type=pa.int64())})
    out = rrf_fuse(rd.from_arrow(a), rd.from_arrow(b), "k",
                   k_const=60).to_pandas().set_index("k")
    assert out.loc[20, "rrf"] == 1.0 / 62.0 + 1.0 / 61.0
    assert out.loc[10, "rrf"] == 1.0 / 61.0
    assert out.loc[40, "rrf"] == 1.0 / 62.0
    assert (out.loc[20, "rank_a"], out.loc[20, "rank_b"]) == (2, 1)
    assert (out.loc[10, "rank_a"], out.loc[10, "rank_b"]) == (1, 0)
    # fused order: 20 (both lists) first
    assert out.rrf.idxmax() == 20


def test_ranked_topk(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.aggregates import ranked_topk

    t = pa.table({"k": pa.array(range(50), type=pa.int64()),
                  "v": pa.array([i % 7 for i in range(50)],
                                type=pa.int64())})
    out = ranked_topk(rd.from_arrow(t).repartition(5), "k",
                      ["v", "k"], [True, False], 10).to_pandas()
    assert list(out["rank"]) == list(range(1, 11))
    # v desc, tie k asc: v=6 rows are k=6,13,20,27,34,41,48 (7 rows)
    assert list(out["k"][:7]) == [6, 13, 20, 27, 34, 41, 48]


def test_survivorship_merge(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.partitioning import survivorship_merge

    t = pa.table({
        "cluster": pa.array([1, 1, 1, 2], type=pa.int64()),
        "doc_id": pa.array([7, 3, 9, 4], type=pa.int64()),
        "text": pa.array(["bb", "aaa", "ccc", "x"]),
        "lang": pa.array(["en", "de", "en", "fr"]),
        "n": pa.array([5, 9, 2, 1], type=pa.int64())})
    out = survivorship_merge(
        rd.from_arrow(t).repartition(2), "cluster",
        {"text": "longest", "lang": "mode", "n": "max"},
        keep_key="doc_id").to_pandas().set_index("cluster")
    # longest: len 3 tie between aaa/ccc -> value-ascending: aaa
    assert out.loc[1, "text"] == "aaa"
    assert out.loc[1, "lang"] == "en"      # mode 2-1
    assert out.loc[1, "n"] == 9
    assert out.loc[1, "doc_id"] == 3       # min survivor key
    assert out.loc[2, "text"] == "x"

    import pytest
    with pytest.raises(ValueError):
        survivorship_merge(rd.from_arrow(t), "cluster",
                           {"text": "nosuch"})


def test_scd2_intervals(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.windows import scd2_intervals

    t = pa.table({
        "k": pa.array([1, 1, 1, 1, 1, 2], type=pa.int64()),
        "ts": pa.array([1, 2, 3, 4, 5, 1], type=pa.int64()),
        "v": pa.array(["a", "a", "b", "b", "a", "z"])})
    out = scd2_intervals(rd.from_arrow(t).repartition(3),
                         key="k", ts_col="ts", col="v").to_pandas()
    k1 = out[out.k == 1].sort_values("valid_from")
    assert list(k1.v) == ["a", "b", "a"]
    assert list(k1.valid_from) == [1, 3, 5]
    assert list(k1.n_obs) == [2, 2, 1]
    assert list(k1.valid_to)[:2] == [3, 5]
    assert pa.compute.is_null(
        pa.array(list(k1.valid_to))).to_pylist()[2] or \
        k1.valid_to.isna().iloc[2]
    k2 = out[out.k == 2]
    assert len(k2) == 1 and k2.n_obs.iloc[0] == 1


def test_unpivot(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.aggregates import unpivot

    t = pa.table({"k": pa.array([1, 2], type=pa.int64()),
                  "x": pa.array([10, 20], type=pa.int64()),
                  "y": pa.array([0.5, 1.5], type=pa.float64())})
    out = unpivot(rd.from_arrow(t), ["k"], ["x", "y"]) \
        .to_pandas().sort_values(["k", "attr"]).reset_index(drop=True)
    assert len(out) == 4
    assert list(out.columns) == ["k", "attr", "value"]
    assert out[(out.k == 1) & (out.attr == "x")].value.iloc[0] == 10.0
    assert out[(out.k == 2) & (out.attr == "y")].value.iloc[0] == 1.5


def test_impute_group_mean(ray_session, monkeypatch):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.aggregates import impute_group_mean
    from swishray.ops import joins

    for budget in (None, 0):  # broadcast, then the join path
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        t = pa.table({
            "g": pa.array(["a", "a", "a", "b", "b", "c"]),
            "x": pa.array([1, None, 4, 7, None, None],
                          type=pa.int64())})
        out = impute_group_mean(rd.from_arrow(t).repartition(3),
                                "g", "x").to_pandas()
        a = out[out.g == "a"].sort_values("x", na_position="last")
        assert sorted(out[out.g == "a"].x_imp) == [1.0, 2.5, 4.0]
        assert sorted(out[out.g == "b"].x_imp) == [7.0, 7.0]
        # all-null group stays null/NaN
        assert np.isnan(out[out.g == "c"].x_imp.iloc[0])


def test_sliding_distinct(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.windows import sliding_distinct

    H = 3_600_000_000  # us
    # user 1 at t=0.5h and 1.5h; user 2 at 0.2h (dup twice); user 3
    # at 2.5h
    ts = pa.array([H // 2, H + H // 2, H // 5, H // 5, 2 * H + H // 2],
                  type=pa.timestamp("us"))
    t = pa.table({"user_id": pa.array([1, 1, 2, 2, 3],
                                      type=pa.int64()), "ts": ts})
    out = sliding_distinct(rd.from_arrow(t).repartition(3),
                           "user_id", "ts", width_s=7200,
                           slide_s=3600).to_pandas()
    got = {int(r.window_start.timestamp() // 3600): r.n_distinct
           for r in out.itertuples(index=False)}
    # window [-1h,1h): users 1,2 -> but window_start -1h covers
    # hours -1..0: events at 0..1h fall in windows starting -0h and
    # -1h... windows are [start, start+2h): start 0 covers users
    # 1(0.5h),2(0.2h),1(1.5h) -> {1,2}=2; start -1h covers 0..1h
    # events -> {1,2}=2; start 1h covers 1.5h + 2.5h -> {1,3}=2;
    # start 2h covers 2.5h -> {3}=1
    assert got == {-1: 2, 0: 2, 1: 2, 2: 1}


def test_collect_sorted_group_size_guard(ray_session):
    """A group whose collected bytes exceed the cap raises a clear
    error naming the salted alternative instead of silently OOM-ing
    (VERDICT r3 item 6)."""
    import pytest
    import ray.data as rd
    from swishray.ops.aggregates import collect_sorted

    ds = rd.from_items([{"g": "hot", "v": "x" * 100} for _ in range(50)])
    with pytest.raises(Exception, match="max_group_bytes"):
        collect_sorted(ds, "g", "v",
                       max_group_bytes=1000).take_all()
    # under the cap: fine
    out = collect_sorted(ds, "g", "v",
                         max_group_bytes=10_000_000).take_all()
    assert out[0]["n_items"] == 50


def test_mode_per_group_nul_strings(ray_session):
    """Values that differ only after a NUL byte stay distinct (pandas'
    string hashing stops at the first NUL and merged them)."""
    import ray.data as rd
    from swishray.ops.aggregates import mode_per_group

    t = pa.table({"g": pa.array([1, 1, 1], pa.int64()),
                  "v": ["a\x00b", "a\x00c", "a\x00c"]})
    got = mode_per_group(rd.from_arrow(t), "g", "v").take_all()
    assert [(r["g"], r["mode"], r["mode_n"]) for r in got] == \
        [(1, "a\x00c", 2)]


def test_quantiles_per_group_nul_strings(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import discrete_quantiles_per_group

    t = pa.table({"g": ["x\x00a", "x\x00b", "x\x00b"],
                  "v": pa.array([1, 5, 7], pa.int64())})
    got = discrete_quantiles_per_group(rd.from_arrow(t), "g", "v",
                                       [0.5, 1.0]).take_all()
    assert sorted((r["g"], r["q"], r["value"]) for r in got) == [
        ("x\x00a", 0.5, 1), ("x\x00a", 1.0, 1),
        ("x\x00b", 0.5, 5), ("x\x00b", 1.0, 7)]


def test_collect_sorted_and_mode_many_groups(ray_session, spread):
    """Many groups over many blocks vs a single-process pandas
    replay: string_agg ORDER BY (o, v) and the (count desc, value
    asc) mode."""
    import ray.data as rd
    from swishray.ops.aggregates import collect_sorted, mode_per_group

    rng = np.random.default_rng(4)
    n = 900
    df = pd.DataFrame({
        "g": [f"grp-{i}" for i in rng.integers(0, 40, n)],
        "o": rng.integers(0, 50, n),
        "v": [f"v{i}" for i in rng.integers(0, 6, n)]})
    spread(df.g.unique())
    ds = rd.from_pandas(df).repartition(7)

    got = collect_sorted(ds, "g", "v", sep="|", order="o").to_pandas()
    want = {g: ("|".join(d.sort_values(["o", "v"]).v), len(d))
            for g, d in df.groupby("g")}
    assert {r.g: (r["items"], r.n_items) for _, r in got.iterrows()} \
        == want

    got = mode_per_group(ds, "g", "v").to_pandas()
    want = {}
    for g, d in df.groupby("g"):
        vc = d.v.value_counts().reset_index()
        vc.columns = ["v", "n"]
        top = vc.sort_values(["n", "v"], ascending=[False, True]).iloc[0]
        want[g] = (top.v, top.n)
    assert {r.g: (r["mode"], r.mode_n) for _, r in got.iterrows()} \
        == want


def test_scd2_intervals_many_keys(ray_session, spread):
    import ray.data as rd
    from swishray.ops.windows import scd2_intervals

    rng = np.random.default_rng(9)
    rows = []
    for k in range(25):
        for ts in rng.choice(1000, rng.integers(1, 30), replace=False):
            rows.append((k, int(ts), str(rng.choice(["a", "b", "c"]))))
    df = pd.DataFrame(rows, columns=["k", "ts", "v"])
    spread(range(25))
    out = scd2_intervals(rd.from_pandas(df).repartition(6),
                         key="k", ts_col="ts", col="v").to_pandas()
    got = sorted((r.k, r.v, r.valid_from,
                  None if pd.isna(r.valid_to) else int(r.valid_to),
                  r.n_obs) for _, r in out.iterrows())
    want = []
    for k, d in df.sort_values("ts").groupby("k"):
        run = (d.v != d.v.shift()).cumsum()
        firsts = [g.ts.iloc[0] for _, g in d.groupby(run)]
        for i, (_, g) in enumerate(d.groupby(run)):
            nxt = firsts[i + 1] if i + 1 < len(firsts) else None
            want.append((k, g.v.iloc[0], g.ts.iloc[0], nxt, len(g)))
    assert got == sorted(want)


def test_asof_join_many_keys(ray_session, spread):
    """Many keys over many blocks vs a brute-force backward scan."""
    import ray.data as rd
    from swishray.ops.joins import asof_join

    rng = np.random.default_rng(12)
    left = pd.DataFrame({"lid": np.arange(300),
                         "k": rng.integers(0, 30, 300),
                         "ts": rng.integers(0, 1000, 300)})
    right = pd.DataFrame({"k": rng.integers(0, 30, 200),
                          "rts": rng.integers(0, 1000, 200),
                          "val": np.arange(200)})
    spread(range(30))
    out = asof_join(rd.from_pandas(left).repartition(5),
                    rd.from_pandas(right).repartition(4),
                    on="k", left_ts="ts", right_ts="rts",
                    right_cols=["val"], right_tiebreak="val").take_all()
    got = {r["lid"]: r["__r_val"] for r in out}
    want = {}
    for r in left.itertuples():
        c = right[(right.k == r.k) & (right.rts <= r.ts)]
        want[r.lid] = (None if c.empty else
                       int(c.sort_values(["rts", "val"]).val.iloc[-1]))
    assert got == want


def test_survivorship_merge_many_clusters(ray_session, spread):
    import ray.data as rd
    from swishray.ops.partitioning import survivorship_merge

    rng = np.random.default_rng(3)
    n = 400
    df = pd.DataFrame({
        "cluster": rng.integers(0, 30, n),
        "doc_id": rng.permutation(n),
        "text": ["x" * int(i) + "y" for i in rng.integers(0, 5, n)],
        "lang": rng.choice(["en", "de", "fr"], n),
        "n": rng.integers(0, 100, n)})
    spread(range(30))
    out = survivorship_merge(
        rd.from_pandas(df).repartition(6), "cluster",
        {"text": "longest", "lang": "mode", "n": "min"},
        keep_key="doc_id").to_pandas().set_index("cluster").sort_index()
    assert list(out.index) == sorted(df.cluster.unique())
    for c, d in df.groupby("cluster"):
        row = out.loc[c]
        assert row.doc_id == d.doc_id.min()
        assert row.n == d.n.min()
        assert row.text == sorted(d.text, key=lambda s: (-len(s), s))[0]
        vc = d.lang.value_counts()
        assert row.lang == min(vc[vc == vc.max()].index)


def _empty_events():
    return pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "value": pa.array([], pa.float64()),
        "g": pa.array([], pa.string())})


@pytest.mark.parametrize("op", [
    "sessionize", "sessionize_salted", "scd2", "quantiles", "collect",
    "mode", "topk", "pivot", "gap_fill", "survivorship", "analytic",
    "rank_salted", "running_sum_salted", "pack", "asof", "exact_dedup",
    "hamming"])
def test_keyed_ops_empty_input(ray_session, op):
    """A typed but empty input yields no rows and no error through
    every per-key exchange op."""
    import ray.data as rd
    from swishray.ops import (aggregates, analytic, dedup, joins,
                              packing, partitioning, windows)

    ev = rd.from_arrow(_empty_events())
    run = {
        "sessionize": lambda: windows.sessionize(ev),
        "sessionize_salted": lambda: windows.sessionize_salted(ev),
        "scd2": lambda: windows.scd2_intervals(ev, "user_id", "ts", "g"),
        "quantiles": lambda: aggregates.discrete_quantiles_per_group(
            ev, "g", "event_id", [0.5]),
        "collect": lambda: aggregates.collect_sorted(ev, "user_id", "g"),
        "mode": lambda: aggregates.mode_per_group(ev, "g", "event_id"),
        "topk": lambda: aggregates.topk_per_group(ev, "g", "value"),
        "pivot": lambda: aggregates.pivot_table(ev, "user_id", "g",
                                                "event_id"),
        "gap_fill": lambda: aggregates.gap_fill_counts(ev, "g", "ts"),
        "survivorship": lambda: partitioning.survivorship_merge(
            ev, "user_id", {"g": "mode"}),
        "analytic": lambda: analytic.analytic(
            ev, "user_id", ["ts"], [analytic.row_number()]),
        "rank_salted": lambda: analytic.rank_salted(ev, "g", "event_id"),
        "running_sum_salted": lambda: analytic.running_sum_salted(
            ev, "user_id", "ts", "value"),
        "pack": lambda: packing.pack_documents(
            ev, 8, "user_id", col="g", key="event_id"),
        "asof": lambda: joins.asof_join(
            ev, ev, "user_id", "ts", "ts", ["value"]),
        "exact_dedup": lambda: dedup.exact_dedup(
            ev, "g", "event_id", unique_keys=False),
        "hamming": lambda: dedup.hamming_near_dups(ev, "event_id",
                                                   "user_id"),
    }[op]
    assert run().take_all() == []
