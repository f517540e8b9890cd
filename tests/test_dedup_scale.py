"""Scale-path behavior of the dedup operators: hot-bucket caps,
exact Mersenne modmul, distributed LSH verify, slim exact-dedup."""

import numpy as np
import pyarrow as pa


def test_mersenne_mulmod_exact():
    from swishray.ops.dedup import _mulmod_p, _mod_p, _MERSENNE
    rng = np.random.RandomState(7)
    a = rng.randint(0, _MERSENNE, size=200, dtype=np.uint64)
    x = rng.randint(0, 1 << 63, size=200, dtype=np.uint64)
    xr = _mod_p(x)
    got = _mulmod_p(a, xr)
    want = np.array([(int(ai) * int(xi)) % _MERSENNE
                     for ai, xi in zip(a, xr)], dtype=np.uint64)
    assert np.array_equal(got, want)
    # reduction of arbitrary uint64s
    big = rng.randint(0, np.iinfo(np.uint64).max, size=200, dtype=np.uint64)
    assert np.array_equal(_mod_p(big),
                          np.array([int(v) % _MERSENNE for v in big],
                                   dtype=np.uint64))


def test_hot_bucket_star_pairing(ray_session):
    """10k identical docs collapse into one LSH bucket: pair emission
    must be O(n) (star), not O(n^2), and every doc stays connected to
    the hub so dedup-by-component still collapses the group."""
    import ray.data as rd
    from swishray.ops.dedup import minhash_dedup, simhash_near_dups

    n = 10_000
    texts = ["the same boilerplate page body repeated many times"] * n
    tbl = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                    "text": texts})
    ds = rd.from_arrow(tbl)
    pairs = minhash_dedup(ds, threshold=0.8, bucket_cap=64).take_all()
    # star: exactly n-1 pairs, all anchored at the min key
    assert len(pairs) == n - 1
    assert all(p["a"] == 0 for p in pairs)
    assert sorted(p["b"] for p in pairs) == list(range(1, n))

    sh = simhash_near_dups(ds.limit(2000), max_hamming=3,
                           bucket_cap=64).take_all()
    assert len(sh) == 1999
    assert all(p["a"] == 0 for p in sh)


def test_minhash_verify_is_distributed(ray_session):
    """The Jaccard verify runs via dataset joins (no driver text dict):
    near-dup pairs over a mixed corpus come back with exact scores."""
    import ray.data as rd
    from swishray.ops.dedup import minhash_dedup, ngram_jaccard

    base = "sphinx of black quartz judge my vow " * 8
    texts, ids = [], []
    for i in range(60):
        ids.append(i)
        if i % 3 == 0:
            texts.append(base)
        elif i % 3 == 1:
            texts.append(base + f"suffix variant {i % 6} ")
        else:
            texts.append(f"unique content {i} " * 20)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()), "text": texts}))
    pairs = minhash_dedup(ds, threshold=0.9).take_all()
    assert pairs, "identical docs must be found"
    for p in pairs:
        assert p["jaccard"] == ngram_jaccard(texts[p["a"]], texts[p["b"]])
        assert p["jaccard"] >= 0.9
    # every identical-text pair is found (i % 3 == 0 group: 20 docs)
    idents = {(a, b) for a in range(0, 60, 3) for b in range(a + 3, 60, 3)}
    got = {(p["a"], p["b"]) for p in pairs}
    assert idents <= got


def test_lsh_recall_vs_bruteforce(ray_session):
    """Empirical recall check for the (a*x+b) mod p permutation family:
    at threshold 0.8 with 64 perms / 16 bands, LSH + verify finds every
    true >= 0.8 pair of this corpus (validates the hash family)."""
    import ray.data as rd
    from swishray.ops.dedup import minhash_dedup, ngram_jaccard

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    for i in range(80):
        if i % 4 == 0 and i > 0:
            # near-dup of a previous doc: drop a couple of words
            w = texts[i - 4].split()
            del w[::37]
            texts.append(" ".join(w))
        else:
            texts.append(" ".join(rng.choice(vocab, size=120)))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(80), type=pa.int64()), "text": texts}))
    got = {(p["a"], p["b"]) for p in
           minhash_dedup(ds, threshold=0.8).take_all()}
    want = {(a, b) for a in range(80) for b in range(a + 1, 80)
            if ngram_jaccard(texts[a], texts[b]) >= 0.8}
    assert want <= got, f"missed true pairs: {want - got}"


def test_exact_dedup_slim_and_keys(ray_session):
    import ray.data as rd
    from swishray.ops.dedup import exact_dedup, exact_dedup_keys

    tbl = pa.table({
        "doc_id": pa.array([5, 1, 3, 2, 4], type=pa.int64()),
        "text": ["x", "x", "y", "x", "y"],
        "payload": ["p5", "p1", "p3", "p2", "p4"],
    })
    ds = rd.from_arrow(tbl)
    keys = sorted(r["doc_id"] for r in exact_dedup_keys(ds).take_all())
    assert keys == [1, 3]
    kept = exact_dedup(ds).take_all()
    assert sorted((r["doc_id"], r["payload"]) for r in kept) == \
        [(1, "p1"), (3, "p3")]
    # duplicate keys (union of snapshots): unique_keys=False collapses
    doubled = ds.union(rd.from_arrow(tbl))
    kept2 = exact_dedup(doubled, unique_keys=False).take_all()
    assert sorted(r["doc_id"] for r in kept2) == [1, 3]


def test_cosine_grid_pairs_exact(ray_session):
    import ray.data as rd
    from swishray.ops.similarity import cosine_dup_pairs

    rng = np.random.RandomState(0)
    vecs = rng.randn(200, 12)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(200), type=pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float64()))}))
    got = {(r["a"], r["b"]) for r in
           cosine_dup_pairs(ds, threshold=0.5, grid=5).take_all()}
    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    s = m @ m.T
    want = {(i, j) for i in range(200) for j in range(i + 1, 200)
            if s[i, j] >= 0.5}
    assert got == want


def test_minhash_bloom_prune_equivalence(ray_session):
    """The Bloom candidate prune (default) returns exactly the pairs
    of the unpruned path — false positives only cost bytes, false
    negatives are impossible."""
    import ray.data as rd
    from swishray.ops.dedup import minhash_dedup

    texts = (["sphinx of black quartz judge my vow " * 6 + f"v{i % 2} "
              for i in range(20)]
             + [f"unique text number {i} " * 10 for i in range(40)])
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(60), type=pa.int64()), "text": texts}))
    base = {(p["a"], p["b"]) for p in
            minhash_dedup(ds, threshold=0.9, prune=False).take_all()}
    pruned = {(p["a"], p["b"]) for p in
              minhash_dedup(ds, threshold=0.9, prune=True).take_all()}
    assert base == pruned and base


def test_minhash_string_keys(ray_session):
    """ADVICE r2: the verify path must carry the key column's Arrow
    type — string doc ids crashed the old int64-hardcoded shape()."""
    import ray.data as rd
    from swishray.ops.dedup import minhash_dedup, ngram_jaccard

    texts = ["the quick brown fox jumps over the lazy dog " * 5
             for _ in range(6)] + \
            [f"totally different unique page {i} " * 10 for i in range(6)]
    urls = [f"https://example.com/page/{i:03d}" for i in range(12)]
    ds = rd.from_arrow(pa.table({"url": urls, "text": texts}))
    pairs = minhash_dedup(ds, threshold=0.9, key="url").take_all()
    assert pairs
    for p in pairs:
        assert isinstance(p["a"], str) and isinstance(p["b"], str)
        assert p["a"] < p["b"]
        ia, ib = int(p["a"][-3:]), int(p["b"][-3:])
        assert p["jaccard"] == ngram_jaccard(texts[ia], texts[ib])
    want = {(urls[i], urls[j]) for i in range(6) for j in range(i + 1, 6)}
    got = {(p["a"], p["b"]) for p in pairs}
    assert want <= got


def test_dedup_against_corpus(ray_session):
    """Cross-corpus removal: new docs near-duplicating a ref doc go,
    new-vs-new dups SURVIVE (cross-side semantics), clean docs stay;
    and a fully clean crawl passes through untouched (empty-dup
    schema trap)."""
    import ray.data as rd
    import pyarrow as pa
    from swishray.ops.dedup import dedup_against_corpus

    base = ("the quick brown fox jumps over the lazy dog again and "
            "again every single day without fail in the morning")
    ref = rd.from_arrow(pa.table({
        "doc_id": pa.array([100, 101], pa.int64()),
        "text": pa.array([base, "completely different reference "
                          "material about astronomy and star maps "
                          "charted nightly by patient observers"],
                         pa.string())}))
    twin = base.replace("lazy", "sleepy")
    rows = {
        1: twin,                      # near-dup of ref 100 -> dropped
        2: "unique new document about cooking pasta with fresh basil "
           "and ripe tomatoes from the garden patch",
        3: "internal copy internal copy internal copy internal copy "
           "internal copy internal copy internal copy one",
        4: "internal copy internal copy internal copy internal copy "
           "internal copy internal copy internal copy one",
    }
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(rows), pa.int64()),
        "text": pa.array([rows[k] for k in sorted(rows)],
                         pa.string())}))
    kept = sorted(r["doc_id"] for r in
                  dedup_against_corpus(new, ref, threshold=0.5)
                  .take_all())
    assert kept == [2, 3, 4]

    clean = rd.from_arrow(pa.table({
        "doc_id": pa.array([7, 8], pa.int64()),
        "text": pa.array(
            ["nothing here resembles the reference corpus at all "
             "just novel words stacked in novel orders",
             "another fully original passage describing deep sea "
             "creatures and their luminous patterns"], pa.string())}))
    kept2 = sorted(r["doc_id"] for r in
                   dedup_against_corpus(clean, ref, threshold=0.5)
                   .take_all())
    assert kept2 == [7, 8]


def test_setsim_join_complete_vs_bruteforce(ray_session):
    """Prefix filtering must find EVERY pair >= t (completeness is
    the whole contract) on adversarial size mixes: identical docs,
    supersets, borderline J, shorts, empties."""
    import itertools
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.dedup import (gram_hashes, hashed_jaccard,
                                    setsim_join)

    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(60)]
    texts = []
    base = " ".join(rng.choice(vocab, 40))
    texts.append(base)
    texts.append(base)                       # identical
    texts.append(base + " extra tail words here")  # superset
    texts.append(" ".join(base.split()[:30]))      # truncation
    texts.append("one two")                        # short (<k)
    texts.append("one two")                        # short dup
    texts.append("")                               # empty
    for _ in range(24):                            # random chaff
        texts.append(" ".join(rng.choice(vocab, rng.integers(5, 50))))
    t = pa.table({"doc_id": pa.array(range(len(texts)),
                                     type=pa.int64()),
                  "text": texts})
    out = setsim_join(rd.from_arrow(t).repartition(5),
                      threshold=0.6).to_pandas()
    got = {(a, b) for a, b in zip(out.a, out.b)}
    want = {}
    sets = [np.unique(gram_hashes(x, 3)) for x in texts]
    for i, j in itertools.combinations(range(len(texts)), 2):
        if len(sets[i]) == 0 or len(sets[j]) == 0:
            continue  # empty docs never pair (matches SQL)
        jac = hashed_jaccard(sets[i], sets[j])
        if jac >= 0.6:
            want[(i, j)] = jac
    assert got == set(want)
    for _, r in out.iterrows():
        assert abs(r.jaccard - want[(r.a, r.b)]) < 1e-15


def test_setsim_join_string_keys(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.dedup import setsim_join

    t = pa.table({"url": ["u/a", "u/b", "u/c"],
                  "text": ["alpha beta gamma delta one",
                           "alpha beta gamma delta one",
                           "nothing in common at all"]})
    out = setsim_join(rd.from_arrow(t), threshold=0.9, col="text",
                      key="url").to_pandas()
    assert len(out) == 1
    assert (out.a.iloc[0], out.b.iloc[0]) == ("u/a", "u/b")
    assert out.jaccard.iloc[0] == 1.0


def test_containment_join_quote_detection(ray_session):
    """A short quote inside a long page: Jaccard tiny, containment
    1.0 — only the ordered (quote, page) direction qualifies."""
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.dedup import containment_join

    words = [f"w{i}" for i in range(60)]
    page = " ".join(words)
    quote = " ".join(words[20:28])  # 8 words -> 6 grams, all in page
    other = " ".join(f"z{i}" for i in range(30))
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array([page, quote, other])})
    out = containment_join(rd.from_arrow(t).repartition(2),
                           threshold=0.9).to_pandas()
    pairs = {(r.a, r.b): r.containment
             for r in out.itertuples(index=False)}
    assert pairs == {(2, 1): 1.0}


def test_containment_join_vs_bruteforce(ray_session):
    """Random overlapping docs vs a local brute-force containment
    computation — completeness of the one-sided prefix filter."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.dedup import containment_join, gram_hashes

    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(40)]
    texts = []
    for _ in range(80):
        n = rng.integers(3, 30)
        texts.append(" ".join(vocab[i]
                              for i in rng.integers(0, 40, n)))
    t = pa.table({"doc_id": pa.array(range(80), type=pa.int64()),
                  "text": pa.array(texts)})
    thr = 0.7
    out = containment_join(rd.from_arrow(t).repartition(5),
                           threshold=thr).to_pandas()
    got = {(r.a, r.b): round(r.containment, 12)
           for r in out.itertuples(index=False)}
    sets = [set(np.unique(gram_hashes(x, 3)).tolist())
            for x in texts]
    want = {}
    for i in range(80):
        for j in range(80):
            if i == j or not sets[i]:
                continue
            c = len(sets[i] & sets[j]) / len(sets[i])
            if c >= thr:
                want[(i, j)] = round(c, 12)
    assert got == want


def test_exact_dedup_repeated_keys_many_buckets(ray_session, spread):
    """unique_keys=False over a 3-snapshot union: one row per
    surviving key, the min key of every content group."""
    import ray.data as rd
    from swishray.ops.dedup import exact_dedup

    n = 120
    tbl = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                    "text": [f"body {i % 37}" for i in range(n)]})
    spread(range(n))
    snaps = rd.from_arrow(tbl).repartition(3)
    for _ in range(2):
        snaps = snaps.union(rd.from_arrow(tbl).repartition(2))
    kept = exact_dedup(snaps, unique_keys=False).take_all()
    assert sorted(r["doc_id"] for r in kept) == list(range(37))


def test_hamming_pairs_match_brute_force(ray_session, spread):
    """Banded Hamming blocking finds exactly the all-pairs answer
    (pigeonhole: distance <= 3 shares one of 4 bands)."""
    import ray.data as rd
    from swishray.ops.dedup import hamming_near_dups

    rng = np.random.default_rng(6)
    base = rng.integers(0, 2**63, 40).tolist()
    u = np.array([base[i % 40] ^ sum(1 << int(b) for b in rng.choice(
        64, rng.integers(0, 5), replace=False)) for i in range(200)],
        dtype=np.uint64)  # 40 families, 0-4 flipped bits each
    keys = [f"doc-{i:03d}" for i in range(200)]
    spread(keys)
    ds = rd.from_arrow(pa.table({
        "k": keys, "h": pa.array(u.view(np.int64))})).repartition(5)
    got = {(r["a"], r["b"], r["hamming"])
           for r in hamming_near_dups(ds, "h", "k").take_all()}
    want = set()
    for i in range(200):
        for j in range(200):
            d = bin(int(u[i] ^ u[j])).count("1")
            if keys[i] < keys[j] and d <= 3:
                want.add((keys[i], keys[j], d))
    assert got == want and len(want) > 50


def test_lsh_candidates_match_band_collisions(ray_session):
    """lsh_candidate_pairs == every (a < b) pair sharing a band
    bucket, computed in-process from the same band hashes."""
    import ray.data as rd
    from swishray.ops.dedup import (band_hash_matrix, lsh_candidate_pairs,
                                    minhash_signatures)

    base = ["alpha beta gamma delta epsilon zeta eta theta",
            "one two three four five six seven eight nine",
            "red green blue cyan magenta yellow black white"]
    texts = [base[i % 3] + (f" extra{i}" if i % 2 else "")
             for i in range(60)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(60), type=pa.int64()),
        "text": texts})).repartition(4)
    sigs = minhash_signatures(ds).materialize()
    got = {(r["a"], r["b"]) for r in
           lsh_candidate_pairs(sigs, bands=16).take_all()}
    rows = sigs.take_all()
    flat = np.concatenate([np.asarray(r["minhash"], np.uint64)
                           for r in rows])
    bh = band_hash_matrix(flat, len(rows), 16)
    ids = [r["doc_id"] for r in rows]
    want = {(min(ids[i], ids[j]), max(ids[i], ids[j]))
            for i in range(len(ids)) for j in range(len(ids))
            if ids[i] != ids[j] and (bh[i] == bh[j]).any()}
    assert got == want and len(want) > 100


def test_attach_pair_sets_keeps_nul_distinct_keys(ray_session):
    """Candidate pairs whose string keys differ only after a NUL byte
    stay two pairs when they share an exchange bucket (pandas 2.2
    drop_duplicates merged them)."""
    import ray.data as rd
    from swishray.ops.dedup import attach_pair_sets
    from swishray.ops.joins import _key_hash64, default_join_partitions

    nb = np.uint64(default_join_partitions())
    keys = [f"k\x00{i}" for i in range(64)]
    bucket = (_key_hash64(pa.array(keys)) % nb).tolist()
    k1, k2 = [k for k, b in zip(keys, bucket) if b == bucket[0]][:2]
    cand = rd.from_arrow(pa.table({
        "a": pa.array([k1, k2, k1], pa.large_string()),
        "b": pa.array(["z", "z", "z"], pa.large_string())}))
    sets = rd.from_arrow(pa.table({
        "doc": pa.array([k1, k2, "z"], pa.large_string()),
        "__sh": pa.array([b"s1", b"s2", b"sz"], pa.large_binary())}))
    out = attach_pair_sets(cand, sets, "doc", pa.large_string()).to_pandas()
    got = sorted(zip(out.a, out.b, out.__sha, out.__shb))
    assert got == [(k1, "z", b"s1", b"sz"), (k2, "z", b"s2", b"sz")]
