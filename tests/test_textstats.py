

def test_split_sentences(ray_session):
    import ray.data as rd
    from swishray.ops.textstats import split_sentences
    ds = rd.from_items([
        {"doc_id": 1, "text": "Hello world. How are you? Fine thanks"},
        {"doc_id": 2, "text": "One sentence only"},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": "Wow! Really!  Yes."},
    ]).repartition(2)
    out = split_sentences(ds).to_pandas() \
        .sort_values(["doc_id", "sent_idx"]).reset_index(drop=True)
    got = [tuple(r) for r in out.itertuples(index=False)]
    assert got == [
        (1, 0, "Hello world."), (1, 1, "How are you?"),
        (1, 2, "Fine thanks"),
        (2, 0, "One sentence only"),
        (4, 0, "Wow!"), (4, 1, "Really!"), (4, 2, "Yes."),
    ]


def test_readability_counts(ray_session):
    """Hand-computed Flesch inputs, incl. vowelless words, trailing
    terminal-less runs, mid-word punctuation, and empty/null text."""
    import ray.data as rd
    import pyarrow as pa
    from swishray.ops.textstats import readability_counts

    texts = [
        "The cat sat. It purred!",      # 5 words, 2 sent
        "Hmm... brr pfft",              # 3 words, 2 sent (Hmm... + open run)
        "no terminal here",             # 3 words, 1 sent
        "",                             # empty
        None,                           # null
        "a.b ends mid.word",            # no terminal-final words -> 1
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = readability_counts(rd.from_arrow(t)).to_pandas() \
        .set_index("doc_id").sort_index()

    assert list(out.n_words) == [5, 3, 3, 0, 0, 3]
    assert list(out.n_sentences) == [2, 2, 1, 0, 0, 1]
    # syllables: vowel groups + vowelless words
    #  t0: the(1) cat(1) sat.(1) it(1) purred!(2: u, e) -> 6 groups... check:
    #  lowercase "the cat sat. it purred!": e,a,a,i,u,e = 6 groups; vowelless 0
    #  t1: "hmm... brr pfft" -> 0 groups, 3 vowelless -> 3
    #  t5: "a.b ends mid.word": groups a,e,i,o = 4; vowelless 0
    assert list(out.n_syllables) == [6, 3, 6, 0, 0, 4]


def test_tfidf_topk(ray_session, monkeypatch):
    """tf-idf top-k vs a local pandas replay; min_df cut, tf ties on
    term, and docs with no qualifying terms emit nothing."""
    import ray.data as rd
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from swishray.ops.textstats import tfidf_topk
    from swishray.ops import joins

    for budget in (None, 0):  # broadcast, then the join path
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        texts = [
            "apple banana apple cherry",
            "banana cherry cherry date",
            "apple date date date",
            "unique_solo_word only here",   # all df=1 except none
            "",
        ]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        out = tfidf_topk(rd.from_arrow(t).repartition(3),
                         k=2, min_df=2).to_pandas()

        # local replay
        n = len(texts)
        tok = [(i, w) for i, s in enumerate(texts) for w in s.split() if w]
        fd = pd.DataFrame(tok, columns=["doc_id", "term"])
        df = fd.drop_duplicates().groupby("term").size()
        df = df[df >= 2]
        tc = fd.groupby(["doc_id", "term"]).size().reset_index(name="tf")
        tc = tc[tc.term.isin(df.index)]
        tc["df"] = df[tc.term].to_numpy()
        tc["score"] = tc.tf.to_numpy() * float(n) / tc.df.to_numpy()
        want = tc.sort_values(["doc_id", "score", "term"],
                              ascending=[True, False, True]) \
            .groupby("doc_id", sort=False).head(2)

        got = out.sort_values(["doc_id", "term"]).reset_index(drop=True)
        want = want[["doc_id", "term", "tf", "df"]] \
            .sort_values(["doc_id", "term"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype({"tf": "int64", "df": "int64"}),
            want.astype({"tf": "int64", "df": "int64"}))
        # doc 3 (all rare terms) and doc 4 (empty) emit no rows
        assert set(got.doc_id) == {0, 1, 2}


def test_snippets(ray_session):
    """Window clamping at both ends, head fallback, case folding,
    empty/null docs."""
    import ray.data as rd
    import pyarrow as pa
    from swishray.ops.textstats import snippets

    texts = [
        "a b c TARGET d e f g",            # centered window
        "TARGET x y z",                    # clamped at start
        "p q r s t u v w target",          # clamped at end
        "no hits here at all one two three four",  # head fallback
        "",
        None,
        "one two Target early target late",  # first hit wins
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = snippets(rd.from_arrow(t).repartition(3),
                   terms=["TARGET"], before=2, after=2).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[0].snippet == "b c TARGET d e"
    assert out.loc[1].snippet == "TARGET x y"
    assert out.loc[2].snippet == "v w target"
    assert out.loc[3].snippet == "no hits here at all"  # width 5 head
    assert out.loc[4].snippet == "" and not out.loc[4].matched
    assert out.loc[5].snippet == ""
    assert out.loc[6].snippet == "one two Target early target"
    assert list(out.matched) == [True, True, True, False,
                                 False, False, True]


def test_bigram_rarity(ray_session, monkeypatch):
    """Hand-computed bigram census: adjacency never crosses doc
    boundaries, OOV pairs counted, zero-rows for short/empty docs."""
    import ray.data as rd
    import pyarrow as pa
    from swishray.ops.textstats import bigram_rarity
    from swishray.ops import joins

    for budget in (None, 0):  # broadcast, then the join path
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        texts = [
            "a b a b",        # bigrams: ab, ba, ab
            "a b c",          # ab, bc
            "b a",            # ba
            "x",              # none
            "",
            None,
        ]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        out = bigram_rarity(rd.from_arrow(t).repartition(3),
                            min_count=2).to_pandas() \
            .set_index("doc_id").sort_index()
        # census: "a b" x3, "b a" x2, "b c" x1, boundary pairs (e.g.
        # "b a" across doc 0->1) must NOT exist beyond within-doc ones
        # vocab (min_count=2): {"a b": 3, "b a": 2}
        assert list(out.n_bigrams) == [3, 2, 1, 0, 0, 0]
        #  d0: ab(3) + ba(2) + ab(3) = 8; d1: ab(3) + bc OOV; d2: ba(2)
        assert list(out.bi_freq_sum) == [8, 3, 2, 0, 0, 0]
        assert list(out.n_oov) == [0, 1, 0, 0, 0, 0]


def test_extract_entities(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from swishray.ops.textstats import PII_EMAIL_RE, extract_entities

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": ["write a@b.com then c@d.org ok", "no entities here",
                 None]})
    out = extract_entities(rd.from_arrow(t), PII_EMAIL_RE) \
        .to_pandas().sort_values(["doc_id", "m"])
    assert list(out.entity) == ["a@b.com", "c@d.org"]
    assert list(out.m) == [1, 2]
    assert list(out.doc_id) == [1, 1]
    assert (out.kind == "entity").all()


def test_collocations_pmi(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.textstats import collocations_pmi

    texts = (["big data big data big data"] * 3
             + ["the big the data the big"] * 2)
    t = pa.table({"text": pa.array(texts)})
    out = collocations_pmi(rd.from_arrow(t).repartition(3),
                           min_count=4).to_pandas()
    got = {(r.w1, r.w2): (r.cab, r.ca, r.cb, r.pmi_ratio)
           for r in out.itertuples(index=False)}
    # unigrams: big 3*3+2*2=13? big occurs 3x per doc in first (3 docs)
    #   = 9 + 2 per doc in second (2 docs) = 4 -> 13
    # data: 3*3 + 1*2 = 11; the: 3*2 = 6
    # bigrams 'big data': 3 per first doc x3 = 9
    # 'data big': 2*3 = 6; 'the big': 2*2 = 4; others < 4
    t1 = 13 + 11 + 6
    t2 = (5 * 3) + (5 * 2)  # 6-word docs -> 5 bigrams each
    assert set(got) == {("big", "data"), ("data", "big"),
                        ("the", "big")}
    cab, ca, cb, ratio = got[("big", "data")]
    assert (cab, ca, cb) == (9, 13, 11)
    assert ratio == ((9.0 * t1) * t1) / ((float(t2) * 13.0) * 11.0)
    cab, ca, cb, _ = got[("the", "big")]
    assert (cab, ca, cb) == (4, 6, 13)


def _winnow_ref(s: str, k: int, w: int):
    """Straight-from-the-paper reference winnowing (Schleimer et al.
    2003): rightmost minimal hash per window, distinct positions."""
    import hashlib
    if len(s) < k:
        return set()
    h = [int(hashlib.md5(s[i:i + k].encode()).hexdigest()[:8], 16)
         for i in range(len(s) - k + 1)]
    if len(h) < w:
        return set()
    out = set()
    for j in range(len(h) - w + 1):
        window = h[j:j + w]
        m = min(window)
        pos = j + max(i for i, v in enumerate(window) if v == m)
        out.add((pos + 1, h[pos]))
    return out


def test_winnow_fingerprints(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.textstats import winnow_fingerprints

    rng = np.random.default_rng(13)
    texts = []
    for n in (0, 5, 11, 12, 40, 200):
        texts.append("".join(chr(97 + c)
                             for c in rng.integers(0, 6, n)))
    texts.append("ünïcode straße " * 10)  # non-ASCII fallback path
    t = pa.table({"doc_id": pa.array(range(len(texts)),
                                     type=pa.int64()),
                  "text": pa.array(texts)})
    out = winnow_fingerprints(rd.from_arrow(t).repartition(3),
                              k=8, w=4).to_pandas()
    for d, s in enumerate(texts):
        got = {(r.pos, r.fp) for r in
               out[out.doc_id == d].itertuples(index=False)}
        assert got == _winnow_ref(s, 8, 4), (d, s[:20])


def test_winnow_shared_passage(ray_session):
    """Two docs sharing a passage >= w+k-1 chars must share at least
    one fingerprint VALUE (the winnowing guarantee)."""
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.textstats import winnow_fingerprints

    shared = "the quick brown fox jumps over it"
    t = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["AAAA " + shared + " BBBB",
                          "xyzzy words " + shared + " qq"])})
    out = winnow_fingerprints(rd.from_arrow(t), k=8, w=4).to_pandas()
    f1 = set(out[out.doc_id == 1].fp)
    f2 = set(out[out.doc_id == 2].fp)
    assert f1 & f2
