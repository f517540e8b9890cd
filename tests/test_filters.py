"""C4 / Gopher corpus filters, per-group caps, URL blocklists and
benchmark decontamination (ops/filters.py).  The closed-form
roundtrips are also oracle-checked by the c4_clean / gopher_quality /
cap_domains / url_blocklist[_join] / decontaminate queries()
entries."""
import random
import re

import pyarrow as pa
import pytest
import ray.data as rd

from swishray.ops import joins
from swishray.ops.filters import (c4_clean, cap_per_group,
                                  decontaminate, gopher_quality,
                                  url_blocklist)

GOOD = ("This is a good long sentence that ends with punctuation "
        "marks today.")


def _c4(rows, **kw):
    ds = rd.from_items([{"k": i, "text": t}
                        for i, t in enumerate(rows)]).repartition(2)
    return c4_clean(ds, col="text", key="k", **kw).to_pandas() \
        .sort_values("k").reset_index(drop=True)


def test_c4_line_rules(ray_session):
    df = _c4(["\n".join([GOOD, "too short", GOOD, GOOD])])
    assert df.loc[0, "doc_kept"]
    assert df.loc[0, "clean_text"] == "\n".join([GOOD, GOOD, GOOD])
    assert df.loc[0, "n_lines_kept"] == 3
    assert df.loc[0, "n_lines_dropped"] == 1


def test_c4_terminal_punctuation_required(ray_session):
    noend = "This line has plenty of words but no terminal mark"
    df = _c4(["\n".join([GOOD, noend, GOOD, GOOD])])
    assert noend not in df.loc[0, "clean_text"]


def test_c4_javascript_and_min_lines(ray_session):
    js = "Please enable javascript to view this content properly."
    df = _c4(["\n".join([GOOD, js, GOOD])])  # only 2 survivors
    assert not df.loc[0, "doc_kept"]
    assert df.loc[0, "clean_text"] == ""
    assert df.loc[0, "n_lines_kept"] == 2


def test_c4_banned_substrings(ray_session):
    for bad in ("some Lorem Ipsum filler", "code with { braces }"):
        df = _c4(["\n".join([GOOD, GOOD, GOOD, bad])])
        assert not df.loc[0, "doc_kept"]


def test_c4_null_and_empty(ray_session):
    df = _c4([None, ""])
    assert list(df["doc_kept"]) == [False, False]
    assert list(df["clean_text"]) == ["", ""]


def test_gopher_rules(ray_session):
    ok = " ".join(["fine"] * 60)
    short = "only these words"
    symbols = " ".join(["####"] * 30 + ["word"] * 30)
    longwords = " ".join(["x" * 40] * 60)
    ds = rd.from_items([
        {"k": 0, "text": ok}, {"k": 1, "text": short},
        {"k": 2, "text": symbols}, {"k": 3, "text": longwords},
    ]).repartition(2)
    df = gopher_quality(ds, col="text", key="k").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert list(df["keep"]) == [True, False, False, False]
    assert df.loc[1, "n_words"] == 3
    assert df.loc[3, "mean_word_len"] == 40.0


def test_gopher_bullet_and_ellipsis_lines(ray_session):
    bullets = "\n".join(["- item %d with several words here." % i
                         for i in range(10)] +
                        [" ".join(["pad"] * 60) + "."])
    ell = "\n".join([" ".join(["word"] * 30) + "..."] * 10)
    ds = rd.from_items([{"k": 0, "text": bullets},
                        {"k": 1, "text": ell}]).repartition(1)
    df = gopher_quality(ds, col="text", key="k").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert df.loc[0, "bullet_frac"] > 0.9
    assert not df.loc[0, "keep"]
    assert df.loc[1, "ellipsis_frac"] == 1.0
    assert not df.loc[1, "keep"]


def test_cap_per_group(ray_session):
    rows = [{"doc_id": i,
             "site": "a.com" if i % 3 == 0 else "b.com",
             "text": f"t{i}"} for i in range(20)]
    ds = rd.from_items(rows).repartition(3)
    out = cap_per_group(ds, group="site", key="doc_id", n=2) \
        .to_pandas()
    # 2 smallest doc_ids per site; full input columns survive
    assert sorted(out["doc_id"].tolist()) == [0, 1, 2, 3]
    assert set(out.columns) >= {"doc_id", "site", "text"}
    top = cap_per_group(ds, group="site", key="doc_id", n=1,
                        ascending=False).to_pandas()
    assert sorted(top["doc_id"].tolist()) == [18, 19]


_URLS = ["http://spam.example.org/x", "https://example.org/y",
         "http://good.com/z", "http://notexample.org/w",
         "http://sub.SPAM.example.ORG:8080/v", None]
_BLOCKED = [True, True, False, False, True, False]


def _url_ds():
    return rd.from_items([{"doc_id": i, "url": u}
                          for i, u in enumerate(_URLS)]).repartition(2)


def _blocked(ds, domains, budget=None, monkeypatch=None):
    """url_blocklist's flags by row id; ``budget`` 0 forces the join
    path through the public function."""
    if budget is not None:
        monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
    df = url_blocklist(ds, domains).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(df) == ds.count()
    return df


def test_url_blocklist_regex(ray_session):
    df = _blocked(_url_ds(), ["example.org"])
    assert df["blocked"].tolist() == _BLOCKED
    assert df.loc[4, "host"] == "sub.spam.example.org"
    # substring of a label must NOT match (notexample.org)
    assert not df.loc[3, "blocked"]


def test_url_blocklist_join_agrees(ray_session, monkeypatch):
    df = _blocked(_url_ds(), ["example.org"], 0, monkeypatch)
    assert df["blocked"].tolist() == _BLOCKED
    assert df.loc[4, "host"] == "sub.spam.example.org"
    # same output columns, in the same order, on both paths
    assert list(df.columns) == ["doc_id", "url", "host", "blocked"]


def test_url_blocklist_empty_list(ray_session):
    df = _blocked(_url_ds(), [])
    assert not df["blocked"].any()


def test_url_blocklist_join_no_hits(ray_session, monkeypatch):
    # empty hit set exercises the schema-less-empty-block join path
    df = _blocked(_url_ds(), ["nomatch.invalid"], 0, monkeypatch)
    assert not df["blocked"].any()
    assert len(df) == len(_URLS)


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "join"])
def test_url_blocklist_bare_tld(ray_session, monkeypatch, budget):
    # a bare TLD entry blocks every host under it, on both paths
    urls = ["http://x.example.com/a", "http://example.com/b",
            "http://localhost/c", "http://a.b.org/d"]
    ds = rd.from_items([{"doc_id": i, "url": u}
                        for i, u in enumerate(urls)])
    df = _blocked(ds, ["com"], budget, monkeypatch)
    assert df["blocked"].tolist() == [True, True, False, False]


_LABELS = ["a", "b", "ex", "Example", "org", "com", "co", "uk"]


def _seeded_urls(rng, n):
    """URLs over a tiny label alphabet, so hosts repeat and nest;
    mixed case, ports and None URLs included."""
    urls = []
    for _ in range(n):
        if rng.random() < 0.1:
            urls.append(None)
            continue
        host = ".".join(rng.choice(_LABELS)
                        for _ in range(rng.randint(1, 4)))
        port = rng.choice(["", ":8080"])
        urls.append(f"{rng.choice(['http', 'HTTPS'])}://{host}{port}/p")
    return urls


def _blocklist_oracle(url, domains):
    m = url and re.match(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/?#:]+)", url)
    host = m.group(1).lower() if m else ""
    ds = {d.lower().lstrip(".") for d in domains} - {""}
    return any(host == d or host.endswith("." + d) for d in ds)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_url_blocklist_paths_agree_seeded(ray_session, monkeypatch, seed):
    """Both paths equal the docstring rule (host equals an entry or
    ends with "." + entry) on seeded URLs and lists: TLD entries,
    mixed case, a leading dot, and an empty list (seed 3)."""
    rng = random.Random(seed)
    urls = _seeded_urls(rng, 60)
    domains = [] if seed == 3 else [
        rng.choice(["", "."]) + ".".join(
            rng.choice(_LABELS) for _ in range(rng.randint(1, 2)))
        for _ in range(4)]
    ds = rd.from_items([{"doc_id": i, "url": u}
                        for i, u in enumerate(urls)]).repartition(3)
    want = [_blocklist_oracle(u, domains) for u in urls]
    assert _blocked(ds, domains)["blocked"].tolist() == want
    assert _blocked(ds, domains, 0, monkeypatch)["blocked"].tolist() \
        == want


def _decon_inputs():
    docs = [{"doc_id": 0, "text": "the quick brown fox jumps"},
            {"doc_id": 1, "text": "totally unrelated words here now"},
            {"doc_id": 2, "text": ""},
            {"doc_id": 3, "text": "dup dup dup dup"}]
    bench = [{"text": "quick brown fox runs fast"},
             {"text": "dup dup dup"}]
    return (rd.from_items(docs).repartition(2),
            rd.from_items(bench))


def test_decontaminate_broadcast(ray_session):
    d, b = _decon_inputs()
    out = decontaminate(d, b, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["contaminated"].tolist() == [True, False, False, True]
    # doc 3 is 'dup dup dup dup' -> ONE distinct trigram
    assert out["n_grams"].tolist() == [3, 3, 0, 1]
    assert out["n_matched"].tolist() == [1, 0, 0, 1]


def test_decontaminate_join_agrees(ray_session, monkeypatch):
    d, b = _decon_inputs()
    a = decontaminate(d, b, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 0)
    j = decontaminate(d, b, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert a[["doc_id", "n_grams", "n_matched", "contaminated"]] \
        .equals(j[["doc_id", "n_grams", "n_matched", "contaminated"]])


def test_decontaminate_join_clean_corpus(ray_session, monkeypatch):
    # zero hits is the COMMON production outcome; the join-path `hits`
    # side is then all-empty and (Ray 2.49) empty blocks never reach
    # the join shuffle — schema_guard's sentinel keeps it alive
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 0)
    d, _ = _decon_inputs()
    clean_bench = rd.from_items(
        [{"text": "totally unrelated benchmark words here"}])
    out = decontaminate(d, clean_bench, n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["contaminated"].tolist() == [False] * 4
    assert out["n_matched"].tolist() == [0] * 4
    assert out["n_grams"].tolist() == [3, 3, 0, 1]


def test_decontaminate_join_empty_bench(ray_session, monkeypatch):
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 0)
    d, b = _decon_inputs()
    out = decontaminate(d, b.filter(lambda r: False), n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["contaminated"].tolist() == [False] * 4


def _grams(text, n):
    words = [w for w in re.split(" +", text or "") if w]
    return {" ".join(words[i:i + n]) for i in range(len(words) - n + 1)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decontaminate_paths_agree_seeded(ray_session, monkeypatch,
                                          seed):
    """Both paths count distinct shared trigrams exactly, on seeded
    texts over a small vocabulary with None and empty texts, runs of
    spaces, and an empty benchmark (seed 3)."""
    rng = random.Random(seed)
    vocab = ["a", "b", "c", "d"]

    def text():
        if rng.random() < 0.1:
            return rng.choice([None, ""])
        return (" " * rng.randint(1, 2)).join(
            rng.choice(vocab) for _ in range(rng.randint(0, 8)))
    docs = [{"doc_id": i, "text": text()} for i in range(40)]
    bench = [{"text": text() or "x"} for _ in range(0 if seed == 3 else 3)]
    bench_ds = (rd.from_items(bench) if bench else rd.from_items(
        [{"text": "x"}]).filter(lambda r: False))
    bgrams = set().union(*[_grams(r["text"], 3) for r in bench])
    want = [(len(_grams(r["text"], 3)),
             len(_grams(r["text"], 3) & bgrams)) for r in docs]
    ds = rd.from_items(docs).repartition(3)
    for budget in (None, 0):
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        out = decontaminate(ds, bench_ds, n=3).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert list(zip(out["n_grams"], out["n_matched"])) == want
        assert out["contaminated"].tolist() == [m > 0 for _, m in want]


def test_self_dup_all_unique_corpus(ray_session):
    # no gram appears in >= 2 docs -> `dup` and `hits` are all-empty
    docs = rd.from_items(
        [{"doc_id": 1, "text": "alpha beta gamma"},
         {"doc_id": 2, "text": "delta epsilon zeta"},
         {"doc_id": 3, "text": "eta theta iota"}]).repartition(2)
    from swishray.ops.filters import self_dup_ngram_stats
    out = self_dup_ngram_stats(docs, n=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["n_dup"].tolist() == [0, 0, 0]
    assert out["n_grams"].tolist() == [2, 2, 2]


def test_normalize_text_kernels(ray_session):
    import ray.data as rd
    from swishray.ops.filters import normalize_text
    t = pa.table({"text": pa.array(
        ["a\x07b", "x  \t y", "é", None, "  pad  "],
        pa.string())})
    out = normalize_text(rd.from_arrow(t)).to_pandas()["text"].tolist()
    assert out[0] == "ab"              # control stripped
    assert out[1] == "x y"             # ws squeezed
    assert out[2] == "é"          # NFC composes e+combining
    assert out[3] is None              # null propagates
    assert out[4] == "pad"             # trimmed
    # NFKC folds compatibility forms (ﬁ ligature)
    out2 = normalize_text(rd.from_arrow(pa.table(
        {"text": pa.array(["ﬁn"], pa.string())})),
        form="NFKC").to_pandas()["text"].tolist()
    assert out2[0] == "fin"
    # out= keeps the original column
    df = normalize_text(rd.from_arrow(t), out="clean").to_pandas()
    assert df["text"][0] == "a\x07b" and df["clean"][0] == "ab"


def test_self_dup_ngram_stats(ray_session):
    import ray.data as rd
    from swishray.ops.filters import self_dup_ngram_stats
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "the cat sat on the mat",     # shares "the cat sat" w/ 1
            "the cat sat quietly today",
            "completely different words here now",
            "x",                          # shorter than n: 0 grams
        ], pa.string())})
    ds = rd.from_arrow(t).repartition(2)
    for hashed in (False, True):
        out = self_dup_ngram_stats(ds, n=3, hashed=hashed) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert out["doc_id"].tolist() == [0, 1, 2, 3]
        assert out["n_grams"].tolist() == [4, 3, 3, 0]
        # only "the cat sat" crosses documents
        assert out["n_dup"].tolist() == [1, 1, 0, 0], hashed


def test_quality_model_score(ray_session):
    """Linear model inference: fixed-point logit arithmetic checked
    against a hand-computed row, weights overridable (the broadcast
    model slot), keep == logit >= 0 everywhere."""
    import ray.data as rd
    from swishray.ops.textstats import quality_model_score

    rows = [
        # 60 words, half stopwords: stop_pm=500 -> -300+6*500 = +2700
        {"doc_id": 1, "text": ("the word " * 30).strip()},
        # short doc penalty: 4 words -> -300+6*250-2000 < 0
        {"doc_id": 2, "text": "the tiny doc here"},
        # punct soup: 50 x '!!' words -> punct_pm ~ 666 -> negative
        {"doc_id": 3, "text": ("x! " * 50).strip()},
    ]
    ds = rd.from_items(rows)
    got = {r["doc_id"]: r for r in quality_model_score(ds).take_all()}
    assert got[1]["logit_milli"] == -300 + 6 * 500
    assert got[1]["keep"] is True or got[1]["keep"] == True  # noqa: E712
    assert got[2]["keep"] == False  # noqa: E712
    assert got[3]["keep"] == False  # noqa: E712
    for r in got.values():
        assert r["keep"] == (r["logit_milli"] >= 0)

    # override slot: an always-keep bias flips every decision on
    lax = {r["doc_id"]: r for r in quality_model_score(
        ds, weights={"bias": 10_000_000}).take_all()}
    assert all(r["keep"] for r in lax.values())


def test_fix_mojibake(ray_session):
    """Roundtrip repair of single- and double-encoded mojibake;
    legit non-ASCII text (no markers, or invalid re-encoding) is
    never touched."""
    import ray.data as rd
    from swishray.ops.filters import fix_mojibake

    orig = "café — naïve ÆØÅ büro"
    once = orig.encode("utf-8").decode("latin-1")
    twice = once.encode("utf-8").decode("latin-1")
    rows = [
        {"doc_id": 1, "text": once},
        {"doc_id": 2, "text": twice},
        {"doc_id": 3, "text": orig},          # clean, stays
        {"doc_id": 4, "text": "AÑO NUEVO"},   # marker char but NOT
                                              # valid utf-8 bytes
        {"doc_id": 5, "text": "plain ascii"},
    ]
    got = {r["doc_id"]: r for r in
           fix_mojibake(rd.from_items(rows)).take_all()}
    assert got[1]["text"] == orig and got[1]["mojibake_passes"] == 1
    assert got[2]["text"] == orig and got[2]["mojibake_passes"] == 2
    for d in (3, 4, 5):
        assert got[d]["text"] == rows[d - 1]["text"]
        assert got[d]["mojibake_passes"] == 0
