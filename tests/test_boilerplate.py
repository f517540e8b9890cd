"""C4/CCNet-style duplicate-line removal (swishray/ops/boilerplate.py)."""

import random

import pyarrow as pa
import pytest

from swishray.ops import joins


DOCS = [
    (1, "HEADER\nunique one\nFOOTER"),
    (2, "HEADER\nunique two\nFOOTER"),
    (3, "HEADER\nunique three"),
    (4, "all alone here"),
    (5, "HEADER\nFOOTER"),          # fully boilerplate
    (6, "repeat me\nrepeat me"),    # dup within ONE doc only -> kept
]
EXPECT = {
    1: ("unique one", 2),
    2: ("unique two", 2),
    3: ("unique three", 1),
    4: ("all alone here", 0),
    5: ("", 2),
    6: ("repeat me\nrepeat me", 0),
}


def _ds(rows=DOCS):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string())}))


def _seeded(seed):
    """(doc_id, host, text) rows: seed 0 gives all-unique docs (an
    empty hot set); others draw lines from a small pool, with empty
    lines and None texts."""
    if seed == 0:
        return [(i, "a", f"only {i}\nalso {i}") for i in range(6)]
    rng = random.Random(seed)
    pool = ["HEADER", "FOOTER", "nav", ""] + [f"u{i}" for i in range(12)]
    return [(i, rng.choice("ab"),
             None if rng.random() < 0.1 else "\n".join(
                 rng.choices(pool, k=rng.randint(1, 4))))
            for i in range(30)]


def _strip_oracle(rows, min_docs=2):
    """Scalar strip of (doc_id, group, text) rows: a line is hot when
    ``min_docs`` distinct docs of its group hold it."""
    from collections import Counter
    docs = {i: (g, (t or "").split("\n")) for i, g, t in rows}
    n = Counter((g, ln) for g, ls in docs.values() for ln in set(ls))
    out = {}
    for i, (g, ls) in docs.items():
        kept = [ln for ln in ls if n[(g, ln)] < min_docs]
        out[i] = ("\n".join(kept), len(ls) - len(kept))
    return out


def _paths(seeds=(0, 1, 2)):
    return [pytest.param("broadcast", None, id="broadcast"),
            pytest.param("join", None, id="join")] + [
        pytest.param(m, s, id=f"{m}-seed{s}")
        for s in seeds for m in ("broadcast", "join")]


@pytest.mark.parametrize("mode,seed", _paths())
def test_remove_duplicate_lines(ray_session, monkeypatch, mode, seed):
    from swishray.ops.boilerplate import remove_duplicate_lines
    if mode == "join":
        monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 0)
    if seed is None:
        rows, expect = DOCS, EXPECT
    else:
        rows = [(i, t) for i, _, t in _seeded(seed)]
        expect = _strip_oracle([(i, None, t) for i, t in rows])
    out = remove_duplicate_lines(_ds(rows)).take_all()
    got = {r["doc_id"]: (r["text_clean"], r["n_lines_removed"])
           for r in out}
    assert got == expect


def test_modes_agree_on_corpus(ray_session, sf_dir, monkeypatch):
    """The broadcast (map-only) and join (fully distributed) paths
    must produce identical results on a real corpus slice."""
    import ray.data as rd
    from swishray.ops.boilerplate import remove_duplicate_lines

    def pages(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = pc.binary_join_element_wise(
            "SITE HEADER\n", pc.coalesce(batch.column("text"), ""), "")
        return pa.table({"doc_id": batch.column("doc_id"), "text": t})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).map_batches(
        pages, batch_format="pyarrow")
    a = sorted((r["doc_id"], r["text_clean"], r["n_lines_removed"])
               for r in remove_duplicate_lines(ds).take_all())
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 0)
    b = sorted((r["doc_id"], r["text_clean"], r["n_lines_removed"])
               for r in remove_duplicate_lines(ds).take_all())
    assert a == b
    assert all(row[2] >= 1 for row in a)  # the header is always hot


def test_min_docs_threshold(ray_session):
    from swishray.ops.boilerplate import remove_duplicate_lines
    out = remove_duplicate_lines(_ds(), min_docs=4).take_all()
    got = {r["doc_id"]: r["n_lines_removed"] for r in out}
    # HEADER in 4 docs -> removed at min_docs=4; FOOTER only in 3 -> kept
    assert got == {1: 1, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0}


def test_redact_pii(ray_session):
    import ray.data as rd
    from swishray.ops.textstats import redact_pii
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "mail a.b+c@foo-bar.example.org now",
            "call 555-0199 or 800.1234 x2",
            "clean text, no pii 12-34"], pa.string())})
    out = {r["doc_id"]: r for r in
           redact_pii(rd.from_arrow(t)).take_all()}
    assert out[1]["text_redacted"] == "mail <EMAIL> now"
    assert (out[1]["n_emails"], out[1]["n_phones"]) == (1, 0)
    assert out[2]["text_redacted"] == "call <PHONE> or <PHONE> x2"
    assert (out[2]["n_emails"], out[2]["n_phones"]) == (0, 2)
    assert out[3]["text_redacted"] == "clean text, no pii 12-34"
    assert (out[3]["n_emails"], out[3]["n_phones"]) == (0, 0)


def test_repetition_stats(ray_session):
    import ray.data as rd
    from swishray.ops.textstats import repetition_stats
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "a b\na b\nc",      # dup line "a b" x2; words a:2 b:2 c:1
            "x y z",            # no dups
            ""],                # empty: 1 empty line, 0 words
            pa.string())})
    out = {r["doc_id"]: r for r in
           repetition_stats(rd.from_arrow(t)).take_all()}
    assert (out[1]["n_lines"], out[1]["n_dup_lines"]) == (3, 2)
    assert (out[1]["n_words"], out[1]["max_word_tf"]) == (5, 2)
    assert (out[2]["n_lines"], out[2]["n_dup_lines"]) == (1, 0)
    assert (out[2]["n_words"], out[2]["max_word_tf"]) == (3, 1)
    assert (out[3]["n_lines"], out[3]["n_dup_lines"]) == (1, 0)
    assert (out[3]["n_words"], out[3]["max_word_tf"]) == (0, 0)


GROUPED = [
    # host a: NAV repeated on both pages -> stripped within host a
    (1, "a", "NAV A\nalpha body"),
    (2, "a", "NAV A\nbeta body\nCROSS"),
    # host b: NAV A appears ONCE here -> kept for host b
    (3, "b", "NAV A\ngamma body\nCROSS"),
    (4, "b", "NAV B\ndelta body"),
    (5, "b", "NAV B\nepsilon body\nCROSS"),
]
GROUP_EXPECT = {
    # CROSS occurs in 3 docs globally but never twice within one
    # host for host a (once) — host b has it twice -> stripped there
    1: ("alpha body", 1),
    2: ("beta body\nCROSS", 1),
    3: ("NAV A\ngamma body", 1),
    4: ("delta body", 1),
    5: ("epsilon body", 2),
}


def _gds(rows=GROUPED):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "host": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string())}))


@pytest.mark.parametrize("mode,seed", _paths(seeds=(0, 3)))
def test_group_scoped_boilerplate(ray_session, monkeypatch, mode, seed):
    """group_col scopes the census per host: a line shared across
    hosts but unique within each is kept; per-host repeats go."""
    from swishray.ops.boilerplate import remove_duplicate_lines
    if mode == "join":
        monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 0)
    rows = GROUPED if seed is None else _seeded(seed)
    expect = GROUP_EXPECT if seed is None else _strip_oracle(rows)
    out = remove_duplicate_lines(
        _gds(rows), group_col="host").take_all()
    got = {r["doc_id"]: (r["text_clean"], r["n_lines_removed"])
           for r in out}
    assert got == expect


def test_group_scoped_differs_from_global(ray_session):
    """The same corpus globally deduped DOES strip the cross-host
    line — proving the scoping changes behavior, not just hashes."""
    from swishray.ops.boilerplate import remove_duplicate_lines
    out = remove_duplicate_lines(_gds()).take_all()
    got = {r["doc_id"]: r["text_clean"] for r in out}
    assert got[2] == "beta body"          # CROSS stripped globally
    assert got[3] == "gamma body"         # NAV A global count = 2


def test_remove_duplicate_spans(ray_session):
    """Lee-et-al-style span cut: a shared 6-word slogan (covered by
    hot 4-grams) vanishes as one span wherever it appears; unique
    text and sub-n repeats survive."""
    from swishray.ops.boilerplate import remove_duplicate_spans

    slogan = "all your base are belong here"
    rows = [
        (1, f"intro words {slogan} tail one"),
        (2, f"{slogan} second doc body"),
        (3, "totally unique text with no repeats at all"),
        (4, "short repeat short repeat"),   # 2-grams repeat, < n
        (5, f"middle {slogan}"),
    ]
    import ray.data as rd
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string())}))
    out = {r["doc_id"]: r for r in
           remove_duplicate_spans(ds, n=4).take_all()}
    assert out[1]["text_clean"] == "intro words tail one"
    assert out[1]["n_words_removed"] == 6
    assert out[2]["text_clean"] == "second doc body"
    assert out[3]["text_clean"] == rows[2][1]
    assert out[3]["n_words_removed"] == 0
    assert out[4]["text_clean"] == rows[3][1]
    assert out[5]["text_clean"] == "middle"


def test_remove_duplicate_spans_overlap_merge(ray_session):
    """Two hot spans overlapping in one doc merge into one cut; a
    doc that is ENTIRELY a hot span keeps an empty row."""
    from swishray.ops.boilerplate import remove_duplicate_spans
    import ray.data as rd

    a = "one two three four five"
    b = "three four five six seven"
    rows = [
        (1, a), (2, a),            # make a hot
        (3, b), (4, b),            # make b hot
        (5, f"head {a} six seven tail"),  # a + b overlap via suffix
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string())}))
    out = {r["doc_id"]: r for r in
           remove_duplicate_spans(ds, n=5).take_all()}
    assert out[1]["text_clean"] == "" and out[1]["n_words_removed"] == 5
    assert out[5]["text_clean"] == "head tail"
    assert out[5]["n_words_removed"] == 7
