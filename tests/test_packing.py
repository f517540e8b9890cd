"""GPT-style sequence packing (swishray/ops/packing.py)."""

import pyarrow as pa


def test_pack_documents_exact_chunks(ray_session):
    import ray.data as rd
    from swishray.ops.packing import pack_documents
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "grp": pa.array([0, 0, 1, 1], pa.int64()),
        "text": pa.array(["a b c", "d e", "x", ""], pa.string())})
    out = pack_documents(rd.from_arrow(t), max_tokens=4,
                         group_col="grp").take_all()
    got = {(r["grp"], r["chunk_id"]): (r["n_tokens"], r["text"])
           for r in out}
    # grp0 stream: a b c <|eod|> d e <|eod|>  -> [4, 3]
    assert got[(0, 0)] == (4, "a b c <|eod|>")
    assert got[(0, 1)] == (3, "d e <|eod|>")
    # grp1 stream: x <|eod|> <|eod|> (empty doc still emits its eod)
    assert got[(1, 0)] == (3, "x <|eod|> <|eod|>")
    assert len(got) == 3


def test_pack_documents_parallelism_invariant(ray_session, spread):
    """Same output at 1 block and many blocks (packing is group-
    defined, not block-defined), and equal to a single-process
    replay of every group's token stream."""
    import ray.data as rd
    from swishray.ops.packing import EOD, pack_documents
    spread(range(6))
    t = pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "grp": pa.array([i % 6 for i in range(40)], pa.int64()),
        "text": pa.array([f"w{i} w{i} w{i}" for i in range(40)],
                         pa.string())})
    a = sorted((r["grp"], r["chunk_id"], r["n_tokens"], r["text"])
               for r in pack_documents(rd.from_arrow(t), 7,
                                       "grp").take_all())
    many = rd.from_arrow(t).repartition(13)
    b = sorted((r["grp"], r["chunk_id"], r["n_tokens"], r["text"])
               for r in pack_documents(many, 7, "grp").take_all())
    assert a == b
    want = []
    for g in range(6):
        toks = [w for i in range(g, 40, 6)
                for w in [f"w{i}"] * 3 + [EOD]]
        want += [(g, c, len(toks[c * 7:c * 7 + 7]),
                  " ".join(toks[c * 7:c * 7 + 7]))
                 for c in range(-(-len(toks) // 7))]
    assert a == sorted(want)
    # every non-final chunk is exactly full
    per_grp_max = {}
    for grp, ci, n, _ in a:
        per_grp_max[grp] = max(per_grp_max.get(grp, -1), ci)
    for grp, ci, n, _ in a:
        if ci < per_grp_max[grp]:
            assert n == 7


def test_chunk_documents(ray_session):
    import ray.data as rd
    from swishray.ops.packing import chunk_documents
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["a b c d e f g", "x  y", "", None],
                         pa.string())})
    out = chunk_documents(rd.from_arrow(t).repartition(2),
                          max_words=3, overlap=1).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    d0 = out[out.doc_id == 0]
    # stride 2: windows at 0,2,4 — the 4-start window reaches the end
    assert d0["chunk"].tolist() == ["a b c", "c d e", "e f g"]
    assert d0["n_words"].tolist() == [3, 3, 3]
    assert out[out.doc_id == 1]["chunk"].tolist() == ["x y"]
    assert (out.doc_id >= 2).sum() == 0  # empty/null: no rows
    import pytest
    with pytest.raises(ValueError):
        chunk_documents(rd.from_arrow(t), max_words=3, overlap=3)
