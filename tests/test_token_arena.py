"""The columnar token arena: ``tokenizer.TokenList`` and the token
columns ``pipeline.token_columns`` builds from it."""

import numpy as np
import pyarrow as pa
import pytest

from swishray import pipeline, tokenizer
from swishray.tokenizer import TokenList, tokenize_into

SAMPLES = [
    b"Hello WORLD plain ascii 123 mixed-Case",
    b"f\xc3\xbcr caf\xc3\xa9 \xce\xb1\xce\xb2\xce\xb3 \xc3\x9cber",
    b"bump\x03here 'quoted' __const__ trailing'",
    b"x" * 600 + b" tail",
    b"",
    b"\x03\x03",
]


def _stream(tl: TokenList) -> list:
    return list(zip(tl.values, tl.positions, tl.metas, tl.contexts,
                    tl.offsets))


def test_views_follow_the_flushes():
    tl = TokenList()
    assert tokenize_into(tl, b"Alpha beta", "m1", "c1") == 2
    assert tokenize_into(tl, b"\x03Gamma", "m2", "c2") == 1
    assert tokenize_into(tl, b"delta", "m2", "c2") == 1
    assert _stream(tl) == [
        (b"alpha", 1, "m1", "c1", 0), (b"beta", 2, "m1", "c1", 6),
        (b"gamma", 4, "m2", "c2", 11), (b"delta", 5, "m2", "c2", 17)]
    # one chunk per flush that made tokens; equal adjacent runs merge
    assert len(tl.value_chunks) == 3
    assert tl.runs == [("m1", "c1", 2), ("m2", "c2", 2)]
    assert len(tl) == 4 and tl.pos == 5 and tl._offset == 23


@pytest.mark.skipif(tokenizer._native is None, reason="swishtok not built")
@pytest.mark.parametrize("data", SAMPLES)
def test_native_and_python_fill_the_same_arena(data):
    py = TokenList()
    tokenizer._tokenize_into_py(py, data, "m", "c")
    nat = TokenList()
    tokenize_into(nat, data, "m", "c")
    assert nat == py
    assert (nat.pos, nat._offset) == (py.pos, py._offset)


def test_add_and_map_values():
    tl = TokenList()
    tokenize_into(tl, b"one two", "a", "a")
    for v in (b"three", b"four"):
        tl.add(v, "b", "b")
    assert tl.values == [b"one", b"two", b"three", b"four"]
    assert tl.positions == [1, 2, 3, 4]
    assert tl.runs == [("a", "a", 2), ("b", "b", 2)]
    assert tl.offsets == [0, 4, 8, 14]
    tl.map_values(lambda v: v[:2])
    assert tl.values == [b"on", b"tw", b"th", b"fo"]
    assert tl.offsets == [0, 3, 6, 9] and tl._offset == 12
    assert tl.positions == [1, 2, 3, 4]

    def boom(v):
        raise ValueError(v)
    with pytest.raises(ValueError):
        tl.map_values(boom)
    assert tl.values == [b"on", b"tw", b"th", b"fo"]


def test_equality_is_by_token_stream():
    a, b = TokenList(), TokenList()
    tokenize_into(a, b"x y", "m", "c")
    for v in (b"x", b"y"):
        b.add(v, "m", "c")
    assert a == b
    b.add(b"z", "m", "c")
    assert a != b


def _lists(n_docs: int) -> list:
    out = []
    for i in range(n_docs):
        tl = TokenList()
        for j in range(i % 4):
            tokenize_into(tl, b"w%d alpha%d beta" % (i, j), f"m{j % 2}",
                          f"c{i % 3}")
        out.append(tl)
    return out


def _pylists(cols: dict) -> dict:
    return {k: (v.to_pylist() if not isinstance(v, pa.ChunkedArray)
                else v.combine_chunks().to_pylist())
            for k, v in cols.items()}


def test_token_columns_match_the_views():
    tls = _lists(9)
    cols = pipeline.token_columns(tls)
    assert cols["token_values"].type == pa.list_(pa.binary())
    assert cols["token_positions"].type == pa.list_(pa.uint32())
    assert cols["token_runs"].type == pa.list_(pa.struct(
        [("meta", pa.string()), ("context", pa.string()),
         ("count", pa.int32())]))
    assert _pylists(cols) == {
        "token_values": [tl.values for tl in tls],
        "token_positions": [tl.positions for tl in tls],
        "token_runs": [[{"meta": m, "context": c, "count": k}
                        for m, c, k in tl.runs] for tl in tls]}
    expanded = pipeline.expand_record(pa.table(cols))
    assert expanded.column_names == ["token_values", "token_positions",
                                     "token_metas", "token_contexts"]
    assert expanded.column("token_metas").to_pylist() == \
        [tl.metas for tl in tls]
    assert expanded.column("token_contexts").to_pylist() == \
        [tl.contexts for tl in tls]
    empty = pipeline.token_columns([])
    assert all(len(v) == 0 for v in empty.values())


def test_token_columns_split_before_int32_offsets_wrap(monkeypatch):
    """A batch past the int32 offset range becomes a ChunkedArray split
    at row boundaries, with the same logical rows."""
    tls = _lists(11)
    whole = _pylists(pipeline.token_columns(tls))
    monkeypatch.setattr(pipeline, "_MAX_INT32_OFFSET", 40)
    cols = pipeline.token_columns(tls)
    assert all(isinstance(v, pa.ChunkedArray) and v.num_chunks > 2
               for v in cols.values())
    for v in cols.values():
        for ch in v.chunks:
            vals = ch.flatten()
            assert len(vals) <= 40
            if pa.types.is_binary(vals.type):
                assert np.frombuffer(vals.buffers()[1], np.int32)[
                    vals.offset + len(vals)] <= 40
    assert _pylists(cols) == whole
    # one row alone past the range cannot be represented
    monkeypatch.setattr(pipeline, "_MAX_INT32_OFFSET", 5)
    with pytest.raises(OverflowError):
        pipeline.token_columns(tls)


def test_batches_with_different_dictionaries_concatenate():
    from swishray.pipeline import ExtractPages
    pages = pa.table({
        "url": ["a.html", "b.xml", "c.txt"],
        "html": [b"<html><head><title>T</title></head><body>x y</body>"
                 b"</html>",
                 b"<?xml version='1.0'?><r><p>one</p><q>two</q></r>",
                 b"plain text"]})
    ep = ExtractPages(emit="full")
    parts = [ep(pages.slice(i, 1)) for i in range(3)]
    both = pa.concat_tables(parts)
    assert both.equals(ep(pages))
    assert both.combine_chunks().column("token_runs").to_pylist() == \
        both.column("token_runs").to_pylist()
