"""Full-record behaviour lock for ``ExtractPages(emit="full")``.

For the seeded ``perfbench/corpus.py`` markup_dense, text_bulk and
dedup_chain tables (seeds 31 and 32), every column of every output row is frozen
as a 32-bit digest of its LOGICAL value: the docinfo fields, title,
text, every metaname and property buffer (as sorted key/value pairs)
and the whole token stream (values, positions, metas, contexts). The
digest is taken over the record in its per-token shape
(``pipeline.expand_record``: the run table as per-token metas and
contexts, the ``swishdefault`` buffer back in the map) and over Python
values, so a change of Arrow encoding (run tables, a columnar token
arena) keeps it; any change of extracted content breaks it, and the
failure names the first differing row and column.

Runs in-process, without Ray. After an intended output change,
regenerate the goldens from the repo root with::

    python3 tests/test_record_lock.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # perfbench/, when run as a script
GOLDEN = ROOT / "tests" / "goldens" / "record_lock.json"
TABLES = [("markup_dense", 31), ("markup_dense", 32),
          ("text_bulk", 31), ("text_bulk", 32),
          ("dedup_chain", 31), ("dedup_chain", 32)]


def _canon(v, out: bytearray) -> None:
    """Type-tagged, length-prefixed encoding of a logical value."""
    if v is None:
        out += b"N"
    elif isinstance(v, int):
        out += b"I%d;" % v
    elif isinstance(v, str):
        b = v.encode("utf-8", "surrogatepass")
        out += b"S%d:" % len(b) + b
    elif isinstance(v, bytes):
        out += b"B%d:" % len(v) + v
    elif isinstance(v, (list, tuple)):
        out += b"L%d:" % len(v)
        for x in v:
            _canon(x, out)
    else:
        raise TypeError(f"no canonical form for {type(v).__name__}")


def _digest(b: bytes) -> str:
    return hashlib.blake2b(b, digest_size=4).hexdigest()


def _cell_digest(col: str, v) -> str:
    if col in ("metanames", "properties"):  # a map: order-free pairs
        v = sorted(v or [])
    buf = bytearray()
    _canon(v, buf)
    return _digest(bytes(buf))


def _token_digests(col: pa.ChunkedArray) -> str:
    """Per-row digests of a list column (the token stream), read from
    Arrow buffers rather than ``to_pylist`` (seconds per column on
    text_bulk). The canonical form of a row is still logical: its
    element count, then each element as int64 (integers) or as int64
    byte lengths followed by the concatenated bytes (strings, binary;
    dictionary-encoded elements are decoded first)."""
    arr = col.combine_chunks()
    vals = arr.flatten()
    if pa.types.is_dictionary(vals.type):
        vals = vals.dictionary_decode()
    assert vals.null_count == 0 and arr.null_count == 0
    bounds = np.concatenate([[0], np.cumsum(
        pc.list_value_length(arr).to_numpy(zero_copy_only=False))])
    if pa.types.is_integer(vals.type):
        ints = vals.to_numpy().astype("<i8")
        return "".join(
            _digest(b"P%d:" % (b - a) + ints[a:b].tobytes())
            for a, b in zip(bounds[:-1], bounds[1:]))
    vals = vals.cast(pa.large_binary())
    voff = np.frombuffer(vals.buffers()[1], dtype="<i8")[
        vals.offset:vals.offset + len(vals) + 1]
    lens = np.diff(voff)
    data = memoryview(vals.buffers()[2]) if len(vals) else b""
    return "".join(
        _digest(b"L%d:" % (b - a) + lens[a:b].tobytes()
                + bytes(data[voff[a]:voff[b]]))
        for a, b in zip(bounds[:-1], bounds[1:]))


def record_digests(workload: str, seed: int) -> dict:
    """{"urls": [...], "columns": {name: concatenated 8-hex digests}}
    of one extraction pass over the seeded table."""
    from perfbench.corpus import make_table
    from swishray.pipeline import ExtractPages, expand_record

    table, _ = make_table(workload, seed)
    out = expand_record(ExtractPages(emit="full")(table))
    cols = {}
    for name in out.column_names:
        col = out.column(name)
        cols[name] = (_token_digests(col) if name.startswith("token_")
                      else "".join(_cell_digest(name, v)
                                   for v in col.to_pylist()))
    return {"urls": out.column("url").to_pylist(), "columns": cols}


def _first_difference(want: dict, got: dict) -> str | None:
    if want["urls"] != got["urls"]:
        i = next((i for i, (a, b) in enumerate(zip(want["urls"],
                                                   got["urls"]))
                  if a != b), min(len(want["urls"]), len(got["urls"])))
        return f"row {i}: url or row count differs"
    if sorted(want["columns"]) != sorted(got["columns"]):
        return (f"column set differs: want {sorted(want['columns'])}, "
                f"got {sorted(got['columns'])}")
    for i, url in enumerate(want["urls"]):
        for name, digests in want["columns"].items():
            a = digests[8 * i:8 * i + 8]
            if a != got["columns"][name][8 * i:8 * i + 8]:
                return f"row {i} ({url}), column {name!r}"
    return None


@pytest.mark.parametrize("workload,seed", TABLES)
def test_full_record_matches_lock(workload, seed):
    want = json.loads(GOLDEN.read_text())[f"{workload}/{seed}"]
    diff = _first_difference(want, record_digests(workload, seed))
    assert diff is None, f"{workload} seed {seed}: first difference at {diff}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {f"{w}/{s}": record_digests(w, s) for w, s in TABLES},
        indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
