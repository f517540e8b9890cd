"""PDF text tier (ops/pdftext.py): content-stream parser, the
synthesis builder, per-row error discipline, and the Dataset stage.
The roundtrip contract is additionally oracle-checked by the
``pdf_text`` queries() entry."""
import zlib

import pyarrow as pa

from swishray.ops.pdftext import (PdfTextExtract, build_simple_pdf,
                                  extract_pdf_text, pdf_text_from_bytes)


def _wrap_raw(content: bytes, extra: bytes = b"") -> bytes:
    return (b"%PDF-1.4\n" + extra + b"1 0 obj\n<< /Length " +
            str(len(content)).encode() + b" >>\nstream\n" + content +
            b"\nendstream\nendobj\n")


def test_roundtrip_compressed_and_plain():
    lines = ["First line of text", "Second (with parens)",
             "Back\\slash and more"]
    for compress in (True, False):
        txt, used, skipped, err = pdf_text_from_bytes(
            build_simple_pdf(lines, compress=compress))
        assert txt == "\n".join(lines)
        assert (used, skipped, err) == (1, 0, None)


def test_flate_body_ending_in_eol_bytes():
    # compressed data whose final byte IS \n — the /Length path must
    # not trim it (the historical rstrip bug, docs 275/445 at sf0.01)
    for filler in ("a row a window merge hash window group order join",
                   "x" * 257):
        pdf = build_simple_pdf([filler])
        body_starts = pdf.find(b"stream\n") + 7
        assert pdf_text_from_bytes(pdf)[0] == filler, \
            pdf[body_starts:body_starts + 8]


def test_hex_strings_and_tstar():
    content = b"BT <48656C6C6F> Tj T* (next) Tj ET"
    assert pdf_text_from_bytes(_wrap_raw(content))[0] == "Hello\nnext"


def test_tj_array_concatenates_ignoring_kerning():
    content = b"BT [(ab) -120 (cd) <20> (ef)] TJ ET"
    assert pdf_text_from_bytes(_wrap_raw(content))[0] == "abcd ef"


def test_octal_and_named_escapes():
    content = rb"BT (oct\101 nl\n paren\) bs\\ cont\
inued) Tj ET"
    txt = pdf_text_from_bytes(_wrap_raw(content))[0]
    assert txt == "octA nl\n paren) bs\\ continued"


def test_quote_ops_start_new_lines():
    content = b"BT (a) Tj (b) ' (c) \" ET"
    assert pdf_text_from_bytes(_wrap_raw(content))[0] == "a\nb\nc"


def test_unknown_filter_skipped_and_counted():
    dct = b"1 0 obj\n<< /Length 5 /Filter /DCTDecode >>\nstream\nxxxxx\nendstream\n"
    pdf = b"%PDF-1.4\n" + dct + _wrap_raw(b"BT (kept) Tj ET")[9:]
    txt, used, skipped, err = pdf_text_from_bytes(pdf)
    assert (txt, used, skipped, err) == ("kept", 1, 1, None)


def test_corrupt_flate_skipped():
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length 8 /Filter /FlateDecode >>"
           b"\nstream\nnotzlib!\nendstream\n")
    txt, used, skipped, err = pdf_text_from_bytes(pdf)
    assert (used, skipped) == (0, 1)


def test_wrong_length_falls_back_to_endstream_scan():
    content = b"BT (fallback) Tj ET"
    pdf = (b"%PDF-1.4\n1 0 obj\n<< /Length 9999 >>\nstream\n" +
           content + b"\nendstream\n")
    assert pdf_text_from_bytes(pdf)[0] == "fallback"


def test_non_pdf_and_error_rows():
    ex = PdfTextExtract(pdf_col="pdf", key="k")
    t = ex(pa.table({
        "k": ["a", "b", "c"],
        "pdf": pa.array([b"GIF89a...", None,
                         build_simple_pdf(["ok"])], pa.large_binary())}))
    d = t.to_pydict()
    assert d["error"] == ["not_pdf", "null_body", None]
    assert d["text"] == ["", "", "ok"]


def test_dataset_stage(ray_session):
    import ray.data as rd
    rows = [{"k": f"d{i}", "pdf": build_simple_pdf(
        [f"doc {i} line one", "line two"])} for i in range(30)]
    out = extract_pdf_text(rd.from_items(rows).repartition(4),
                           pdf_col="pdf", key="k").to_pandas()
    assert len(out) == 30
    assert (out["n_streams"] == 1).all()
    assert out["text"].str.endswith("line two").all()
