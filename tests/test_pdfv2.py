"""Structured PDF tier (ops/pdfcos, pdfcrypt, pdfpage, pdfbuild):
COS parser, filters, xref flavors, object streams, fonts/ToUnicode,
encryption, layout — round-tripped through the deterministic builder
(the container has no external PDF library; the builder is the
oracle, same strategy as the FLAC/WARC/TIFF writer counterparts)."""
from __future__ import annotations

import zlib

import pytest

from swishray.ops.pdfbuild import build_pdf
from swishray.ops.pdfcos import (Name, PdfDocument, PdfError, Ref,
                                 apply_filters, parse_object)
from swishray.ops.pdfcrypt import AES, rc4
from swishray.ops.pdfpage import document_text, parse_tounicode
from swishray.ops.pdftext import pdf_extract, build_simple_pdf

PAGES = [["Hello world one", "second line here"],
         ["page two text", "more words"]]
EXPECT = "Hello world one\nsecond line here\n\npage two text\nmore words"


def _text(pdf: bytes) -> str:
    return document_text(pdf)[0]


# ---------------------------------------------------------------------
# COS object parser

class TestParser:
    def test_scalars(self):
        assert parse_object(b" true ")[0] is True
        assert parse_object(b"false")[0] is False
        assert parse_object(b"null")[0] is None
        assert parse_object(b"42")[0] == 42
        assert parse_object(b"-3.5")[0] == -3.5
        assert parse_object(b".5")[0] == 0.5

    def test_name_escapes(self):
        obj, _ = parse_object(b"/A#20B#2FC")
        assert obj == Name("A B/C")

    def test_literal_string(self):
        obj, _ = parse_object(rb"(a\(b\)c \\ \n \101 (nested))")
        assert obj == b"a(b)c \\ \n A (nested)"

    def test_string_line_continuation(self):
        obj, _ = parse_object(b"(ab\\\ncd)")
        assert obj == b"abcd"

    def test_hex_string(self):
        assert parse_object(b"<48656C6C6F>")[0] == b"Hello"
        assert parse_object(b"<48 65 6>")[0] == b"He`"

    def test_refs_vs_ints(self):
        obj, _ = parse_object(b"[1 0 R 2 3 4 1 R]")
        assert obj == [Ref(1, 0), 2, 3, Ref(4, 1)]
        # 'R' must be a standalone token: "Random" is a keyword, so
        # 1 and 0 stay plain ints (and the stray keyword is an error)
        with pytest.raises(PdfError):
            parse_object(b"[1 0 Random]")
        assert parse_object(b"[1 0]")[0] == [1, 0]

    def test_dict_nested(self):
        obj, _ = parse_object(
            b"<< /A << /B [1 2] >> /C (x) /D /N >>")
        assert obj == {"A": {"B": [1, 2]}, "C": b"x", "D": Name("N")}

    def test_comments_skipped(self):
        assert parse_object(b"% comment\n 7")[0] == 7


# ---------------------------------------------------------------------
# filters

class TestFilters:
    def test_flate_roundtrip(self):
        data = b"swishray" * 100
        assert apply_filters(zlib.compress(data),
                             Name("FlateDecode"), None) == data

    def test_flate_png_predictor(self):
        # two rows of four bytes, Up filter
        raw = b"\x02\x01\x02\x03\x04" + b"\x02\x01\x01\x01\x01"
        out = apply_filters(
            zlib.compress(raw), Name("FlateDecode"),
            {"Predictor": 12, "Columns": 4})
        assert out == bytes([1, 2, 3, 4, 2, 3, 4, 5])

    def test_ascii_hex(self):
        assert apply_filters(b"48 65 6C 6C 6F>", Name("AHx"),
                             None) == b"Hello"

    def test_ascii85(self):
        import base64
        data = b"some pdf content bytes \x00\xff"
        enc = base64.a85encode(data) + b"~>"
        assert apply_filters(enc, Name("ASCII85Decode"),
                             None) == data
        # 'z' shorthand for four zero bytes
        assert apply_filters(b"z~>", Name("A85"), None) == b"\0\0\0\0"

    def test_runlength(self):
        from swishray.ops.pdfbuild import _rl_encode
        data = b"aaaaaabcdefff" * 20 + b"\x00" * 300
        assert apply_filters(_rl_encode(data),
                             Name("RunLengthDecode"), None) == data

    def test_lzw(self):
        from swishray.ops.tiff import _tiff_lzw_encode
        data = b"the same coder family as TIFF" * 40
        assert apply_filters(_tiff_lzw_encode(data),
                             Name("LZWDecode"), None) == data

    def test_chain(self):
        data = b"chained"
        enc = zlib.compress(data).hex().encode() + b">"
        assert apply_filters(
            enc, [Name("ASCIIHexDecode"), Name("FlateDecode")],
            None) == data

    def test_unknown_filter_raises(self):
        with pytest.raises(PdfError):
            apply_filters(b"x", Name("NoSuchFilter"), None)
        with pytest.raises(PdfError, match="opaque"):
            apply_filters(b"x", Name("DCTDecode"), None)


# ---------------------------------------------------------------------
# AES / RC4 (FIPS-197 + classic public vectors run at import; these
# pin the CBC + PDF-layer behavior)

class TestCrypto:
    def test_aes_cbc_roundtrip_all_keylens(self):
        for klen in (16, 24, 32):
            a = AES(bytes(range(klen)))
            iv = bytes(range(16, 32))
            pt = b"sixteen byte blk" * 3
            assert a.cbc_decrypt(a.cbc_encrypt(pt, iv), iv) == pt

    def test_rc4_symmetry(self):
        key = b"\x01\x02\x03\x04\x05"
        data = b"pdf object bytes"
        assert rc4(key, rc4(key, data)) == data


# ---------------------------------------------------------------------
# round-trip feature matrix

MATRIX = [
    dict(),
    dict(xref_stream=True),
    dict(object_streams=True),
    dict(font="type0"),
    dict(differences=True),
    dict(use_tj=True),
    dict(form_xobject=True),
    dict(filters=["LZWDecode"]),
    dict(filters=["ASCIIHexDecode", "FlateDecode"]),
    dict(filters=["ASCII85Decode"]),
    dict(filters=["RunLengthDecode"]),
    dict(encrypt="rc4-40"),
    dict(encrypt="rc4-128"),
    dict(encrypt="aes-128"),
    dict(encrypt="aes-256"),
    dict(encrypt="aes-256", object_streams=True, font="type0"),
    dict(encrypt="aes-128", xref_stream=True, use_tj=True),
    dict(encrypt="rc4-128", filters=["LZWDecode"],
         differences=True),
]


@pytest.mark.parametrize("kw", MATRIX,
                         ids=[str(sorted(k.items())) for k in MATRIX])
def test_roundtrip_matrix(kw):
    pdf = build_pdf(PAGES, **kw)
    assert _text(pdf) == EXPECT


def test_unicode_through_type0():
    pages = [["héllo wörld — ümlaut", "日本語テキスト"]]
    pdf = build_pdf(pages, font="type0")
    assert _text(pdf) == "héllo wörld — ümlaut\n日本語テキスト"


def test_two_column_reads_column_major():
    # the gutter detector restores column-major reading order: the
    # original line list round-trips exactly
    lines = ["left one", "left two", "left three",
             "right A", "right B", "right C"]
    pdf = build_pdf([lines], two_column=True)
    assert _text(pdf) == "\n".join(lines)


def test_sparse_gaps_do_not_split_columns():
    # wide TJ kern gaps on a few lines are not a gutter
    pdf = build_pdf([["a b c", "d e f", "g h i"]], use_tj=True)
    assert _text(pdf) == "a b c\nd e f\ng h i"


def test_multipage_order_and_counts():
    pdf = build_pdf(PAGES, xref_stream=True)
    txt, n_pages, n_skip = document_text(pdf)
    assert n_pages == 2 and n_skip == 0 and txt == EXPECT


# ---------------------------------------------------------------------
# crawl resilience

class TestResilience:
    def test_broken_xref_offsets_rebuild(self):
        pdf = bytearray(build_pdf(PAGES))
        at = pdf.rfind(b"startxref")
        end = pdf.find(b"\n", at + 10)
        pdf[at + 10:end] = b"9" * (end - at - 10)  # bogus offset
        assert _text(bytes(pdf)) == EXPECT

    def test_leading_junk_before_header(self):
        pdf = b"HTTP/1.0 200 OK\r\n\r\n" + build_pdf(PAGES)
        assert _text(pdf) == EXPECT

    def test_wrong_stream_length_recovers(self):
        pdf = build_simple_pdf(["recovered line"], compress=False)
        pdf = pdf.replace(b"/Length", b"/Length 9999 %", 1)
        txt, mode, _, _, err = pdf_extract(pdf)
        assert "recovered line" in txt

    def test_not_pdf(self):
        with pytest.raises(PdfError):
            PdfDocument(b"<html>not a pdf</html>")

    def test_truncated_pdf_falls_back_to_scan(self):
        pdf = build_pdf(PAGES)
        cut = pdf[:len(pdf) * 2 // 3]
        txt, mode, _, _, _ = pdf_extract(cut)
        assert mode in ("structured", "scan")  # never raises

    def test_fuzz_never_raises(self):
        import hashlib
        base = build_pdf(PAGES, xref_stream=True, font="type0")
        for trial in range(60):
            h = hashlib.sha256(b"pdfuzz%d" % trial).digest()
            mut = bytearray(base)
            for k in range(8):
                pos = int.from_bytes(h[k * 3:k * 3 + 3],
                                     "big") % len(mut)
                mut[pos] = h[(k + 8) % 32]
            pdf_extract(bytes(mut))  # must not raise

    def test_cyclic_pages_guarded(self):
        # a page tree whose kid points back at the root
        pdf = (b"%PDF-1.4\n"
               b"1 0 obj << /Type /Catalog /Pages 2 0 R >> endobj\n"
               b"2 0 obj << /Type /Pages /Kids [2 0 R] /Count 1 >>"
               b" endobj\n"
               b"trailer << /Root 1 0 R >>\n")
        doc = PdfDocument(pdf)
        assert list(doc.pages()) == []


# ---------------------------------------------------------------------
# ToUnicode CMap parser

class TestToUnicode:
    def test_bfchar_and_bfrange(self):
        cmap = (b"1 begincodespacerange <0000> <FFFF>"
                b" endcodespacerange\n"
                b"2 beginbfchar <0041> <0061> <0042> <00480069>"
                b" endbfchar\n"
                b"1 beginbfrange <0050> <0052> <0070> endbfrange\n")
        m, lens = parse_tounicode(cmap)
        assert m[0x41] == "a"
        assert m[0x42] == "Hi"          # multi-char target
        assert m[0x50] == "p" and m[0x52] == "r"
        assert lens == [2]

    def test_bfrange_array_form(self):
        cmap = (b"1 beginbfrange <01> <03> [<0058> <0059> <005A>]"
                b" endbfrange")
        m, lens = parse_tounicode(cmap)
        assert (m[1], m[2], m[3]) == ("X", "Y", "Z")
        assert lens == [1]


# ---------------------------------------------------------------------
# the unified cascade + the Ray stage

def test_pdf_extract_modes():
    pdf = build_pdf(PAGES, encrypt="aes-128")
    txt, mode, n_pages, n_skip, err = pdf_extract(pdf)
    assert mode == "structured" and n_pages == 2 and err is None
    assert txt == EXPECT
    # scan tier can't see into encryption; structured is the win
    from swishray.ops.pdftext import pdf_text_from_bytes
    scan_txt, _, _, _ = pdf_text_from_bytes(pdf)
    assert "Hello world" not in scan_txt


def test_stage_auto_mode(ray_session):
    import pyarrow as pa
    import ray
    from swishray.ops.pdftext import extract_pdf_text
    pdfs = [build_pdf([["row %d text" % i]],
                      encrypt="aes-256" if i % 2 else None)
            for i in range(6)]
    tbl = pa.table({"url": [f"u{i}" for i in range(6)],
                    "pdf": pa.array(pdfs, pa.large_binary())})
    ds = ray.data.from_arrow(tbl)
    out = extract_pdf_text(ds, mode="auto").take_all()
    got = {r["url"]: r for r in out}
    for i in range(6):
        assert got[f"u{i}"]["text"] == "row %d text" % i
        assert got[f"u{i}"]["mode"] == "structured"


# ---------------------------------------------------------------------
# document info + link annotations

INFO = {"Title": "Héllo — Tïtle", "Author": "Ann Ouñor",
        "Subject": "日本語"}
LINKS = ["https://example.com/a?b=1", "mailto:x@y.z",
         "https://ünicode.example/päth"]


@pytest.mark.parametrize("kw", [
    dict(), dict(encrypt="aes-256"), dict(encrypt="rc4-128"),
    dict(object_streams=True),
    dict(object_streams=True, encrypt="aes-128"),
    dict(xref_stream=True, encrypt="aes-128"),
    # /StrF /Identity: strings stay plain while streams are encrypted
    dict(encrypt="aes-128", encrypt_strings=False),
    dict(encrypt="aes-256", encrypt_strings=False),
], ids=lambda k: str(sorted(k.items())))
def test_info_and_links_roundtrip(kw):
    from swishray.ops.pdfcos import document_info, document_links
    pdf = build_pdf([["body text"]], info=INFO, links=LINKS, **kw)
    doc = PdfDocument(pdf)
    assert document_info(doc) == INFO
    assert [u for _, u in document_links(doc)] == LINKS


def test_info_absent_and_broken():
    from swishray.ops.pdfcos import document_info, document_links
    doc = PdfDocument(build_pdf([["x"]]))
    assert document_info(doc) == {}
    assert document_links(doc) == []


# ---------------------------------------------------------------------
# reader-only paths with no writer counterpart (hand-built files)

class TestReaderOnlyPaths:
    def test_tiff_predictor_2(self):
        # horizontal differencing: rows of deltas accumulate
        raw = bytes([10, 5, 5, 5]) + bytes([1, 1, 1, 1])
        out = apply_filters(
            zlib.compress(raw), Name("FlateDecode"),
            {"Predictor": 2, "Columns": 4})
        assert out == bytes([10, 15, 20, 25, 1, 2, 3, 4])

    def test_incremental_update_overrides(self):
        # append an update section replacing the content stream; the
        # newest xref section (startxref target) must win
        base = build_pdf([["old text line"]])
        # find the content stream object number by parsing
        doc = PdfDocument(base)
        page = next(doc.pages())
        ref = page["Contents"]
        new_stream = (b"%d 0 obj\n<< /Length 44 >>\nstream\n"
                      b"BT /F1 11 Tf 72 720 Td (new text wins) Tj ET"
                      b"\nendstream\nendobj\n") % ref.num
        at = len(base) + 1
        upd = (b"\n" + new_stream
               + b"xref\n%d 1\n%010d 00000 n \n" % (ref.num, at)
               + b"trailer\n<< /Size 99 /Root 1 0 R /Prev %d >>\n"
               b"startxref\n%d\n%%%%EOF\n"
               % (base.rfind(b"xref"), at + len(new_stream)))
        merged = base + upd
        assert "new text wins" in document_text(merged)[0]
        assert "old text" not in document_text(merged)[0]

    def test_hybrid_xrefstm_bridge(self):
        # classic table whose trailer carries /XRefStm pointing at a
        # bridge xref stream that locates an extra object
        extra = b"77 0 obj\n(bridged)\nendobj\n"
        head = b"%PDF-1.4\n"
        at_extra = len(head)
        body = head + extra
        # xref stream (object 78) with one entry for object 77
        import zlib as _z
        row = b"\x01" + at_extra.to_bytes(4, "big") + b"\x00\x00"
        xs_body = _z.compress(row)
        xs = (b"78 0 obj\n<< /Type /XRef /Size 79 /W [1 4 2] "
              b"/Index [77 1] /Filter /FlateDecode /Length %d "
              b"/Root 1 0 R >>\nstream\n" % len(xs_body)
              ) + xs_body + b"\nendstream\nendobj\n"
        at_xs = len(body)
        body += xs
        at_xref = len(body)
        body += (b"xref\n0 1\n0000000000 65535 f \n"
                 b"trailer\n<< /Size 79 /Root 1 0 R /XRefStm %d >>\n"
                 b"startxref\n%d\n%%%%EOF\n" % (at_xs, at_xref))
        doc = PdfDocument(body, strict=True)
        assert doc.get(Ref(77, 0)) == b"bridged"

    def test_macroman_differences(self):
        from swishray.ops.pdfpage import Font

        class FakeDoc:
            def get(self, x):
                return x

            def stream_data(self, s):  # pragma: no cover
                raise AssertionError

        f = Font(FakeDoc(), {
            "Subtype": Name("Type1"),
            "Encoding": {"BaseEncoding": Name("MacRomanEncoding"),
                         "Differences": [65, Name("eacute"),
                                         Name("uni0042"),
                                         67, Name("space")]}})
        decoded = "".join(u for u, _w, _c in f.decode(b"ABC"))
        assert decoded == "éB "
        # MacRoman base survives outside the Differences range:
        # 0xA5 is bullet in mac-roman
        assert f.decode(b"\xa5")[0][0] == "•"

    def test_rc4_40_ignores_bogus_length(self):
        # R2 is always 40-bit whatever /Length claims
        from swishray.ops.pdfcrypt import _alg2_file_key
        k1 = _alg2_file_key({"R": 2, "O": b"o" * 32, "P": -1,
                             "Length": 128}, b"id", b"")
        assert len(k1) == 5


# ---------------------------------------------------------------------
# review-findings regressions

class TestReviewRegressions:
    def test_flate_leading_junk_bytes(self):
        # 1-2 junk bytes before the zlib header must recover (each
        # retry with its own decompressobj)
        data = b"pdf stream content " * 40
        for junk in (b"\x00", b"\r\n"):
            got = apply_filters(junk + zlib.compress(data),
                                Name("FlateDecode"), None)
            assert got == data

    def test_lzw_linear_time(self):
        import time
        from swishray.ops.tiff import _tiff_lzw_encode
        small = _tiff_lzw_encode(bytes(range(256)) * 64)
        big = _tiff_lzw_encode(bytes(range(256)) * 1024)
        t0 = time.perf_counter()
        apply_filters(small, Name("LZWDecode"), None)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        apply_filters(big, Name("LZWDecode"), None)
        t_big = time.perf_counter() - t0
        # 16x the input must not cost >80x the time (quadratic acc
        # growth showed ~200x here before the mask)
        assert t_big < 80 * max(t_small, 1e-3)

    def test_short_decodeparms_array(self):
        data = b"chained twice"
        enc = zlib.compress(data).hex().encode() + b">"
        got = apply_filters(
            enc, [Name("ASCIIHexDecode"), Name("FlateDecode")],
            [None])  # shorter than /Filter: must still run both
        assert got == data

    def test_19_byte_xref_rows(self):
        # single-EOL rows shift every subsequent record by one byte;
        # the tolerant row match must still find all objects
        pdf = build_pdf(PAGES)
        head, xref = pdf.split(b"xref\n", 1)
        xref = xref.replace(b" \n", b"\n")  # 20 -> 19 byte rows
        fixed = head + b"xref\n" + xref
        assert _text(fixed) == EXPECT

    def test_non_ascii_simple_font_roundtrip(self):
        pdf = build_pdf([["café naïve — em–dash €uro"]])
        assert _text(pdf) == "café naïve — em–dash €uro"

    def test_broken_startxref_encrypted_xref_stream(self):
        # the rebuild path must recover /Encrypt from the /Type
        # /XRef stream dict, or an encrypted file with a broken
        # startxref silently extracts nothing
        pdf = bytearray(build_pdf(PAGES, encrypt="rc4-128",
                                  xref_stream=True))
        at = pdf.rfind(b"startxref")
        end = pdf.find(b"\n", at + 10)
        pdf[at + 10:end] = b"9" * (end - at - 10)
        assert _text(bytes(pdf)) == EXPECT

    def test_password_required_is_pdferror(self):
        from swishray.ops.pdfcos import pdf_info
        pdf = bytearray(build_pdf(PAGES, encrypt="aes-256"))
        # corrupt /U so the empty-password check fails
        at = pdf.find(b"/U <")
        pdf[at + 4:at + 12] = b"00000000"
        with pytest.raises(PdfError):
            PdfDocument(bytes(pdf))
        # the no-decrypt structural probe still works
        info = pdf_info(bytes(pdf))
        assert info["encryption"] == "aes-256"
        assert info["n_pages"] == 2


# ---------------------------------------------------------------------
# XMP metadata + password-protected files

class TestXmpAndPasswords:
    XMP = {"Title": "XMP Tïtle — only", "Author": "Xavier",
           "Producer": "swishray <1&2>"}

    @pytest.mark.parametrize("kw", [
        dict(), dict(encrypt="aes-128"), dict(object_streams=True),
        # /EncryptMetadata false: the XMP stream is stored plain
        dict(encrypt="aes-128", encrypt_metadata=False),
        dict(encrypt="aes-256", encrypt_metadata=False)],
        ids=["plain", "aes-128", "objstm", "aes-128-plain-xmp",
             "aes-256-plain-xmp"])
    def test_xmp_roundtrip_and_fallback(self, kw):
        from swishray.ops.pdfcos import document_info, document_xmp
        pdf = build_pdf([["body"]], xmp=self.XMP, **kw)
        doc = PdfDocument(pdf)
        assert document_xmp(doc) == self.XMP
        # no /Info: document_info falls back to the XMP packet
        assert document_info(doc)["Title"] == self.XMP["Title"]

    def test_info_wins_over_xmp(self):
        from swishray.ops.pdfcos import document_info
        pdf = build_pdf([["body"]], info={"Title": "Info wins"},
                        xmp=self.XMP)
        got = document_info(PdfDocument(pdf))
        assert got["Title"] == "Info wins"
        assert got["Author"] == "Xavier"  # filled from XMP

    @pytest.mark.parametrize("flavor", ["rc4-40", "rc4-128",
                                        "aes-128", "aes-256"])
    def test_user_and_owner_passwords(self, flavor):
        from swishray.ops.pdfpage import page_text
        pdf = build_pdf([["secret text here"]], encrypt=flavor,
                        user_password=b"s3cret")
        for bad in (b"", b"wrong"):
            with pytest.raises(PdfError):
                PdfDocument(pdf, password=bad)
        for good in (b"s3cret", b"owner"):  # algorithm 7 owner path
            doc = PdfDocument(pdf, password=good)
            assert page_text(doc, next(doc.pages())) == \
                "secret text here"

    def test_pdf_extract_password(self):
        pdf = build_pdf([["locked"]], encrypt="aes-256",
                        user_password=b"pw1")
        txt, mode, *_ = pdf_extract(pdf, b"pw1")
        assert (txt, mode) == ("locked", "structured")
        txt, mode, *_ = pdf_extract(pdf)  # no password: scan tier
        assert mode == "scan" and txt == ""


class TestOutline:
    TOC = [(0, "Chapter 1"), (1, "Sec 1.1 — ünï"), (1, "Sec 1.2"),
           (2, "Sub 1.2.1"), (0, "Chapter 2"), (1, "Sec 2.1")]

    @pytest.mark.parametrize("kw", [
        dict(), dict(encrypt="aes-256"), dict(object_streams=True)],
        ids=["plain", "aes-256", "objstm"])
    def test_outline_roundtrip(self, kw):
        from swishray.ops.pdfcos import document_outline
        pdf = build_pdf([["body"]], outline=self.TOC, **kw)
        assert document_outline(PdfDocument(pdf)) == self.TOC

    def test_outline_cycle_guarded(self):
        from swishray.ops.pdfcos import document_outline
        pdf = bytearray(build_pdf([["body"]],
                                  outline=[(0, "A"), (0, "B")]))
        # point B's /Next back at A: the seen-set must stop the walk
        doc = PdfDocument(bytes(pdf))
        root = doc.get(doc.trailer["Root"])
        ol = doc.get(root["Outlines"])
        first = ol["First"]
        b_num = doc.get(first)["Next"].num
        at = bytes(pdf).find(b"%d 0 obj" % b_num)
        end = bytes(pdf).find(b">>", at)
        patched = (bytes(pdf)[:end]
                   + b" /Next %d 0 R " % first.num
                   + bytes(pdf)[end:])
        got = document_outline(PdfDocument(patched))
        assert got == [(0, "A"), (0, "B")]

    def test_no_outline(self):
        from swishray.ops.pdfcos import document_outline
        assert document_outline(PdfDocument(build_pdf([["x"]]))) == []


def test_scan_tier_full_filter_set():
    """The syntactic fallback now decodes every non-image filter
    (it was Flate-only), so structureless fragments with LZW/A85/RL
    content streams still yield text; image-codec filters stay in
    the skip count."""
    from swishray.ops.pdfbuild import _encode_filters
    from swishray.ops.pdftext import pdf_text_from_bytes
    for filt, tag in (
            (["LZWDecode"], b"/LZWDecode"),
            (["ASCII85Decode"], b"/ASCII85Decode"),
            (["RunLengthDecode"], b"/RunLengthDecode"),
            (["ASCIIHexDecode", "FlateDecode"],
             b"[/ASCIIHexDecode /FlateDecode]")):
        content = b"BT /F1 11 Tf 72 720 Td (fragment text) Tj ET"
        body = _encode_filters(content, filt)
        blob = (b"%PDF-1.4\n5 0 obj\n<< /Length "
                + str(len(body)).encode() + b" /Filter " + tag
                + b" >>\nstream\n" + body + b"\nendstream\nendobj\n")
        txt, used, sk, err = pdf_text_from_bytes(blob)
        assert txt == "fragment text" and used == 1 and sk == 0
    blob2 = (b"%PDF-1.4\n1 0 obj\n<< /Length 4 /Filter /DCTDecode"
             b" >>\nstream\nabcd\nendstream\nendobj\n")
    txt, used, sk, err = pdf_text_from_bytes(blob2)
    assert sk == 1 and txt == ""


class TestSecondReviewRegressions:
    def test_rebuild_prefers_objstm_update(self):
        """An incremental update that moved an object INTO an object
        stream must win over the brute scan's stale plain copy when
        the startxref is broken (the rebuild path)."""
        import zlib as _z
        from swishray.ops.pdfcos import document_info
        base = build_pdf([["body"]], info={"Title": "OLD title"})
        doc = PdfDocument(base)
        num = doc.trailer["Info"].num
        new_body = (b"<< /Title "
                    b"<FEFF004E004500570020007400690074006C0065>"
                    b" >>")
        hdr = b"%d 0" % num
        payload = hdr + b"\n" + new_body + b"\n"
        objstm = (b"90 0 obj\n<< /Type /ObjStm /N 1 /First %d"
                  b" /Length %d >>\nstream\n"
                  % (len(hdr) + 1, len(payload))
                  ) + payload + b"\nendstream\nendobj\n"
        at_objstm = len(base) + 1
        out = bytearray(base + b"\n" + objstm)
        rows = (b"\x02" + (90).to_bytes(4, "big") + b"\x00\x00"
                + b"\x01" + at_objstm.to_bytes(4, "big") + b"\x00\x00")
        body = _z.compress(rows)
        at_xs = len(out)
        out += (b"91 0 obj\n<< /Type /XRef /Size 99 /W [1 4 2]"
                b" /Index [%d 1 90 1] /Filter /FlateDecode"
                b" /Length %d /Root 1 0 R /Info %d 0 R >>\nstream\n"
                % (num, len(body), num)) + body \
            + b"\nendstream\nendobj\n"
        out += b"startxref\n%d\n%%%%EOF\n" % at_xs
        good = bytes(out)
        assert document_info(PdfDocument(good))["Title"] == \
            "NEW title"
        bad = bytearray(good)
        at = bad.rfind(b"startxref")
        end = bad.find(b"\n", at + 10)
        bad[at + 10:end] = b"9" * (end - at - 10)
        assert document_info(PdfDocument(bytes(bad)))["Title"] == \
            "NEW title"

    def test_utf16le_bom_text_string(self):
        from swishray.ops.pdfcos import text_string
        assert text_string(b"\xff\xfeH\x00i\x00") == "Hi"

    def test_document_links_never_raises(self):
        from swishray.ops.pdfcos import document_links
        # trailer /Root points at an absent object: pages() raises
        # "no catalog" — links must return [] like info/outline
        pdf = (b"%PDF-1.4\n1 0 obj\n(x)\nendobj\n"
               b"trailer << /Root 55 0 R >>\n")
        assert document_links(PdfDocument(pdf)) == []

    def test_cli_table_modes(self, ray_session, tmp_path):
        import json
        import pyarrow as pa
        import pyarrow.parquet as pq
        from swishray.__main__ import main
        pdfs = [build_pdf([["row %d" % i]],
                          info={"Title": "T%d" % i},
                          links=["https://x/%d" % i],
                          encrypt="aes-128" if i % 2 else None)
                for i in range(4)]
        src = tmp_path / "in"
        src.mkdir()
        pq.write_table(
            pa.table({"url": [f"u{i}" for i in range(4)],
                      "pdf": pa.array(pdfs, pa.large_binary())}),
            str(src / "part.parquet"))
        for mode, check in (
                ("info", lambda v, i: json.loads(v)["Title"]
                 == "T%d" % i),
                ("links", lambda v, i: json.loads(v)
                 == ["https://x/%d" % i]),
                ("inspect", lambda v, i: json.loads(v)["n_pages"]
                 == 1)):
            out = tmp_path / ("out_" + mode)
            assert main(["pdf", "--table", str(src),
                         "--out", str(out), "--mode", mode,
                         "--num-cpus", "4"]) == 0
            got = pq.read_table(str(out)).to_pylist()
            got = {r["url"]: r for r in got}
            for i in range(4):
                assert check(got[f"u{i}"][mode], i), (mode, i)
                assert got[f"u{i}"]["error"] is None
