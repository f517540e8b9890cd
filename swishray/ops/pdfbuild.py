"""Deterministic PDF writer — the synthesis counterpart of the
structured reader (pdfcos/pdfpage), exercising every feature the
reader claims: classic xref tables AND cross-reference streams,
compressed object streams (/ObjStm), simple fonts with /Differences
encodings, Type0/Identity-H composite fonts with ToUnicode CMaps,
filter chains (Flate, LZW, ASCIIHex, ASCII85, RunLength), positioned
text (Tm / TJ kerning / two-column layout), form XObjects, and the
standard security handler flavors (RC4-40/128, AES-128, AES-256) with
empty or real user passwords, /Info dictionaries and XMP metadata
packets, URI link annotations, and nested /Outlines bookmark trees.

No external PDF library exists in this container, so round-tripping
through this writer IS the oracle strategy (the same pattern as the
repo's FLAC / WARC / TIFF writer counterparts): ground truth is the
text we put in, and tests assert the reader recovers it byte-for-byte
per url across the full feature matrix.
"""
from __future__ import annotations

import base64
import zlib

from .pdfcrypt import StandardEncryptor

__all__ = ["build_pdf", "FILTER_NAMES"]

FILTER_NAMES = ("FlateDecode", "LZWDecode", "ASCIIHexDecode",
                "ASCII85Decode", "RunLengthDecode", None)


def _rl_encode(data: bytes) -> bytes:
    """RunLengthDecode-compatible encoder (§7.4.5)."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 3:
            out.append(257 - run)
            out.append(data[i])
            i += run
            continue
        # literal run up to the next 3-byte repeat
        j = i + 1
        while j < n and j - i < 128:
            if j + 2 < n and data[j] == data[j + 1] == data[j + 2]:
                break
            j += 1
        out.append(j - i - 1)
        out += data[i:j]
        i = j
    out.append(128)  # EOD
    return bytes(out)


def _encode_filters(data: bytes, filters: list[str]) -> bytes:
    """Apply encodes in REVERSE of the /Filter decode order."""
    for f in reversed(filters):
        if f == "FlateDecode":
            data = zlib.compress(data, 6)
        elif f == "LZWDecode":
            from .tiff import _tiff_lzw_encode  # same coder family
            data = _tiff_lzw_encode(data)
        elif f == "ASCIIHexDecode":
            data = data.hex().encode("ascii") + b">"
        elif f == "ASCII85Decode":
            data = base64.a85encode(data) + b"~>"
        elif f == "RunLengthDecode":
            data = _rl_encode(data)
        else:
            raise ValueError(f"unknown filter {f}")
    return data


_ENC_CACHE: dict[tuple, StandardEncryptor] = {}


def _encryptor(flavor: str, id0: bytes, seed: bytes,
               user_password: bytes = b"", **opts) -> StandardEncryptor:
    """Key derivation (especially the AES-256 R6 iterated hash) costs
    tens of ms and depends only on the constructor arguments — cache
    it so per-document synthesis at corpus scale doesn't re-derive."""
    key = (flavor, id0, seed, user_password, tuple(sorted(opts.items())))
    enc = _ENC_CACHE.get(key)
    if enc is None:
        if len(_ENC_CACHE) > 256:
            _ENC_CACHE.clear()
        enc = _ENC_CACHE[key] = StandardEncryptor(
            flavor, id0, seed, user_password=user_password, **opts)
    return enc


def _xml_esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _esc(s: str) -> bytes:
    # cp1252, matching the /WinAnsiEncoding the simple font declares
    # (latin-1 would corrupt 0x80-0x9F characters like the em dash)
    return (s.replace("\\", "\\\\").replace("(", "\\(")
            .replace(")", "\\)").encode("cp1252", "replace"))


def _content_simple(lines: list[str], use_tj: bool,
                    two_column: bool) -> bytes:
    """One page's content operators for a one-byte /F1 font."""
    parts = [b"BT /F1 11 Tf"]
    if two_column:
        half = (len(lines) + 1) // 2
        cols = [(72, lines[:half]), (320, lines[half:])]
        for x, col in cols:
            parts.append(b"1 0 0 1 %d 720 Tm 13 TL" % x)
            for ln in col:
                parts.append(b"(" + _esc(ln) + b") Tj T*")
        parts.append(b"ET")
        return b"\n".join(parts)
    parts.append(b"72 720 Td 13 TL")
    for i, ln in enumerate(lines):
        if use_tj and " " in ln:
            # split on spaces, re-join with -278 kerns (the Helvetica
            # space width) so the reader's kern-to-space path runs
            words = ln.split(" ")
            arr = b" ".join(b"(" + _esc(w) + b") -278"
                            for w in words[:-1])
            arr += b" (" + _esc(words[-1]) + b")"
            nl = b"" if i == 0 else b"T* "
            parts.append(nl + b"[" + arr + b"] TJ")
        else:
            op = b"Tj" if i == 0 else b"'"
            parts.append(b"(" + _esc(ln) + b") " + op)
    parts.append(b"ET")
    return b"\n".join(parts)


def _tounicode_cmap(chars: list[str]) -> bytes:
    """A minimal ToUnicode CMap mapping 2-byte codes to the page's
    characters (code = BMP codepoint, i.e. Identity for this set)."""
    body = [b"/CIDInit /ProcSet findresource begin",
            b"12 dict begin begincmap",
            b"1 begincodespacerange <0000> <FFFF> endcodespacerange"]
    for i in range(0, len(chars), 90):
        grp = chars[i:i + 90]
        body.append(b"%d beginbfchar" % len(grp))
        for ch in grp:
            cp = ord(ch)
            body.append(b"<%04X> <%04X>" % (cp, cp))
        body.append(b"endbfchar")
    body.append(b"endcmap end end")
    return b"\n".join(body)


def _content_type0(lines: list[str]) -> bytes:
    parts = [b"BT /F1 11 Tf 72 720 Td 13 TL"]
    for i, ln in enumerate(lines):
        hexcodes = "".join("%04X" % ord(c) for c in ln)
        op = b"Tj" if i == 0 else b"'"
        parts.append(b"<" + hexcodes.encode() + b"> " + op)
    parts.append(b"ET")
    return b"\n".join(parts)


def build_pdf(pages: list[list[str]], *,
              font: str = "simple",
              differences: bool = False,
              filters: list[str] | None = None,
              xref_stream: bool = False,
              object_streams: bool = False,
              encrypt: str | None = None,
              use_tj: bool = False,
              two_column: bool = False,
              form_xobject: bool = False,
              info: dict | None = None,
              xmp: dict | None = None,
              user_password: bytes = b"",
              encrypt_metadata: bool = True,
              encrypt_strings: bool = True,
              links: list[str] | None = None,
              outline: list | None = None,
              seed: bytes = b"swishray-pdf") -> bytes:
    """Build a deterministic PDF showing ``pages`` (a list of pages,
    each a list of text lines).  Feature knobs mirror the reader's
    claims; every combination yields a valid file."""
    import hashlib

    filters = list(filters or ["FlateDecode"])
    id0 = hashlib.md5(seed + repr(
        (len(pages), font, differences, tuple(filters), xref_stream,
         object_streams, encrypt, use_tj, two_column,
         form_xobject)).encode()).digest()
    enc = _encryptor(encrypt, id0, seed, user_password=user_password,
                     encrypt_metadata=encrypt_metadata,
                     encrypt_strings=encrypt_strings) \
        if encrypt else None

    objs: dict[int, bytes | tuple] = {}  # num -> body | (dict, raw)
    next_num = 1

    def alloc() -> int:
        nonlocal next_num
        n = next_num
        next_num += 1
        return n

    cat = alloc()
    pages_num = alloc()
    font_num = alloc()
    tounicode_num = descendant_num = 0
    all_chars: list[str] = sorted(
        {c for pg in pages for ln in pg for c in ln})
    if font == "type0":
        descendant_num = alloc()
        tounicode_num = alloc()

    page_nums, content_nums, form_nums = [], [], []
    for pg in pages:
        page_nums.append(alloc())
        content_nums.append(alloc())
        form_nums.append(alloc() if form_xobject else 0)

    # -- font objects ---------------------------------------------------
    if font == "type0":
        objs[font_num] = (
            b"<< /Type /Font /Subtype /Type0 /BaseFont /Synth"
            b" /Encoding /Identity-H"
            b" /DescendantFonts [%d 0 R]"
            b" /ToUnicode %d 0 R >>" % (descendant_num,
                                        tounicode_num))
        objs[descendant_num] = (
            b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /Synth"
            b" /CIDSystemInfo << /Registry (Adobe) /Ordering"
            b" (Identity) /Supplement 0 >> /DW 500 >>")
        objs[tounicode_num] = ("stream", _tounicode_cmap(all_chars),
                               b"")
    elif differences:
        # encode 'e' and 'o' at odd codes via /Differences so the
        # glyph-name path runs; content is rewritten to match below
        objs[font_num] = (
            b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica"
            b" /Encoding << /BaseEncoding /WinAnsiEncoding"
            b" /Differences [ 1 /e 2 /o ] >> >>")
    else:
        # /Encoding is REQUIRED for byte fidelity: an encoding-less
        # Type1 font reads back through StandardEncoding, which
        # corrupts every non-ASCII latin byte
        objs[font_num] = (b"<< /Type /Font /Subtype /Type1"
                          b" /BaseFont /Helvetica"
                          b" /Encoding /WinAnsiEncoding >>")

    # -- document info (UTF-16BE text strings exercise the reader's
    # text_string + string-decryption paths) ------------------------
    def _strbytes(raw: bytes, objnum: int) -> bytes:
        """A string literal, encrypted with the OBJECT's key when the
        file is encrypted (direct strings cipher per object, unlike
        strings inside streams).  In object-stream mode the whole
        /ObjStm body ciphers at stream level instead (§7.5.7), so
        member strings stay plain here."""
        if enc and not object_streams:
            raw = enc.encrypt_string(raw, objnum, 0)
        return b"<" + raw.hex().encode() + b">"

    info_num = 0
    if info:
        info_num = alloc()
        body = b"<<"
        for k, v in sorted(info.items()):
            raw = b"\xfe\xff" + str(v).encode("utf-16-be")
            body += (b" /" + k.encode("ascii") + b" "
                     + _strbytes(raw, info_num))
        objs[info_num] = body + b" >>"

    # -- link annotations (page 1) ----------------------------------
    annot_nums: list[int] = []
    if links:
        for uri in links:
            n = alloc()
            annot_nums.append(n)
            objs[n] = (b"<< /Type /Annot /Subtype /Link"
                       b" /Rect [72 60 540 80]"
                       b" /A << /S /URI /URI " +
                       _strbytes(uri.encode("utf-8"), n) + b" >> >>")

    # -- pages ------------------------------------------------------
    for i, pg in enumerate(pages):
        res = b"<< /Font << /F1 %d 0 R >>" % font_num
        if form_xobject:
            res += b" /XObject << /Fm0 %d 0 R >>" % form_nums[i]
        res += b" >>"
        annots = b""
        if annot_nums and i == 0:
            annots = (b" /Annots ["
                      + b" ".join(b"%d 0 R" % n for n in annot_nums)
                      + b"]")
        objs[page_nums[i]] = (
            b"<< /Type /Page /Parent %d 0 R"
            b" /MediaBox [0 0 612 792] /Contents %d 0 R"
            b" /Resources %s%s >>" % (pages_num, content_nums[i],
                                      res, annots))
        if font == "type0":
            content = _content_type0(pg)
        else:
            body_lines = pg
            if differences:
                # map e->\x01 o->\x02 in the shown bytes
                def remap(s: str) -> str:
                    return s.replace("e", "\x01").replace("o", "\x02")
                body_lines = [remap(ln) for ln in pg]
            content = _content_simple(body_lines, use_tj, two_column)
        if form_xobject:
            # move the page body into a form; the page just invokes it
            objs[form_nums[i]] = ("stream", content,
                                  b" /Type /XObject /Subtype /Form"
                                  b" /BBox [0 0 612 792]"
                                  b" /Resources " + res)
            content = b"q 1 0 0 1 0 0 cm /Fm0 Do Q"
        objs[content_nums[i]] = ("stream", content, b"")

    objs[pages_num] = (b"<< /Type /Pages /Kids [%s] /Count %d >>"
                       % (b" ".join(b"%d 0 R" % n for n in page_nums),
                          len(pages)))
    outline_ref = b""
    if outline:
        # a flat sibling chain per depth, nested First/Last/Next/
        # Prev/Parent links (§12.3.3); titles as UTF-16BE text
        # strings so the decryption path runs
        o_root = alloc()
        item_nums = [alloc() for _ in outline]
        outline_ref = b" /Outlines %d 0 R" % o_root

        def _sib(idx):
            # previous/next sibling at the SAME depth with no
            # shallower node in between
            d = outline[idx][0]
            prv = nxt = 0
            for j in range(idx - 1, -1, -1):
                if outline[j][0] < d:
                    break
                if outline[j][0] == d:
                    prv = item_nums[j]
                    break
            for j in range(idx + 1, len(outline)):
                if outline[j][0] < d:
                    break
                if outline[j][0] == d:
                    nxt = item_nums[j]
                    break
            return prv, nxt

        def _parent(idx):
            d = outline[idx][0]
            for j in range(idx - 1, -1, -1):
                if outline[j][0] < d:
                    return item_nums[j]
            return o_root

        def _kids(idx):
            d = outline[idx][0]
            first = last = 0
            for j in range(idx + 1, len(outline)):
                if outline[j][0] <= d:
                    break
                if outline[j][0] == d + 1:
                    if not first:
                        first = item_nums[j]
                    last = item_nums[j]
            return first, last

        top = [i for i, (d, _t) in enumerate(outline) if d == 0]
        for i, (d, title) in enumerate(outline):
            prv, nxt = _sib(i)
            first, last = _kids(i)
            body = b"<< /Title " + _strbytes(
                b"\xfe\xff" + title.encode("utf-16-be"),
                item_nums[i])
            body += b" /Parent %d 0 R" % _parent(i)
            if prv:
                body += b" /Prev %d 0 R" % prv
            if nxt:
                body += b" /Next %d 0 R" % nxt
            if first:
                body += (b" /First %d 0 R /Last %d 0 R /Count %d"
                         % (first, last, sum(
                             1 for j in range(i + 1, len(outline))
                             if outline[j][0] > d
                             and not any(outline[k][0] <= d
                                         for k in range(i + 1, j)))))
            objs[item_nums[i]] = body + b" >>"
        objs[o_root] = (b"<< /Type /Outlines /First %d 0 R"
                        b" /Last %d 0 R /Count %d >>"
                        % (item_nums[top[0]], item_nums[top[-1]],
                           len(outline))) if top else b"<< >>"

    meta_ref = b""
    xmp_num = 0
    if xmp:
        # XMP packet (/Root /Metadata): element form for dc:title
        # (rdf:Alt/rdf:li), attribute form for the simple fields —
        # both shapes real generators emit
        xmp_num = alloc()
        props = []
        title = xmp.get("Title")
        if title is not None:
            props.append(
                "<dc:title><rdf:Alt><rdf:li xml:lang=\"x-default\">"
                + _xml_esc(title) + "</rdf:li></rdf:Alt></dc:title>")
        attrs = "".join(
            ' %s="%s"' % (q, _xml_esc(str(v)))
            for k, v, q in (
                ("Author", xmp.get("Author"), "dc:creator"),
                ("Producer", xmp.get("Producer"), "pdf:Producer"),
                ("CreationDate", xmp.get("CreationDate"),
                 "xmp:CreateDate"),
            ) if v is not None)
        packet = (
            '<?xpacket begin="﻿" id="W5M0MpCehiHzreSzNTczkc9d"'
            '?>\n<x:xmpmeta xmlns:x="adobe:ns:meta/">\n'
            '<rdf:RDF xmlns:rdf='
            '"http://www.w3.org/1999/02/22-rdf-syntax-ns#">\n'
            '<rdf:Description rdf:about="" '
            'xmlns:dc="http://purl.org/dc/elements/1.1/" '
            'xmlns:pdf="http://ns.adobe.com/pdf/1.3/" '
            'xmlns:xmp="http://ns.adobe.com/xap/1.0/"' + attrs +
            '>\n' + "".join(props) + '\n</rdf:Description>\n'
            '</rdf:RDF>\n</x:xmpmeta>\n<?xpacket end="w"?>'
        ).encode("utf-8")
        objs[xmp_num] = ("stream", packet,
                         b" /Type /Metadata /Subtype /XML")
        meta_ref = b" /Metadata %d 0 R" % xmp_num
    objs[cat] = (b"<< /Type /Catalog /Pages %d 0 R%s%s >>"
                 % (pages_num, meta_ref, outline_ref))

    encrypt_num = alloc() if enc else 0

    # -- serialize --------------------------------------------------
    out = bytearray(b"%PDF-1.5\n%\xe2\xe3\xcf\xd3\n")
    offsets: dict[int, int] = {}
    in_objstm: dict[int, int] = {}  # objnum -> index within ObjStm

    def emit_stream(num: int, payload: bytes, extra: bytes,
                    *, apply_filt: bool = True,
                    encrypt_it: bool = True) -> None:
        body = payload
        fl = filters if apply_filt else ["FlateDecode"]
        body = _encode_filters(body, fl)
        if enc and encrypt_it:
            body = enc.encrypt(body, num, 0)
        fnames = b" ".join(b"/" + f.encode() for f in fl)
        ftag = (b"/Filter " + (b"[" + fnames + b"]"
                               if len(fl) > 1 else fnames)
                if fl else b"")
        offsets[num] = len(out)
        out.extend(b"%d 0 obj\n<< /Length %d %s%s >>\nstream\n"
                   % (num, len(body), ftag, extra))
        out.extend(body)
        out.extend(b"\nendstream\nendobj\n")

    def emit_plain(num: int, body: bytes) -> None:
        offsets[num] = len(out)
        out.extend(b"%d 0 obj\n" % num)
        out.extend(body)
        out.extend(b"\nendobj\n")

    plain_objs = {n: b for n, b in objs.items()
                  if not isinstance(b, tuple)}
    stream_objs = {n: b for n, b in objs.items()
                   if isinstance(b, tuple)}

    objstm_num = 0
    if object_streams:
        # pack the non-stream objects into one /ObjStm
        objstm_num = alloc()
        members = sorted(plain_objs)
        bodies = [plain_objs[n] for n in members]
        offs = []
        at = 0
        for b in bodies:
            offs.append(at)
            at += len(b) + 1
        hdr = b" ".join(b"%d %d" % (n, o)
                        for n, o in zip(members, offs))
        payload = hdr + b"\n" + b"\n".join(bodies) + b"\n"
        first = len(hdr) + 1
        emit_stream(objstm_num, payload,
                    b" /Type /ObjStm /N %d /First %d"
                    % (len(members), first),
                    apply_filt=False)
        for i, n in enumerate(members):
            in_objstm[n] = i
    else:
        for n in sorted(plain_objs):
            emit_plain(n, plain_objs[n])

    for n in sorted(stream_objs):
        _, payload, extra = stream_objs[n]
        emit_stream(n, payload, extra,
                    encrypt_it=n != xmp_num or encrypt_metadata)

    if enc:
        emit_plain(encrypt_num, enc.encrypt_dict_body())

    idhex = id0.hex().encode()
    trailer_extra = b" /ID [<%s> <%s>]" % (idhex, idhex)
    if enc:
        trailer_extra += b" /Encrypt %d 0 R" % encrypt_num
    if info_num:
        trailer_extra += b" /Info %d 0 R" % info_num

    if xref_stream or object_streams:
        xref_num = alloc()
        size = next_num
        rows = bytearray()
        for n in range(size):
            if n == 0:
                rows += b"\x00" + (0).to_bytes(4, "big") + b"\xff\xff"
            elif n in in_objstm:
                rows += (b"\x02" + objstm_num.to_bytes(4, "big")
                         + in_objstm[n].to_bytes(2, "big"))
            elif n in offsets:
                rows += (b"\x01" + offsets[n].to_bytes(4, "big")
                         + b"\x00\x00")
            elif n == xref_num:
                rows += b"\x01" + len(out).to_bytes(4, "big") \
                    + b"\x00\x00"
            else:
                rows += b"\x00" + (0).to_bytes(4, "big") + b"\xff\xff"
        body = zlib.compress(bytes(rows), 6)
        xref_at = len(out)
        out.extend(
            b"%d 0 obj\n<< /Type /XRef /Size %d /W [1 4 2]"
            b" /Root %d 0 R%s /Filter /FlateDecode /Length %d"
            b" >>\nstream\n"
            % (xref_num, size, cat, trailer_extra, len(body)))
        out.extend(body)
        out.extend(b"\nendstream\nendobj\n")
        out.extend(b"startxref\n%d\n%%%%EOF\n" % xref_at)
    else:
        xref_at = len(out)
        size = next_num
        out.extend(b"xref\n0 %d\n" % size)
        out.extend(b"0000000000 65535 f \n")
        for n in range(1, size):
            out.extend(b"%010d 00000 n \n" % offsets.get(n, 0))
        out.extend(b"trailer\n<< /Size %d /Root %d 0 R%s >>\n"
                   b"startxref\n%d\n%%%%EOF\n"
                   % (size, cat, trailer_extra, xref_at))
    return bytes(out)
