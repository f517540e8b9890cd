"""Scalar text helpers with reference-exact semantics.

These reproduce the byte-level behavior of src/libswish3/string.c and
src/libswish3/io.c under the authoritative C.utf8 locale.  All buffer
operations are on *bytes* (the extraction buffers are byte-exact
deliverables); str-level helpers exist for tag names and tokens.
"""

from __future__ import annotations

from ._uniprops import LOWER_MAP

# Byte-level whitespace per glibc isspace() in C/C.utf8 for bytes
# (string.c:542-590 uses byte-wise isspace; bytes >= 0x80 are never
# whitespace in this locale).
_ASCII_WS = b" \t\n\v\f\r"
_WS_SET = frozenset(_ASCII_WS)

# ctrl_to_ws table: bytes < 32 -> space (string.c:592-607)
_CTRL_TO_WS = bytes(0x20 if b < 32 else b for b in range(256))

# no_nulls table: NUL and \x03 -> newline (io.c:43-73)
_NO_NULLS = bytes.maketrans(b"\x00\x03", b"\n\n")


def str_all_ws(data: bytes) -> bool:
    """string.c:569-590 — every byte is ASCII whitespace.

    Caller note: the reference uses xmlStrlen, stopping at the first
    NUL; our buffers never contain NULs (scrubbed at the IO layer).
    """
    return all(b in _WS_SET for b in data)


def skip_ws(data: bytes) -> bytes:
    """string.c:542-550 — drop leading ASCII whitespace."""
    return data.lstrip(_ASCII_WS)


def trim_ws(data: bytes) -> bytes:
    """string.c:558-567 — drop trailing ASCII whitespace."""
    return data.rstrip(_ASCII_WS)


def ctrl_to_ws(data: bytes) -> bytes:
    """string.c:592-607 — control bytes (<32) become spaces, but ONLY
    when the string is pure ASCII (the reference early-returns for
    non-ASCII input: "TODO utf8-safe")."""
    if not data.isascii():
        return data
    return data.translate(_CTRL_TO_WS)


def clean_wsp(data: bytes) -> bytes:
    """The cleanwsp sequence of namedbuffer.c:221-232:
    ctrl_to_ws, then skip leading ws, then trim trailing ws."""
    return trim_ws(skip_ws(ctrl_to_ws(data)))


def scrub_nulls(data: bytes) -> bytes:
    """io.c:43-73 no_nulls — replace embedded NUL and \\x03 bytes with
    newlines, but ONLY when at least one NUL exists (the reference
    scans only if xmlStrlen(buffer) < bytes_read)."""
    if b"\x00" in data:
        return data.translate(_NO_NULLS)
    return data


def glibc_lower(s: str) -> str:
    """swish_str_tolower (string.c:478-531): ASCII fast path tolower,
    else per-codepoint glibc towlower (never expands)."""
    if s.isascii():
        return s.lower()
    return s.translate(LOWER_MAP)


# ---- scalar function library (string.c / utf8.c / times.c) ------------

def escape_utf8(s: str, escape_quotes: bool = False) -> str:
    """swish_str_escape_utf8 (string.c:380-404) via u8_escape
    (utf8.c:667-690): UTF-8 -> ASCII with C-style escapes. Control
    chars use \\x%hhX (1-2 uppercase hex digits, no padding), BMP
    non-ASCII \\u%.4hX, astral \\U%.8X."""
    out = []
    for ch in s:
        cp = ord(ch)
        if escape_quotes and ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\b":
            out.append("\\b")
        elif ch == "\f":
            out.append("\\f")
        elif ch == "\v":
            out.append("\\v")
        elif ch == "\a":
            out.append("\\a")
        elif ch == "\\":
            out.append("\\\\")
        elif cp < 32 or cp == 0x7F:
            out.append("\\x%X" % cp)
        elif cp > 0xFFFF:
            out.append("\\U%08X" % cp)
        elif cp >= 0x80:
            out.append("\\u%04X" % cp)
        else:
            out.append(ch)
    return "".join(out)


_OCTAL = "01234567"
_HEX = "0123456789ABCDEFabcdef"


def _read_escape_sequence(s: str, i: int) -> tuple[int, int]:
    """u8_read_escape_sequence (utf8.c:541-597): returns (codepoint,
    chars consumed AFTER the backslash)."""
    c0 = s[i]
    simple = {"n": "\n", "t": "\t", "r": "\r", "b": "\b",
              "f": "\f", "v": "\v", "a": "\a"}
    if c0 in simple:
        return ord(simple[c0]), 1
    if c0 in _OCTAL:
        j = i
        digs = ""
        while j < len(s) and s[j] in _OCTAL and len(digs) < 3:
            digs += s[j]
            j += 1
        return int(digs, 8), j - i
    if c0 in ("x", "u", "U"):
        width = {"x": 2, "u": 4, "U": 8}[c0]
        j = i + 1
        digs = ""
        while j < len(s) and s[j] in _HEX and len(digs) < width:
            digs += s[j]
            j += 1
        if digs:
            return int(digs, 16), j - i
        return ord(c0), 1  # bare \x with no digits: literal char
    return ord(c0), 1  # unknown escape: literal character


def unescape_utf8(s: str) -> str:
    """swish_str_unescape_utf8 (string.c:406-422) via u8_unescape
    (utf8.c:601-630)."""
    out = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch == "\\" and i + 1 < n:
            cp, used = _read_escape_sequence(s, i + 1)
            out.append(chr(cp))
            i += 1 + used
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def string_to_int(s: str) -> int:
    """swish_string_to_int (string.c:64-79): strtol base 10 — leading
    whitespace/sign + digit prefix, trailing junk ignored; raises
    where the reference would exit(1)."""
    import re
    m = re.match(r"\s*([+-]?\d+)", s)
    if m is None:
        return 0  # strtol returns 0 with no error for non-numeric
    return int(m.group(1))


def string_to_boolean(s: str | None) -> bool:
    """swish_string_to_boolean (string.c:81-110). Reference quirk kept:
    only Y/y/1/on/ON are true — so "true" is FALSE (first char 't'
    falls through to the default)."""
    if not s:
        return False
    c0 = s[0]
    if c0 in "Yy1" or s[:2] in ("on", "ON"):
        return True
    return False


def int_to_string(v: int) -> str:
    """swish_int_to_string (string.c:111-115, CONVERT_TO_STRING %d)."""
    return "%d" % v


def long_to_string(v: int) -> str:
    """swish_long_to_string (string.c:118-122)."""
    return "%ld".replace("ld", "d") % v


def double_to_string(v: float) -> str:
    """swish_double_to_string (string.c:125-131, %f => 6 decimals)."""
    return "%f" % v


def date_to_string(y: int, m: int, d: int) -> str:
    """swish_date_to_string (string.c:134-165): clamp to valid-ish
    ranges, format %04d%02d%02d."""
    y = 0 if y < 0 else (9999 if y > 9999 else y)
    m = 1 if m < 1 else (12 if m > 12 else m)
    d = 1 if d < 1 else (31 if d > 31 else d)
    return "%04d%02d%02d" % (y, m, d)


def time_format(epoch: int | float) -> str:
    """swish_time_format (times.c:137-148): localtime strftime with
    SWISH_DATE_FORMAT_STRING '%Y-%m-%d %H:%M:%S %Z'."""
    import time as _time
    return _time.strftime("%Y-%m-%d %H:%M:%S %Z", _time.localtime(epoch))


# ---- UTF-8 codepoint ops (string.c:171-258, utf8.c u8_inc/u8_dec) -----

def utf8_chr_len(b: bytes, pos: int = 0) -> int:
    """swish_utf8_chr_len via xmlUTF8Size: byte length of the UTF-8
    character starting at ``pos``; raises on a bad lead byte (the
    reference croaks)."""
    c = b[pos]
    if c < 0x80:
        return 1
    if 0xC2 <= c <= 0xDF:
        return 2
    if 0xE0 <= c <= 0xEF:
        return 3
    if 0xF0 <= c <= 0xF4:
        return 4
    raise ValueError(f"Bad UTF8 string at {pos}: {b[pos:pos+4]!r}")


def utf8_codepoint(b: bytes, pos: int = 0) -> int:
    """swish_utf8_codepoint: decode one codepoint (the reference's
    arithmetic, no validation of continuation bytes)."""
    n = utf8_chr_len(b, pos)
    if n == 1:
        return b[pos]
    if n == 2:
        return (b[pos] - 192) * 64 + b[pos + 1] - 128
    if n == 3:
        return ((b[pos] - 224) * 4096 + (b[pos + 1] - 128) * 64
                + b[pos + 2] - 128)
    return ((b[pos] - 240) * 262144 + (b[pos + 1] - 128) * 4096
            + (b[pos + 2] - 128) * 64 + b[pos + 3] - 128)


def utf8_num_chrs(b: bytes) -> int:
    """swish_utf8_num_chrs via xmlUTF8Strlen."""
    n = 0
    i = 0
    while i < len(b):
        i += utf8_chr_len(b, i)
        n += 1
    return n


def utf8_next_chr(b: bytes, i: int) -> int:
    """swish_utf8_next_chr (u8_inc): advance ``i`` past one character
    by skipping continuation bytes."""
    i += 1
    while i < len(b) and (b[i] & 0xC0) == 0x80:
        i += 1
    return i


def utf8_prev_chr(b: bytes, i: int) -> int:
    """swish_utf8_prev_chr (u8_dec): step ``i`` back one character."""
    i -= 1
    while i > 0 and (b[i] & 0xC0) == 0x80:
        i -= 1
    return i
