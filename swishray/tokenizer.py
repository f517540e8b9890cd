"""Position-annotated word tokenizer with reference-exact semantics.

Reproduces src/libswish3/tokenizer.c:
  * word chars = not(space/cntrl/punct) plus ``'`` and ``_``
    (tokenizer.c:63-101) under glibc C.utf8 (frozen in _uniprops.py)
  * the whole buffer is lowercased first (swish_utf8_str_tolower /
    per-char tolower, tokenizer.c:625 / 891)
  * tokens are byte-capped at MAX_WORD_LEN=256 with per-path edge
    behavior (see _long_run_*)
  * edge ``'``/``_`` stripping:
      - ASCII buffers: strip_ascii_chrs (tokenizer.c:258-310) shifts
        the token in place — clean strip semantics.
      - non-ASCII buffers: strip_utf8_chrs (tokenizer.c:181-255)
        advances only its LOCAL copy of the token pointer, while the
        caller (tokenizer.c:686-691) adds the ORIGINAL pointer with
        the SHORTENED length.  Net effect: leading ignorables are not
        removed — the token is truncated from the END by the number of
        bytes the strip walk "advanced", which itself over-skips via a
        stale loop index (e.g. "__const" -> "__co", "'y0" -> "'y").
        We reproduce this exactly (_utf8_start_advance).
  * a single word char at end-of-buffer is added unstripped
    (tokenizer.c:795-800 "special case for one-character tokens")
  * the \\x03 bumper byte increments the position counter without
    emitting a token (tokenizer.c:693-710)
  * positions are 1-based and continue across calls on one TokenList;
    offsets index a byte arena of NUL-joined values (tokenizer.c:371-437)

Storage follows swish_TokenList's arena (tokenizer.c:366-437): a
``TokenList`` keeps one chunk per flushed buffer, three flat buffers
of token bytes, int32 lengths and uint32 positions, plus one
``(meta, context, count)`` run, and no Python object per token. In a
batch, ``pipeline.ExtractPages`` passes swishtok's record arena in
place of a TokenList, and ``tokenize_into`` scans into it in C.

Two scanners fill a TokenList. The ``swishtok`` C extension returns a
buffer's chunk in one call and is used whenever it builds, loads and
matches the Python scanner on a sample (``_native_selftest``). The
Python scanner is the validated reference-exact implementation: one
compiled-regex scan per buffer, with faithful per-char fallbacks only
for tokens that need the quirky strip or exceed 256 bytes.
"""

from __future__ import annotations

import re
import struct

import numpy as np

from . import _native as _ext
from ._uniprops import WORD_RANGES, LOWER_MAP
from .constants import BUMPER_CHR, MAX_WORD_LEN, MIN_WORD_LEN

_IGNORE_SET = None  # built lazily for the strip simulation


def _build_word_class() -> str:
    parts = []
    for a, b in WORD_RANGES:
        if a == b:
            parts.append(f"\\U{a:08x}")
        else:
            parts.append(f"\\U{a:08x}-\\U{b:08x}")
    return "".join(parts)


_WORD_CLASS = _build_word_class()
# one scan finds word runs and bumper bytes in document order
_SCAN_RE = re.compile(f"[{_WORD_CLASS}]+|{BUMPER_CHR}")

_STRIP_CHARS = "'_"  # the only word chars that are also ignore-start/end


def _is_word_cp(cp: int) -> bool:
    lo, hi = 0, len(WORD_RANGES)
    while lo < hi:
        mid = (lo + hi) // 2
        a, b = WORD_RANGES[mid]
        if cp < a:
            hi = mid
        elif cp > b:
            lo = mid + 1
        else:
            return True
    return False


def _is_ignore_start(cp: int) -> bool:
    # is_ignore_start_utf8 (tokenizer.c:63-71): space|cntrl|punct.
    # Equals NOT word-char, except ' and _ which are word chars but
    # still ignorable at token edges.
    if cp == 0x27 or cp == 0x5F:
        return True
    return not _is_word_cp(cp)


_I32 = struct.Struct("=i")
_U32 = struct.Struct("=I")


class TokenList:
    """One document's token stream as a columnar arena.

    Each tokenized flush appends one chunk: the tokens' bytes back to
    back, their native int32 lengths and their native uint32
    positions (``value_chunks``/``len_chunks``/``pos_chunks``), plus
    one ``(meta, context, count)`` entry in ``runs`` (adjacent runs of
    the same pair merge). Nothing is kept per token as a Python object;
    ``pipeline.token_columns`` joins a batch's chunks into its Arrow
    token columns directly (the reference route of ``ExtractPages``).

    Its writers are the ones of a batch's record arena
    (``swishtok.Arena``), which an ExtractionState takes in its place
    in a batch: ``tokenize_into`` and ``add`` (one token, as a
    tokenizer hook or the XInclude merge adds it). Only
    ``map_values``, the stemmer's rewrite of a finished list, has no
    arena counterpart. The extraction machine writes only into an
    arena; ``sax.read_row`` reads a one-row arena back (``of_chunk``).

    ``values``, ``positions``, ``metas``, ``contexts`` and ``offsets``
    are read-only list views of the same stream for the CLI, tests and
    fuzz tools; ``offsets`` index the NUL-joined arena the reference
    addresses tokens in (tokenizer.c:371-437). Two lists are equal when
    their token streams are."""

    __slots__ = ("value_chunks", "len_chunks", "pos_chunks", "runs",
                 "pos", "_offset", "_n")

    def __init__(self) -> None:
        self.value_chunks: list[bytes] = []
        self.len_chunks: list[bytes] = []
        self.pos_chunks: list[bytes] = []
        self.runs: list[tuple[str, str, int]] = []
        self.pos = 0          # running position counter (bumped by \x03)
        self._offset = 0      # arena byte offset: sum of len + 1
        self._n = 0

    def _append(self, values: bytes, lens: bytes, positions: bytes,
                meta: str, context: str) -> int:
        n = len(lens) >> 2
        if n:
            self.value_chunks.append(values)
            self.len_chunks.append(lens)
            self.pos_chunks.append(positions)
            self._add_run(meta, context, n)
            self._n += n
            self._offset += len(values) + n
        return n

    def _add_run(self, meta: str, context: str, n: int) -> None:
        runs = self.runs
        if runs and runs[-1][0] == meta and runs[-1][1] == context:
            runs[-1] = (meta, context, runs[-1][2] + n)
        else:
            runs.append((meta, context, n))

    def add(self, value: bytes, meta: str, context: str) -> None:
        """Append one token (the custom-tokenizer hook's entry point)."""
        self.pos += 1
        self._append(value, _I32.pack(len(value)), _U32.pack(self.pos),
                     meta, context)

    @classmethod
    def of_chunk(cls, values: bytes, lens: bytes, positions: bytes,
                 runs: list, pos: int) -> "TokenList":
        """A list of one chunk (none without a token) and ``pos``."""
        tl = cls()
        if tl._append(values, lens, positions, "", ""):
            tl.runs = runs  # in place of the one run _append adds
        tl.pos = pos
        return tl

    def map_values(self, fn) -> None:
        """Replace every value ``v`` by ``fn(v)`` (the stemmer), as one
        rewrite of the arena. If ``fn`` raises, the list is unchanged."""
        vals = [fn(v) for v in self.values]
        lens = np.fromiter(map(len, vals), np.int32, len(vals))
        self.value_chunks = [b"".join(vals)]
        self.len_chunks = [lens.tobytes()]
        self.pos_chunks = [b"".join(self.pos_chunks)]
        self._offset = int(lens.sum()) + len(vals)

    def _lens(self) -> np.ndarray:
        return np.frombuffer(b"".join(self.len_chunks), np.int32)

    @property
    def values(self) -> list[bytes]:
        data = b"".join(self.value_chunks)
        ends = np.cumsum(self._lens()).tolist()
        return [data[a:b] for a, b in zip([0] + ends, ends)]

    @property
    def positions(self) -> list[int]:
        return np.frombuffer(b"".join(self.pos_chunks), np.uint32).tolist()

    @property
    def metas(self) -> list[str]:
        return [m for m, _, k in self.runs for _ in range(k)]

    @property
    def contexts(self) -> list[str]:
        return [c for _, c, k in self.runs for _ in range(k)]

    @property
    def offsets(self) -> list[int]:
        step = self._lens().astype(np.int64) + 1
        return (np.cumsum(step) - step).tolist()

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenList):
            return NotImplemented
        return (self._n == other._n
                and b"".join(self.len_chunks) == b"".join(other.len_chunks)
                and b"".join(self.value_chunks)
                == b"".join(other.value_chunks)
                and b"".join(self.pos_chunks) == b"".join(other.pos_chunks)
                and self.runs == other.runs)

    __hash__ = None


def _cp_at(tb: bytes, p: int) -> int:
    """swish_utf8_codepoint of the char starting at byte p (string.c:171-195)."""
    b0 = tb[p]
    if b0 < 0x80:
        return b0
    if b0 < 0xE0:  # includes continuation bytes, mirroring the 2-byte case
        b1 = tb[p + 1] if p + 1 < len(tb) else 0
        return (b0 - 192) * 64 + b1 - 128
    if b0 < 0xF0:
        b1 = tb[p + 1] if p + 1 < len(tb) else 0
        b2 = tb[p + 2] if p + 2 < len(tb) else 0
        return (b0 - 224) * 4096 + (b1 - 128) * 64 + b2 - 128
    b1 = tb[p + 1] if p + 1 < len(tb) else 0
    b2 = tb[p + 2] if p + 2 < len(tb) else 0
    b3 = tb[p + 3] if p + 3 < len(tb) else 0
    return (b0 - 240) * 262144 + (b1 - 128) * 4096 + (b2 - 128) * 64 + b3 - 128


def _utf8_start_advance(tb: bytes) -> int:
    """Simulate strip_utf8_chrs' start-char loop (tokenizer.c:215-249)
    including its stale-index over-skip, returning the total pointer
    advance the caller never sees (bytes)."""
    n = len(tb)
    base = 0
    i = 0
    j = 0

    def byte(k: int) -> int:
        p = base + k
        return tb[p] if 0 <= p < n else 0

    def u8_inc(k: int) -> int:
        # utf8.c:504-510: advance past continuation bytes
        k += 1
        while (byte(k) & 0xC0) == 0x80:
            k += 1
        return k

    guard = 0
    while byte(j) != 0:
        guard += 1
        if guard > 4 * n + 8:
            break  # safety net; C would be walking heap garbage here
        chr_len = i - j
        if chr_len == 0:
            j = i
        else:
            p = base + j
            if p >= n:
                break
            cp = _cp_at(tb, p)
            if not _is_ignore_start(cp):
                break
            base += i
        i = u8_inc(i)
    return base


def _emit_utf8(run_b: bytes) -> bytes | None:
    """Apply the reference's utf8-path end+start strip to one token's
    bytes; returns the value to add, or None to skip."""
    # end-strip: plain char-wise rstrip of ignorables (only ' and _
    # can appear inside a word run)
    t = run_b.rstrip(b"'_")
    if not t:
        return None  # strip zeroed token[0] -> caller skips it
    if t[0] not in b"'_":
        return t  # no start chars to strip: clean token
    adv = _utf8_start_advance(t)
    vlen = len(t) - adv
    if vlen < 0:
        vlen = 0
    # caller adds the ORIGINAL pointer truncated to the post-strip
    # length (tokenizer.c:686-691) — even a zero-length value is added
    return t[:vlen]


def _long_run_ascii(run: str, at_buffer_end: bool) -> list[bytes]:
    """tokenizer.c:816-970 for a word run > MAX chars (pure ASCII).

    Tokens are cut every MAX_WORD_LEN chars; each cut token is
    edge-stripped (correctly — strip_ascii_chrs shifts in place); a
    trailing 1-char remainder at end-of-buffer is added unstripped."""
    out = []
    n = len(run)
    i = 0
    while i < n:
        chunk = run[i:i + MAX_WORD_LEN]
        i += len(chunk)
        if len(chunk) == 1 and i == n and at_buffer_end:
            out.append(chunk.encode())  # single-char special case
        else:
            t = chunk.strip(_STRIP_CHARS)
            if t:
                out.append(t.encode())
    return out


def _long_run_utf8(run: str, at_buffer_end: bool) -> list[bytes]:
    """tokenizer.c:606-814 for a word run whose UTF-8 encoding exceeds
    MAX bytes. Chars that would push the token past MAX bytes are
    silently dropped (tokenizer.c:727-732); the token only ends when it
    hits exactly MAX bytes, the run ends followed by an ignore char, or
    — if the run abuts end-of-buffer and the final char was dropped —
    never (the accumulated token is lost on loop exit)."""
    out = []
    token: list[str] | None = []
    token_len = 0
    n = len(run)
    for idx, ch in enumerate(run):
        chr_len = len(ch.encode("utf-8"))
        last = idx == n - 1
        if token:
            if chr_len + token_len > MAX_WORD_LEN:
                if last and at_buffer_end:
                    token = None  # lost: C loop exits without flushing
                continue
            token.append(ch)
            token_len += chr_len
            if token_len >= MAX_WORD_LEN or (last and at_buffer_end):
                v = _emit_utf8("".join(token).encode("utf-8"))
                if v is not None:
                    out.append(v)
                token = []
                token_len = 0
        else:
            token = [ch]
            token_len = chr_len
            if last and at_buffer_end and MIN_WORD_LEN == 1:
                out.append(ch.encode("utf-8"))  # 1-char special: no strip
                token = []
                token_len = 0
    if token:
        v = _emit_utf8("".join(token).encode("utf-8"))
        if v is not None:
            out.append(v)
    return out


_RUN_RE = re.compile(f"[{_WORD_CLASS}]+")

def tokenize_into(tl: TokenList, data: bytes, meta: str, context: str) -> int:
    """Tokenize one flushed buffer into ``tl`` as one arena chunk;
    returns the tokens added (the nwords contribution,
    parser.c:2761-2788). ``tl`` may also be a batch's record arena
    (``swishtok.Arena``, see ``pipeline.ExtractPages``), which the C
    scanner fills in place: the tokens join its open row."""
    if tl.__class__ is not TokenList:
        return tl.tokenize(data, meta, context)
    if _native is not None:
        vals, lens, poss, tl.pos = _native.tokenize(data, tl.pos)
        return tl._append(vals, lens, poss, meta, context)
    return _tokenize_into_py(tl, data, meta, context)


def _tokenize_into_py(tl: TokenList, data: bytes, meta: str,
                      context: str) -> int:
    """Tokenize one flushed buffer into ``tl``; returns tokens added
    (the nwords contribution, parser.c:2761-2788). ``data`` must be
    valid UTF-8 (the parser layer guarantees it).

    Hot-path structure: split on the \\x03 bumper (each split point is
    one position bump), findall word runs per segment (C speed), strip
    edges with str.strip, and bulk-extend the token lists. Per-token
    Python work is a few appends; the faithful per-char fallbacks only
    run for >256-byte runs or quirky utf8 strips."""
    if not data:
        return 0
    ascii_mode = data.isascii()
    if ascii_mode:
        lower = data.decode("ascii").lower()
    else:
        try:
            s = data.decode("utf-8")
        except UnicodeDecodeError:
            # the reference croaks on invalid UTF-8 reaching the
            # tokenizer; we degrade gracefully instead
            s = data.decode("utf-8", errors="replace")
        lower = s.translate(LOWER_MAP)

    values: list[bytes] = []
    positions: list[int] = []
    pos = tl.pos
    findall = _RUN_RE.findall
    strip_chars = _STRIP_CHARS

    segments = lower.split(BUMPER_CHR)
    last_seg = len(segments) - 1
    for si, seg in enumerate(segments):
        if seg:
            runs = findall(seg)
            if runs:
                nruns = len(runs)
                # single word char at the very end of the buffer is
                # added unstripped (tokenizer.c:795-800)
                final_single = (si == last_seg and len(runs[-1]) == 1
                                and seg.endswith(runs[-1]))
                for ri, run in enumerate(runs):
                    if len(run) <= 64:  # <=64 chars can't exceed 256 bytes
                        if final_single and ri == nruns - 1:
                            v = run.encode()
                        elif run[0] in strip_chars or run[-1] in strip_chars:
                            if ascii_mode:
                                t = run.strip(strip_chars)
                                if not t:
                                    continue
                                v = t.encode()
                            else:
                                v = _emit_utf8(run.encode("utf-8"))
                                if v is None:
                                    continue
                        else:
                            v = run.encode("utf-8")
                        pos += 1
                        values.append(v)
                        positions.append(pos)
                    else:
                        at_end = (si == last_seg and seg.endswith(run)
                                  and ri == nruns - 1)
                        for v in _emit_run(run, ascii_mode, at_end):
                            pos += 1
                            values.append(v)
                            positions.append(pos)
        if si != last_seg:
            pos += 1  # the bumper byte this segment boundary represents
    lens = np.fromiter(map(len, values), np.int32, len(values))
    tl.pos = pos
    return tl._append(b"".join(values), lens.tobytes(),
                      np.array(positions, np.uint32).tobytes(), meta,
                      context)


def _emit_run(run: str, ascii_mode: bool, at_end: bool) -> list[bytes]:
    """Faithful emission for runs that may exceed MAX_WORD_LEN bytes."""
    if ascii_mode:
        if len(run) <= MAX_WORD_LEN:
            if len(run) == 1 and at_end:
                return [run.encode()]
            t = run.strip(_STRIP_CHARS)
            return [t.encode()] if t else []
        return _long_run_ascii(run, at_end)
    rb = run.encode("utf-8")
    if len(rb) <= MAX_WORD_LEN:
        if len(run) == 1 and at_end:
            return [rb]
        v = _emit_utf8(rb)
        return [v] if v is not None else []
    return _long_run_utf8(run, at_end)


def _native_selftest(native) -> bool:
    """A/B-verify the C accelerator against the validated Python path
    on a classification-sensitive sample before trusting it. Guards
    against a host whose runtime glibc tables differ from the frozen
    _uniprops probe (the locale check in PyInit is necessary but not
    sufficient — e.g. a glibc whose C.utf8 tables changed)."""
    samples = [
        b"Hello WORLD plain ascii 123 mixed-Case",
        b"f\xc3\xbcr caf\xc3\xa9 \xce\xb1\xce\xb2\xce\xb3 \xc3\x9cber",
        b"bump\x03here 'quoted' __const__ trailing'",
        b"a\x03\x03b  spaces\t\ttabs\nnewlines",
        "word" .encode() * 100 + b" end",
        b"\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e mixed \xd0\xb4\xd0\xb0",
    ]
    for s in samples:
        tl = TokenList()
        _tokenize_into_py(tl, s, "m", "c")
        got = native.tokenize(s, 0)
        want = (b"".join(tl.value_chunks), b"".join(tl.len_chunks),
                b"".join(tl.pos_chunks), tl.pos)
        if got != want:
            return False
    return True


# the C accelerator, or None for the Python scanner
_native = _ext.checked(_ext.swishtok, _native_selftest)
