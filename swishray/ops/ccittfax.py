"""From-scratch CCITT Group 3 / Group 4 fax codec (ITU-T T.4 / T.6).

Decoder: the three TIFF fax compressions over bilevel strips —
Modified Huffman RLE (TIFF compression 2: per-row 1-D MH codes,
rows byte-aligned, no EOLs), Group 3 (compression 3: EOL-framed
rows, both pure 1-D and the T4Options bit-0 mixed 1-D/2-D mode with
per-row tag bits, fill bits tolerated), and Group 4 (compression 4:
pure 2-D MMR per T.6 with an all-white imaginary reference line and
an optional trailing EOFB). Both fill orders (TIFF tag 266) are
handled by the caller reversing bit order before decode. The T.6
"uncompressed mode" extension raises NotImplementedError; corrupt
streams of supported shape raise ValueError (same two-class error
taxonomy as ops/tiff.py, surfaced in the multimodal error column).

Encoder: Modified Huffman (compression 2) and Group 4 (compression
4) writers for tests and the TIFF encoder's bilevel path.

The run-length code tables are transcribed from the published ITU-T
T.4 tables 2/3 and the shared extended make-up table (T.4
section 2.2.2.3); tests/test_tiff.py validates every run length
0..2800 A/B against the container's libtiff.so.6 in both directions.

Scale shape: per-blob CPU decode with zero driver state, identical
to the other codecs — parallelizes under map_batches tasks.

Reference parity note: the reference engine (karpet/libswish3) has
no image pipeline at all; this module exists for the multimodal tier
of the Ray engine (ops/multimodal.py), not for reference parity.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# T.4 run-length code tables: {run: (nbits, code_value)} with the code
# taken MSB-first.

_WHITE = {
    0: (8, 0b00110101), 1: (6, 0b000111), 2: (4, 0b0111),
    3: (4, 0b1000), 4: (4, 0b1011), 5: (4, 0b1100),
    6: (4, 0b1110), 7: (4, 0b1111), 8: (5, 0b10011),
    9: (5, 0b10100), 10: (5, 0b00111), 11: (5, 0b01000),
    12: (6, 0b001000), 13: (6, 0b000011), 14: (6, 0b110100),
    15: (6, 0b110101), 16: (6, 0b101010), 17: (6, 0b101011),
    18: (7, 0b0100111), 19: (7, 0b0001100), 20: (7, 0b0001000),
    21: (7, 0b0010111), 22: (7, 0b0000011), 23: (7, 0b0000100),
    24: (7, 0b0101000), 25: (7, 0b0101011), 26: (7, 0b0010011),
    27: (7, 0b0100100), 28: (7, 0b0011000), 29: (8, 0b00000010),
    30: (8, 0b00000011), 31: (8, 0b00011010), 32: (8, 0b00011011),
    33: (8, 0b00010010), 34: (8, 0b00010011), 35: (8, 0b00010100),
    36: (8, 0b00010101), 37: (8, 0b00010110), 38: (8, 0b00010111),
    39: (8, 0b00101000), 40: (8, 0b00101001), 41: (8, 0b00101010),
    42: (8, 0b00101011), 43: (8, 0b00101100), 44: (8, 0b00101101),
    45: (8, 0b00000100), 46: (8, 0b00000101), 47: (8, 0b00001010),
    48: (8, 0b00001011), 49: (8, 0b01010010), 50: (8, 0b01010011),
    51: (8, 0b01010100), 52: (8, 0b01010101), 53: (8, 0b00100100),
    54: (8, 0b00100101), 55: (8, 0b01011000), 56: (8, 0b01011001),
    57: (8, 0b01011010), 58: (8, 0b01011011), 59: (8, 0b01001010),
    60: (8, 0b01001011), 61: (8, 0b00110010), 62: (8, 0b00110011),
    63: (8, 0b00110100),
    # make-up codes (multiples of 64)
    64: (5, 0b11011), 128: (5, 0b10010), 192: (6, 0b010111),
    256: (7, 0b0110111), 320: (8, 0b00110110), 384: (8, 0b00110111),
    448: (8, 0b01100100), 512: (8, 0b01100101),
    576: (8, 0b01101000), 640: (8, 0b01100111),
    704: (9, 0b011001100), 768: (9, 0b011001101),
    832: (9, 0b011010010), 896: (9, 0b011010011),
    960: (9, 0b011010100), 1024: (9, 0b011010101),
    1088: (9, 0b011010110), 1152: (9, 0b011010111),
    1216: (9, 0b011011000), 1280: (9, 0b011011001),
    1344: (9, 0b011011010), 1408: (9, 0b011011011),
    1472: (9, 0b010011000), 1536: (9, 0b010011001),
    1600: (9, 0b010011010), 1664: (6, 0b011000),
    1728: (9, 0b010011011),
}

_BLACK = {
    0: (10, 0b0000110111), 1: (3, 0b010), 2: (2, 0b11),
    3: (2, 0b10), 4: (3, 0b011), 5: (4, 0b0011),
    6: (4, 0b0010), 7: (5, 0b00011), 8: (6, 0b000101),
    9: (6, 0b000100), 10: (7, 0b0000100), 11: (7, 0b0000101),
    12: (7, 0b0000111), 13: (8, 0b00000100), 14: (8, 0b00000111),
    15: (9, 0b000011000), 16: (10, 0b0000010111),
    17: (10, 0b0000011000), 18: (10, 0b0000001000),
    19: (11, 0b00001100111), 20: (11, 0b00001101000),
    21: (11, 0b00001101100), 22: (11, 0b00000110111),
    23: (11, 0b00000101000), 24: (11, 0b00000010111),
    25: (11, 0b00000011000), 26: (12, 0b000011001010),
    27: (12, 0b000011001011), 28: (12, 0b000011001100),
    29: (12, 0b000011001101), 30: (12, 0b000001101000),
    31: (12, 0b000001101001), 32: (12, 0b000001101010),
    33: (12, 0b000001101011), 34: (12, 0b000011010010),
    35: (12, 0b000011010011), 36: (12, 0b000011010100),
    37: (12, 0b000011010101), 38: (12, 0b000011010110),
    39: (12, 0b000011010111), 40: (12, 0b000001101100),
    41: (12, 0b000001101101), 42: (12, 0b000011011010),
    43: (12, 0b000011011011), 44: (12, 0b000001010100),
    45: (12, 0b000001010101), 46: (12, 0b000001010110),
    47: (12, 0b000001010111), 48: (12, 0b000001100100),
    49: (12, 0b000001100101), 50: (12, 0b000001010010),
    51: (12, 0b000001010011), 52: (12, 0b000000100100),
    53: (12, 0b000000110111), 54: (12, 0b000000111000),
    55: (12, 0b000000100111), 56: (12, 0b000000101000),
    57: (12, 0b000001011000), 58: (12, 0b000001011001),
    59: (12, 0b000000101011), 60: (12, 0b000000101100),
    61: (12, 0b000001011010), 62: (12, 0b000001100110),
    63: (12, 0b000001100111),
    # make-up codes
    64: (10, 0b0000001111), 128: (12, 0b000011001000),
    192: (12, 0b000011001001), 256: (12, 0b000001011011),
    320: (12, 0b000000110011), 384: (12, 0b000000110100),
    448: (12, 0b000000110101), 512: (13, 0b0000001101100),
    576: (13, 0b0000001101101), 640: (13, 0b0000001001010),
    704: (13, 0b0000001001011), 768: (13, 0b0000001001100),
    832: (13, 0b0000001001101), 896: (13, 0b0000001110010),
    960: (13, 0b0000001110011), 1024: (13, 0b0000001110100),
    1088: (13, 0b0000001110101), 1152: (13, 0b0000001110110),
    1216: (13, 0b0000001110111), 1280: (13, 0b0000001010010),
    1344: (13, 0b0000001010011), 1408: (13, 0b0000001010100),
    1472: (13, 0b0000001010101), 1536: (13, 0b0000001011010),
    1600: (13, 0b0000001011011), 1664: (13, 0b0000001100100),
    1728: (13, 0b0000001100101),
}

# extended make-up codes, shared by both colors (T.4 section 2.2.2.3)
_EXT = {
    1792: (11, 0b00000001000), 1856: (11, 0b00000001100),
    1920: (11, 0b00000001101), 1984: (12, 0b000000010010),
    2048: (12, 0b000000010011), 2112: (12, 0b000000010100),
    2176: (12, 0b000000010101), 2240: (12, 0b000000010110),
    2304: (12, 0b000000010111), 2368: (12, 0b000000011100),
    2432: (12, 0b000000011101), 2496: (12, 0b000000011110),
    2560: (12, 0b000000011111),
}

_MAX_WHITE_BITS = 12  # longest white / extended code
_MAX_BLACK_BITS = 13


def _mk_lut(codes: dict, maxbits: int) -> np.ndarray:
    """Prefix LUT: the top ``maxbits`` of the stream index into an
    array packing (run << 4 | code_length); -1 = invalid prefix."""
    lut = np.full(1 << maxbits, -1, np.int32)
    for run, (nb, val) in codes.items():
        lo = val << (maxbits - nb)
        hi = lo + (1 << (maxbits - nb))
        lut[lo:hi] = (run << 4) | nb
    return lut


_WHITE_LUT = _mk_lut({**_WHITE, **_EXT}, _MAX_WHITE_BITS)
_BLACK_LUT = _mk_lut({**_BLACK, **_EXT}, _MAX_BLACK_BITS)

# 2-D mode codes (T.4 table 4 / T.6): value -> (kind, param).
# kind: "v" vertical (param = a1 - b1), "h" horizontal, "p" pass,
# "x" extension (uncompressed mode — unsupported).
_MODES = {
    (1, 0b1): ("v", 0),
    (3, 0b011): ("v", 1), (3, 0b010): ("v", -1),
    (3, 0b001): ("h", 0),
    (4, 0b0001): ("p", 0),
    (6, 0b000011): ("v", 2), (6, 0b000010): ("v", -2),
    (7, 0b0000011): ("v", 3), (7, 0b0000010): ("v", -3),
    (7, 0b0000001): ("x", 0),
}
_MODE_LUT = np.full(1 << 7, -1, np.int32)
for (_nb, _val), (_kind, _p) in _MODES.items():
    _lo = _val << (7 - _nb)
    _k = {"v": 0, "h": 1, "p": 2, "x": 3}[_kind]
    _MODE_LUT[_lo:_lo + (1 << (7 - _nb))] = ((_p + 3) << 6) | (_k << 4) | _nb
del _nb, _val, _kind, _p, _lo, _k


class _FaxReader:
    """MSB-first bit reader with bounded accumulator and virtual
    zero-padding past end-of-data (fill bits / final-byte padding),
    tracking real bits so over-consumption raises."""

    __slots__ = ("d", "pos", "acc", "nb")

    def __init__(self, data: bytes):
        self.d = data
        self.pos = 0
        self.acc = 0
        self.nb = 0

    def peek(self, n: int) -> int:
        while self.nb < n and self.pos < len(self.d):
            self.acc = (self.acc << 8) | self.d[self.pos]
            self.pos += 1
            self.nb += 8
        if self.nb >= n:
            return (self.acc >> (self.nb - n)) & ((1 << n) - 1)
        return (self.acc << (n - self.nb)) & ((1 << n) - 1)

    def skip(self, n: int) -> None:
        if n > self.nb:  # peek() already pulled all real bytes in
            raise ValueError("truncated CCITT fax stream")
        self.nb -= n
        self.acc &= (1 << self.nb) - 1

    def exhausted(self) -> bool:
        return self.pos >= len(self.d) and self.nb == 0

    def bits_left(self) -> int:
        return self.nb + 8 * (len(self.d) - self.pos)

    def byte_align(self) -> None:
        self.skip(self.nb & 7)

    def sync_eol(self, max_fill: int = 4096) -> bool:
        """Consume fill zeros + one EOL (>=11 zeros then a 1). Returns
        False (consuming nothing) if the next bits are not an EOL."""
        save = (self.pos, self.acc, self.nb)
        zeros = 0
        while zeros <= max_fill:
            if self.bits_left() == 0:
                self.pos, self.acc, self.nb = save
                return False
            b = self.peek(1)
            if b:
                if zeros >= 11:
                    self.skip(1)
                    return True
                self.pos, self.acc, self.nb = save
                return False
            self.skip(1)
            zeros += 1
        raise ValueError("CCITT fax fill run too long")


def _read_run(r: _FaxReader, white: bool) -> int:
    """One full run: zero or more make-up codes then a terminating
    code (T.4 section 2.2.2)."""
    total = 0
    while True:
        if white:
            e = int(_WHITE_LUT[r.peek(_MAX_WHITE_BITS)])
        else:
            e = int(_BLACK_LUT[r.peek(_MAX_BLACK_BITS)])
        if e < 0:
            raise ValueError("corrupt CCITT fax run code")
        run, nb = e >> 4, e & 15
        r.skip(nb)
        total += run
        if run < 64:
            return total


def _decode_1d_row(r: _FaxReader, w: int) -> list[int]:
    """One MH row -> list of changing positions (first = white->black),
    strictly increasing, all < w."""
    trans: list[int] = []
    pos = 0
    white = True
    while pos < w:
        run = _read_run(r, white)
        pos += run
        if pos > w:
            raise ValueError("CCITT fax row overruns width")
        if pos < w:
            trans.append(pos)
        white = not white
    return trans


def _decode_2d_row(r: _FaxReader, ref: list[int], w: int) -> list[int]:
    """One 2-D coded row against reference transitions ``ref``
    (alternating colors, even index = white->black)."""
    trans: list[int] = []
    a0 = -1
    white = True
    while a0 < w:
        e = int(_MODE_LUT[r.peek(7)])
        if e < 0:
            raise ValueError("corrupt CCITT fax 2-D mode code")
        param, kind, nb = (e >> 6) - 3, (e >> 4) & 3, e & 15
        r.skip(nb)
        if kind == 3:
            raise NotImplementedError(
                "T.6 uncompressed-mode extension not supported")
        # b1: first changing element in ref strictly right of a0 with
        # color opposite a0's color (even ref index = white->black)
        i = _bisect_gt(ref, a0)
        if white != (i % 2 == 0):
            i += 1
        b1 = ref[i] if i < len(ref) else w
        b2 = ref[i + 1] if i + 1 < len(ref) else w
        if kind == 2:  # pass
            a0 = b2
        elif kind == 1:  # horizontal: two MH runs, color unchanged
            a0s = 0 if a0 < 0 else a0
            r1 = _read_run(r, white)
            r2 = _read_run(r, not white)
            p1, p2 = a0s + r1, a0s + r1 + r2
            if p2 > w or p1 > w:
                raise ValueError("CCITT fax 2-D row overruns width")
            if p1 < w:
                trans.append(p1)
            if p2 < w:
                trans.append(p2)
            a0 = p2
        else:  # vertical
            a1 = b1 + param
            if a1 < (0 if a0 < 0 else a0 + 1) or a1 > w:
                raise ValueError("CCITT fax vertical mode out of order")
            if a1 < w:
                trans.append(a1)
            a0 = a1
            white = not white
    if any(trans[i] >= trans[i + 1] for i in range(len(trans) - 1)):
        raise ValueError("CCITT fax transitions out of order")
    return trans


def _bisect_gt(a: list[int], x: int) -> int:
    lo, hi = 0, len(a)
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] <= x:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _paint(rows: list[list[int]], w: int) -> np.ndarray:
    out = np.zeros((len(rows), w), np.uint8)
    for y, trans in enumerate(rows):
        t = trans + [w] if len(trans) % 2 else trans
        for i in range(0, len(t), 2):
            out[y, t[i]:t[i + 1]] = 1
    return out


def decode_ccitt(data: bytes, w: int, nrows: int, comp: int,
                 t4_options: int = 0) -> np.ndarray:
    """Decode one bilevel fax strip -> (nrows, w) uint8 array with
    1 = black run (photometric mapping is the caller's job).

    comp: TIFF compression id — 2 (Modified Huffman RLE, byte-aligned
    rows), 3 (Group 3, EOL-framed; ``t4_options`` bit 0 enables the
    mixed 1-D/2-D mode with per-row tag bits), 4 (Group 4 / T.6)."""
    if w <= 0 or nrows <= 0:
        raise ValueError("bad CCITT fax dimensions")
    r = _FaxReader(data)
    rows: list[list[int]] = []
    ref: list[int] = []  # imaginary all-white reference line
    if comp == 2:
        for _ in range(nrows):
            rows.append(_decode_1d_row(r, w))
            r.byte_align()
    elif comp == 3:
        two_d = bool(t4_options & 1)
        for _ in range(nrows):
            saw_eol = r.sync_eol()
            if two_d:
                if not saw_eol:
                    raise ValueError("G3 2-D row missing EOL")
                tag = r.peek(1)
                r.skip(1)
                row = (_decode_1d_row(r, w) if tag
                       else _decode_2d_row(r, ref, w))
            else:
                row = _decode_1d_row(r, w)
            rows.append(row)
            ref = row
    elif comp == 4:
        for _ in range(nrows):
            row = _decode_2d_row(r, ref, w)
            rows.append(row)
            ref = row
    else:
        raise ValueError(f"not a CCITT compression id: {comp}")
    return _paint(rows, w)


# ---------------------------------------------------------------------------
# encoder (tests + the TIFF writer's bilevel path)


class _BitWriter:
    __slots__ = ("out", "acc", "nb")

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nb = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | code
        self.nb += length
        while self.nb >= 8:
            self.nb -= 8
            self.out.append((self.acc >> self.nb) & 0xFF)
        self.acc &= (1 << self.nb) - 1

    def byte_align(self) -> None:
        if self.nb:
            self.out.append((self.acc << (8 - self.nb)) & 0xFF)
            self.acc = 0
            self.nb = 0


def _emit_run(bw: _BitWriter, run: int, white: bool) -> None:
    table = _WHITE if white else _BLACK
    while run >= 2624:  # repeated largest extended make-up
        nb, val = _EXT[2560]
        bw.write(val, nb)
        run -= 2560
    if run >= 64:
        m = (run // 64) * 64
        nb, val = (_EXT if m >= 1792 else table)[m]
        bw.write(val, nb)
        run -= m
    nb, val = table[run]
    bw.write(val, nb)


def _transitions(row: np.ndarray) -> list[int]:
    d = np.flatnonzero(np.diff(row.astype(np.int8))) + 1
    t = d.tolist()
    if row[0]:
        t.insert(0, 0)
    return t


def encode_mh(bits: np.ndarray) -> bytes:
    """Modified Huffman RLE (TIFF compression 2): each row coded
    independently starting with a (possibly zero-length) white run,
    byte-aligned."""
    a = np.asarray(bits)
    if a.ndim != 2:
        raise ValueError("encode_mh wants an (h, w) 0/1 array")
    w = a.shape[1]
    bw = _BitWriter()
    for y in range(a.shape[0]):
        t = _transitions(a[y]) + [w]
        pos = 0
        white = True
        for nxt in t:
            _emit_run(bw, nxt - pos, white)
            pos = nxt
            white = not white
        if pos < w:
            _emit_run(bw, w - pos, white)
        bw.byte_align()
    return bytes(bw.out)


def encode_g4(bits: np.ndarray) -> bytes:
    """Group 4 / T.6 MMR with a trailing EOFB, padded to a byte."""
    a = np.asarray(bits)
    if a.ndim != 2:
        raise ValueError("encode_g4 wants an (h, w) 0/1 array")
    h, w = a.shape
    bw = _BitWriter()
    ref: list[int] = []
    for y in range(h):
        cur = _transitions(a[y])
        a0 = -1
        white = True
        ci = 0  # index of next transition in cur
        while a0 < w:
            a1 = cur[ci] if ci < len(cur) else w
            a2 = cur[ci + 1] if ci + 1 < len(cur) else w
            i = _bisect_gt(ref, a0)
            if white != (i % 2 == 0):
                i += 1
            b1 = ref[i] if i < len(ref) else w
            b2 = ref[i + 1] if i + 1 < len(ref) else w
            if b2 < a1:  # pass mode
                bw.write(0b0001, 4)
                a0 = b2
            elif abs(a1 - b1) <= 3:  # vertical mode
                nb, val = {0: (1, 0b1), 1: (3, 0b011), -1: (3, 0b010),
                           2: (6, 0b000011), -2: (6, 0b000010),
                           3: (7, 0b0000011),
                           -3: (7, 0b0000010)}[a1 - b1]
                bw.write(val, nb)
                a0 = a1
                white = not white
                ci += 1
            else:  # horizontal mode
                bw.write(0b001, 3)
                a0s = 0 if a0 < 0 else a0
                _emit_run(bw, a1 - a0s, white)
                _emit_run(bw, a2 - a1, not white)
                a0 = a2
                ci += 2
        ref = cur
    bw.write(0b000000000001, 12)  # EOFB
    bw.write(0b000000000001, 12)
    bw.byte_align()
    return bytes(bw.out)


# byte bit-reversal table for TIFF FillOrder 2 (tag 266)
_REV = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def reverse_fill_order(data: bytes) -> bytes:
    return data.translate(_REV)
