"""PDF standard security handler — from-scratch over ISO 32000
§7.6 plus the public FIPS-197 (AES) and RC4 algorithm descriptions.

A large share of real-web PDFs are "encrypted" with an EMPTY user
password (permissions-only protection); a crawl extractor that skips
them silently loses that whole slice of the corpus.  This module
implements the decrypt side for the flavors that matter:

* /V 1 and /V 2 — RC4 with 40..128-bit keys (/R 2 and /R 3);
* /V 4 — crypt filters, /AESV2 (AES-128-CBC) and /V2 (RC4) names,
  per-object keys (algorithm 1);
* /V 5 /R 6 — AES-256 per ISO 32000-2 (algorithms 2.A / 2.B hash).

plus the ENCRYPT side for the same flavors, used by the builder so
round-trip tests and oracle queries can cover encrypted inputs
without any external PDF library (none exists in this container).

AES is implemented from scratch (FIPS-197: S-boxes generated from
the GF(2^8) inverse, key expansion, the four round transforms) and
is self-tested at import against the FIPS-197 Appendix C known-answer
vectors; RC4 against the classic public test vectors.  Both are
pure-Python — encryption shows up on a handful of bytes per object,
far off the decode hot path.
"""
from __future__ import annotations

import hashlib
import struct

from .. import _native

__all__ = ["rc4", "AES", "StandardDecryptor", "StandardEncryptor"]

# the 32-byte padding string from ISO 32000-1 §7.6.3.3 (a published
# constant, same in every PDF implementation)
_PAD = bytes([
    0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
    0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
    0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
    0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
])


# ---------------------------------------------------------------------
# RC4

def rc4(key: bytes, data: bytes) -> bytes:
    """RC4 stream cipher (symmetric: encrypt == decrypt)."""
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    out = bytearray(len(data))
    i = j = 0
    for k, byte in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        out[k] = byte ^ s[(s[i] + s[j]) & 0xFF]
    return bytes(out)


# ---------------------------------------------------------------------
# AES (FIPS-197), from scratch

_NATIVE = None  # the swishaes C kernel once checked below


def _aes_tables() -> tuple[bytes, bytes, list, list]:
    """Generate the S-box from the GF(2^8) multiplicative inverse +
    affine transform (FIPS-197 §5.1.1) — generated, not transcribed."""
    # GF(2^8) exp/log tables over generator 3
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def gmul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return exp[log[a] + log[b]]

    sbox = bytearray(256)
    for i in range(256):
        inv = exp[255 - log[i]] if i else 0
        s = inv
        for _ in range(4):
            inv = ((inv << 1) | (inv >> 7)) & 0xFF
            s ^= inv
        sbox[i] = s ^ 0x63
    inv_sbox = bytearray(256)
    for i, v in enumerate(sbox):
        inv_sbox[v] = i
    # per-byte multiply tables for MixColumns / InvMixColumns
    mul = {c: bytes(gmul(i, c) for i in range(256))
           for c in (2, 3, 9, 11, 13, 14)}
    return bytes(sbox), bytes(inv_sbox), exp, mul


_SBOX, _INV_SBOX, _EXP, _MUL = _aes_tables()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
         0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


class AES:
    """AES-128/192/256, ECB block primitives + CBC helpers.

    When the swishaes C kernel is available (A/B-gated below against
    the FIPS-197 vectors and random round-trips vs this pure path),
    the block/CBC methods delegate to it — the R6 key-derivation
    hash alone runs ~25k blocks per encrypted PDF."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("bad AES key length")
        self._crk = _NATIVE.expand(key) if _NATIVE else None
        self.nr = len(key) // 4 + 6
        # the pure-Python schedule is only needed on the fallback
        # path; computing it eagerly would double the per-object
        # setup cost the C kernel exists to remove
        self.rk = None if self._crk is not None \
            else self._expand_py(key)

    @staticmethod
    def _expand_py(key: bytes) -> list[bytes]:
        nk = len(key) // 4
        nr = nk + 6
        w = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            t = list(w[i - 1])
            if i % nk == 0:
                t = t[1:] + t[:1]
                t = [_SBOX[b] for b in t]
                t[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                t = [_SBOX[b] for b in t]
            w.append([w[i - nk][j] ^ t[j] for j in range(4)])
        # round keys as flat 16-byte blocks
        return [bytes(b for word in w[4 * r:4 * r + 4]
                      for b in word)
                for r in range(nr + 1)]

    # state is a flat 16-byte list in column-major order (FIPS-197
    # maps input bytes down columns)
    @staticmethod
    def _xor(a: bytes | bytearray, b: bytes) -> bytearray:
        return bytearray(x ^ y for x, y in zip(a, b))

    def encrypt_block(self, block: bytes) -> bytes:
        if self._crk is not None:
            return _NATIVE.ecb(self._crk, block, 1)
        s = self._xor(block, self.rk[0])
        m2, m3 = _MUL[2], _MUL[3]
        for rnd in range(1, self.nr):
            s = bytearray(_SBOX[b] for b in s)
            # ShiftRows on column-major flat layout: row r rotates
            # left by r; byte (r, c) lives at index 4*c + r
            s = bytearray(s[(r + 4 * ((c + r) % 4))]
                          for c in range(4) for r in range(4))
            t = bytearray(16)
            for c in range(4):
                a0, a1, a2, a3 = s[4 * c:4 * c + 4]
                t[4 * c + 0] = m2[a0] ^ m3[a1] ^ a2 ^ a3
                t[4 * c + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
                t[4 * c + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
                t[4 * c + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
            s = self._xor(t, self.rk[rnd])
        s = bytearray(_SBOX[b] for b in s)
        s = bytearray(s[(r + 4 * ((c + r) % 4))]
                      for c in range(4) for r in range(4))
        return bytes(self._xor(s, self.rk[self.nr]))

    def decrypt_block(self, block: bytes) -> bytes:
        if self._crk is not None:
            return _NATIVE.ecb(self._crk, block, 0)
        s = self._xor(block, self.rk[self.nr])
        m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
        for rnd in range(self.nr - 1, 0, -1):
            # InvShiftRows: row r rotates right by r
            s = bytearray(s[(r + 4 * ((c - r) % 4))]
                          for c in range(4) for r in range(4))
            s = bytearray(_INV_SBOX[b] for b in s)
            s = self._xor(s, self.rk[rnd])
            t = bytearray(16)
            for c in range(4):
                a0, a1, a2, a3 = s[4 * c:4 * c + 4]
                t[4 * c + 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
                t[4 * c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
                t[4 * c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
                t[4 * c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
            s = t
        s = bytearray(s[(r + 4 * ((c - r) % 4))]
                      for c in range(4) for r in range(4))
        s = bytearray(_INV_SBOX[b] for b in s)
        return bytes(self._xor(s, self.rk[0]))

    # -- CBC ------------------------------------------------------
    def cbc_decrypt(self, data: bytes, iv: bytes) -> bytes:
        if self._crk is not None:
            return _NATIVE.cbc_decrypt(self._crk, iv, data)
        if len(data) % 16:
            data = data[:len(data) - len(data) % 16]
        out = bytearray()
        prev = iv
        for i in range(0, len(data), 16):
            blk = data[i:i + 16]
            out += self._xor(self.decrypt_block(blk), prev)
            prev = blk
        return bytes(out)

    def cbc_encrypt(self, data: bytes, iv: bytes) -> bytes:
        if len(data) % 16:
            raise ValueError("CBC input not block-aligned")
        if self._crk is not None:
            return _NATIVE.cbc_encrypt(self._crk, iv, data)
        out = bytearray()
        prev = iv
        for i in range(0, len(data), 16):
            prev = self.encrypt_block(
                bytes(x ^ y for x, y in zip(data[i:i + 16], prev)))
            out += prev
        return bytes(out)


# FIPS-197 Appendix C known-answer vectors (public spec)
_AES_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
_AES_KAT = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f"
     "101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


def _aes_selftest() -> None:
    """The FIPS-197 vectors on the pure path and the classic RC4
    vector: a mismatch fails the import."""
    pt = _AES_PT
    for key_hex, ct_hex in _AES_KAT:
        a = AES(bytes.fromhex(key_hex))
        ct = bytes.fromhex(ct_hex)
        assert a.encrypt_block(pt) == ct, "AES encrypt self-test"
        assert a.decrypt_block(ct) == pt, "AES decrypt self-test"
    # RC4 classic public vector
    assert rc4(b"Key", b"Plaintext") == bytes.fromhex(
        "bbf316e8d940af0ad3"), "RC4 self-test"


def _aes_native_selftest(native) -> bool:
    """The swishaes kernel on the FIPS-197 vectors, plus random
    CBC cross-checks against the pure path."""
    pt = _AES_PT
    for key_hex, ct_hex in _AES_KAT:
        rk = native.expand(bytes.fromhex(key_hex))
        ct = bytes.fromhex(ct_hex)
        if native.ecb(rk, pt, 1) != ct or native.ecb(rk, ct, 0) != pt:
            return False
    for trial in range(8):
        blob = hashlib.sha256(b"swishaes%d" % trial).digest() * 6
        key = blob[:16 + 8 * (trial % 3)]
        iv, data = blob[32:48], blob[48:48 + 32 * 2]
        pure = AES(key)
        rk = native.expand(key)
        if (native.cbc_encrypt(rk, iv, data) != pure.cbc_encrypt(data, iv)
                or native.cbc_decrypt(rk, iv, data)
                != pure.cbc_decrypt(data, iv)):
            return False
    return True


_aes_selftest()
_NATIVE = _native.checked(_native.swishaes, _aes_native_selftest)


# ---------------------------------------------------------------------
# padding helpers

def _pad_password(pw: bytes) -> bytes:
    return (pw + _PAD)[:32]


def _cbc_pad(data: bytes) -> bytes:
    padlen = 16 - len(data) % 16
    return data + bytes([padlen]) * padlen


def _cbc_unpad(data: bytes) -> bytes:
    if not data:
        return data
    padlen = data[-1]
    if 1 <= padlen <= 16 and len(data) >= padlen:
        return data[:-padlen]
    return data  # tolerate bad padding (crawl discipline)


# ---------------------------------------------------------------------
# key derivation

def _alg2_file_key(enc: dict, id0: bytes, pw: bytes,
                   pw_is_padded: bool = False) -> bytes:
    """ISO 32000-1 algorithm 2 (R2..R4 file encryption key).
    ``pw_is_padded``: the owner-password path (algorithm 7) recovers
    the ALREADY-padded user password from /O — feed it verbatim."""
    r = enc.get("R", 2)
    # R2 keys are always 40-bit whatever /Length claims (§7.6.3.3)
    nbytes = 5 if r == 2 else max(
        5, min(16, int(enc.get("Length", 40)) // 8))
    o = _as_bytes(enc.get("O", b""))[:32]
    p = int(enc.get("P", -1)) & 0xFFFFFFFF
    h = hashlib.md5()
    h.update(pw[:32] if pw_is_padded else _pad_password(pw))
    h.update(o)
    h.update(struct.pack("<I", p))
    h.update(id0)
    if r >= 4 and enc.get("EncryptMetadata") is False:
        h.update(b"\xff\xff\xff\xff")
    key = h.digest()
    if r >= 3:
        for _ in range(50):
            key = hashlib.md5(key[:nbytes]).digest()
    return key[:nbytes]


def _alg2b_hash(pw: bytes, salt: bytes, udata: bytes) -> bytes:
    """ISO 32000-2 algorithm 2.B (the R6 iterated hash)."""
    k = hashlib.sha256(pw + salt + udata).digest()
    i = 0
    while True:
        k1 = (pw + k + udata) * 64
        e = AES(k[:16]).cbc_encrypt(k1, k[16:32])
        mod = sum(e[:16]) % 3
        if mod == 0:
            k = hashlib.sha256(e).digest()
        elif mod == 1:
            k = hashlib.sha384(e).digest()
        else:
            k = hashlib.sha512(e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            return k[:32]


def _as_bytes(v) -> bytes:
    if isinstance(v, bytes):
        return v
    if isinstance(v, str):
        return v.encode("latin-1", "replace")
    return b""


# ---------------------------------------------------------------------
# decrypt side

class StandardDecryptor:
    """Decrypts strings and streams given the /Encrypt dictionary,
    the first file ID, and a password (default empty — the common
    crawl case)."""

    def __init__(self, enc: dict, id0: bytes,
                 password: bytes = b"") -> None:
        filt = str(enc.get("Filter", ""))
        if filt != "Standard":
            raise ValueError(f"unsupported security handler {filt!r}")
        self.v = int(enc.get("V", 0))
        self.r = int(enc.get("R", 2))
        if self.v not in (1, 2, 4, 5):
            raise ValueError(f"unsupported /V {self.v}")
        # crypt-filter methods for V4/V5: streams follow /StmF,
        # strings /StrF (both default to /Identity; real files
        # overwhelmingly point both at /StdCF)
        self.stm_method = self._cf_method(enc, "StmF")
        self.str_method = self._cf_method(enc, "StrF")
        # V4+ only: /EncryptMetadata false leaves the /Metadata
        # streams in the clear (and changes the file key, algorithm 2)
        self.encrypt_metadata = not (
            self.v >= 4 and enc.get("EncryptMetadata") is False)
        if self.v == 5:
            self.key = self._v5_key(enc, password)
        else:
            self.key = _alg2_file_key(enc, id0, password)
            if not self._check_u(enc, id0):
                # not the user password: try it as the OWNER password
                # (algorithm 7 — recover the padded user password
                # from /O, then proceed as the user)
                self.key = _alg2_file_key(
                    enc, id0, self._owner_to_user(enc, password),
                    pw_is_padded=True)
                if not self._check_u(enc, id0):
                    raise ValueError(
                        "password required (U mismatch)")

    def _cf_method(self, enc: dict, which: str) -> str:
        """"RC4", "AES" or "NONE" for the crypt filter that /StmF or
        /StrF names; V1/V2 files have no crypt filters (always RC4)."""
        if self.v < 4:
            return "RC4"
        name = str(enc.get(which, "Identity"))
        if name == "Identity":
            return "NONE"
        if self.v == 5:
            return "AES"
        cf = enc.get("CF") or {}
        cfd = cf.get(name) if isinstance(cf, dict) else None
        cfm = str(cfd.get("CFM", "V2")) if isinstance(cfd, dict) \
            else "Identity"
        return {"V2": "RC4", "AESV2": "AES", "AESV3": "AES",
                "Identity": "NONE"}.get(cfm, "RC4")

    def _check_u(self, enc: dict, id0: bytes) -> bool:
        """Algorithms 6/4: does the current key reproduce /U?"""
        if self.r >= 3:
            u = _as_bytes(enc.get("U", b""))[:16]
            test = rc4(self.key, hashlib.md5(_PAD + id0).digest())
            for i in range(1, 20):
                test = rc4(bytes(b ^ i for b in self.key), test)
            return test[:16] == u
        u = _as_bytes(enc.get("U", b""))[:32]
        return rc4(self.key, _PAD) == u

    def _owner_to_user(self, enc: dict, pw: bytes) -> bytes:
        """Algorithm 7's decrypt half: /O under the owner-password
        key yields the padded user password."""
        nbytes = 5 if self.r == 2 else max(
            5, min(16, int(enc.get("Length", 40)) // 8))
        okey = hashlib.md5(_pad_password(pw)).digest()
        if self.r >= 3:
            for _ in range(50):
                okey = hashlib.md5(okey).digest()
        okey = okey[:nbytes]
        data = _as_bytes(enc.get("O", b""))[:32]
        if self.r >= 3:
            for i in range(19, -1, -1):
                data = rc4(bytes(b ^ i for b in okey), data)
        else:
            data = rc4(okey, data)
        return data

    # R6 key derivation costs ~25k AES blocks; files sharing the
    # same /Encrypt material (retries, mirrored crawl copies, the
    # synthetic corpora) must not re-derive per document
    _V5_CACHE: dict[tuple, bytes] = {}

    def _v5_key(self, enc: dict, pw: bytes) -> bytes:
        u = _as_bytes(enc.get("U", b""))
        ue = _as_bytes(enc.get("UE", b""))
        o = _as_bytes(enc.get("O", b""))
        oe = _as_bytes(enc.get("OE", b""))
        if len(u) < 48:
            raise ValueError("short /U for V5")
        ck = (u, ue, o, oe, pw)
        hit = self._V5_CACHE.get(ck)
        if hit is not None:
            return hit
        key = self._v5_key_uncached(u, ue, o, oe, pw)
        if len(self._V5_CACHE) > 4096:
            self._V5_CACHE.clear()
        self._V5_CACHE[ck] = key
        return key

    def _v5_key_uncached(self, u: bytes, ue: bytes, o: bytes,
                         oe: bytes, pw: bytes) -> bytes:
        vsalt, ksalt = u[32:40], u[40:48]
        # try the USER password first (empty for the crawl case)
        if _alg2b_hash(pw, vsalt, b"") == u[:32]:
            ikey = _alg2b_hash(pw, ksalt, b"")
            return AES(ikey).cbc_decrypt(ue[:32], b"\0" * 16)
        # then the OWNER password (hash includes the full 48-byte U)
        if len(o) >= 48 and _alg2b_hash(pw, o[32:40], u[:48]) == o[:32]:
            ikey = _alg2b_hash(pw, o[40:48], u[:48])
            return AES(ikey).cbc_decrypt(oe[:32], b"\0" * 16)
        raise ValueError("password required (V5 hash mismatch)")

    def _object_key(self, num: int, gen: int, method: str) -> bytes:
        if self.v == 5:
            return self.key
        h = hashlib.md5()
        h.update(self.key)
        h.update(struct.pack("<I", num)[:3])
        h.update(struct.pack("<I", gen)[:2])
        if method == "AES":
            h.update(b"sAlT")
        return h.digest()[:min(len(self.key) + 5, 16)]

    def _decrypt(self, data: bytes, num: int, gen: int,
                 method: str) -> bytes:
        if method == "NONE":
            return data
        if method == "AES":
            if len(data) < 16:
                return b""
            if self.v == 5:
                # the V5 key is file-constant: one AES schedule for
                # the whole document, not one per object
                aes = getattr(self, "_aes5", None)
                if aes is None:
                    aes = self._aes5 = AES(self.key)
            else:
                aes = AES(self._object_key(num, gen, method))
            return _cbc_unpad(aes.cbc_decrypt(data[16:], data[:16]))
        return rc4(self._object_key(num, gen, method), data)

    def decrypt_stream(self, data: bytes, num: int, gen: int) -> bytes:
        return self._decrypt(data, num, gen, self.stm_method)

    def decrypt_string(self, data: bytes, num: int, gen: int) -> bytes:
        return self._decrypt(data, num, gen, self.str_method)


# ---------------------------------------------------------------------
# encrypt side (builder / tests; deterministic given a seed)

class StandardEncryptor:
    """Produces the /Encrypt dictionary and encrypts objects for the
    builder.  ``flavor`` in {"rc4-40", "rc4-128", "aes-128",
    "aes-256"}; empty user password, owner password = b"owner".
    All "random" material is derived from ``seed`` via SHA-256 so
    built files are byte-deterministic.  The AES flavors (V4/V5 crypt
    filters) can leave /Metadata streams plain
    (``encrypt_metadata=False``) or strings plain
    (``encrypt_strings=False``: /StrF /Identity)."""

    def __init__(self, flavor: str, id0: bytes,
                 seed: bytes = b"swishray",
                 user_password: bytes = b"",
                 owner_password: bytes = b"owner",
                 encrypt_metadata: bool = True,
                 encrypt_strings: bool = True) -> None:
        if not (encrypt_metadata and encrypt_strings) and \
                flavor not in ("aes-128", "aes-256"):
            raise ValueError(f"{flavor} has no crypt filters")
        self.flavor = flavor
        self.encrypt_metadata = encrypt_metadata
        self.encrypt_strings = encrypt_strings
        self.id0 = id0
        self.rand = hashlib.sha256(
            seed + b"|" + flavor.encode("ascii")
            + b"|" + user_password).digest()
        owner_pw, user_pw = owner_password, user_password
        if flavor == "aes-256":
            self.v, self.r = 5, 6
            self.length = 256
            self._setup_v5(owner_pw, user_pw)
            return
        self.v, self.r, self.length = {
            "rc4-40": (1, 2, 40),
            "rc4-128": (2, 3, 128),
            "aes-128": (4, 4, 128),
        }[flavor]
        n = self.length // 8
        p = -44  # print/copy denied: a realistic permissions mask
        # /O (algorithm 3)
        okey = hashlib.md5(_pad_password(owner_pw)).digest()
        if self.r >= 3:
            for _ in range(50):
                okey = hashlib.md5(okey).digest()
        okey = okey[:n]
        o = rc4(okey, _pad_password(user_pw))
        if self.r >= 3:
            for i in range(1, 20):
                o = rc4(bytes(b ^ i for b in okey), o)
        self.o = o
        enc = {"R": self.r, "O": o, "P": p, "Length": self.length,
               "EncryptMetadata": encrypt_metadata}
        self.key = _alg2_file_key(enc, id0, user_pw)
        # /U (algorithms 4/5)
        if self.r == 2:
            self.u = rc4(self.key, _PAD)
        else:
            u = rc4(self.key, hashlib.md5(_PAD + id0).digest())
            for i in range(1, 20):
                u = rc4(bytes(b ^ i for b in self.key), u)
            self.u = u + self.rand[:16]
        self.p = p

    def _setup_v5(self, owner_pw: bytes, user_pw: bytes) -> None:
        r = self.rand
        self.key = hashlib.sha256(r + b"filekey").digest()
        uv, uk = r[:8], r[8:16]
        ov, ok = r[16:24], r[24:32]
        self.u = _alg2b_hash(user_pw, uv, b"") + uv + uk
        ue_key = _alg2b_hash(user_pw, uk, b"")
        self.ue = AES(ue_key).cbc_encrypt(self.key, b"\0" * 16)
        self.o = _alg2b_hash(owner_pw, ov, self.u) + ov + ok
        oe_key = _alg2b_hash(owner_pw, ok, self.u)
        self.oe = AES(oe_key).cbc_encrypt(self.key, b"\0" * 16)
        self.p = -44
        perms = (struct.pack("<i", self.p) + b"\xff\xff\xff\xff"
                 + (b"T" if self.encrypt_metadata else b"F")
                 + b"adb" + r[:4])
        self.perms = AES(self.key).encrypt_block(perms)

    # -- object encryption -------------------------------------------
    def _object_key(self, num: int, gen: int) -> bytes:
        if self.v == 5:
            return self.key
        h = hashlib.md5()
        h.update(self.key)
        h.update(struct.pack("<I", num)[:3])
        h.update(struct.pack("<I", gen)[:2])
        if self.flavor == "aes-128":
            h.update(b"sAlT")
        return h.digest()[:min(len(self.key) + 5, 16)]

    def encrypt(self, data: bytes, num: int, gen: int) -> bytes:
        key = self._object_key(num, gen)
        if self.flavor in ("aes-128", "aes-256"):
            iv = hashlib.sha256(
                self.rand + struct.pack("<II", num, gen)).digest()[:16]
            return iv + AES(key).cbc_encrypt(_cbc_pad(data), iv)
        return rc4(key, data)

    def encrypt_string(self, data: bytes, num: int, gen: int) -> bytes:
        if not self.encrypt_strings:
            return data
        return self.encrypt(data, num, gen)

    def encrypt_dict_body(self) -> bytes:
        """The /Encrypt dictionary, serialized (strings hex-escaped
        so the writer can emit it verbatim)."""
        def hx(b: bytes) -> bytes:
            return b"<" + b.hex().encode() + b">"

        filters = (b" /StmF /StdCF /StrF /"
                   + (b"StdCF" if self.encrypt_strings else b"Identity")
                   + (b"" if self.encrypt_metadata
                      else b" /EncryptMetadata false"))
        if self.v == 5:
            return (b"<< /Filter /Standard /V 5 /R 6 /Length 256"
                    b" /P %d /O %s /U %s /OE %s /UE %s /Perms %s"
                    b" /CF << /StdCF << /CFM /AESV3 /Length 32 >> >>"
                    b"%s >>"
                    % (self.p, hx(self.o), hx(self.u),
                       hx(self.oe), hx(self.ue), hx(self.perms),
                       filters))
        if self.flavor == "aes-128":
            return (b"<< /Filter /Standard /V 4 /R 4 /Length 128"
                    b" /P %d /O %s /U %s"
                    b" /CF << /StdCF << /CFM /AESV2 /Length 16 >> >>"
                    b"%s >>"
                    % (self.p, hx(self.o), hx(self.u), filters))
        return (b"<< /Filter /Standard /V %d /R %d /Length %d"
                b" /P %d /O %s /U %s >>"
                % (self.v, self.r, self.length, self.p,
                   hx(self.o), hx(self.u)))
