"""Optional native accelerators (import-try gated, per task brief).

Seven extensions, each independently optional and each A/B-verified
against its pure-Python (or ctypes) path by the module that uses it
before first use:
  * ``swishtok`` — the C tokenizer (tokenizer._native_selftest)
  * ``swishsax`` — the C event-batching SAX front-end, checked against
    the ctypes event stream (libxml._sax_selftest)
  * ``swishpng`` — the PNG scanline un-filter kernel
    (ops.codecs._native_selftest)
  * ``swishjpeg`` — the JPEG entropy-decode scan loop
    (ops.jpeg._native_selftest)
  * ``swishwebp`` — the VP8L (WebP lossless) pixel loop
    (ops.webp._native_selftest)
  * ``swishlzw`` — the GIF and TIFF LZW decoders (ops.codecs,
    ops.tiff._native_selftest)
  * ``swishaes`` — AES-128/192/256 ECB/CBC for the PDF security
    handler (ops.pdfcrypt._aes_selftest, FIPS-197 vectors)

On first import, tries to load a prebuilt extension from this
directory; if absent and a C compiler is available, compiles it
quietly (atomic rename, safe under concurrent workers). Any failure
leaves the symbol ``None`` and the pure-Python/ctypes path runs.

Set SWISHRAY_NO_NATIVE=1 to force the non-native paths.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig

swishtok = None
swishsax = None
swishpng = None
swishjpeg = None
swishwebp = None
swishlzw = None
swishaes = None

_HERE = os.path.dirname(os.path.abspath(__file__))

_LIBXML2_CFLAGS = ["-I/usr/include/libxml2"]
_LIBXML2_LIBS = ["-L/usr/lib/x86_64-linux-gnu", "-lxml2"]


def _so_path(name: str) -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_HERE, name + suffix)


def _try_build(name: str, cflags: list[str], libs: list[str]) -> bool:
    src = os.path.join(_HERE, name + ".c")
    out = _so_path(name)
    if not os.path.exists(src):
        return False
    include = sysconfig.get_paths()["include"]
    tmp = out + f".tmp.{os.getpid()}"
    cmd = (["gcc", "-O2", "-shared", "-fPIC", f"-I{include}"]
           + cflags + [src, "-o", tmp] + libs)
    try:
        r = subprocess.run(cmd, capture_output=True, timeout=120)
        if r.returncode != 0:
            return False
        os.replace(tmp, out)  # atomic; concurrent builders race safely
        return True
    except Exception:
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def _load_one(name: str, cflags: list[str], libs: list[str]):
    try:
        if not os.path.exists(_so_path(name)):
            if not _try_build(name, cflags, libs):
                return None
        if _HERE not in sys.path:
            sys.path.insert(0, _HERE)
        import importlib
        return importlib.import_module(name)
    except Exception:
        return None


def _load() -> None:
    global swishtok, swishsax, swishpng, swishjpeg, swishwebp
    global swishlzw, swishaes
    if os.environ.get("SWISHRAY_NO_NATIVE") == "1":
        return
    swishtok = _load_one("swishtok", [], [])
    swishsax = _load_one("swishsax", _LIBXML2_CFLAGS, _LIBXML2_LIBS)
    swishpng = _load_one("swishpng", [], [])
    swishjpeg = _load_one("swishjpeg", [], [])
    swishwebp = _load_one("swishwebp", [], [])
    swishlzw = _load_one("swishlzw", [], [])
    swishaes = _load_one("swishaes", [], [])


_load()
