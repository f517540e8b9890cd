"""Optional native accelerators, each verified once through ``checked``.

Seven extensions, each independently optional. A module that uses one
takes its handle only through ``checked(_native.<name>, selftest)``,
once at import, where ``selftest`` is that module's own A/B check of
the candidate build against its pure-Python (or ctypes) path:
  * ``swishtok`` — the C tokenizer (tokenizer._native_selftest); on
    that handle, the batch record arena, checked against the reference
    route's columns (pipeline._arena_selftest)
  * ``swishsax`` — the C SAX front-end, checked against the ctypes
    event stream (libxml._sax_selftest); on that handle, the
    extraction state machine, checked through a one-row swishtok
    arena against the event replay (sax._machine_selftest)
  * ``swishpng`` — the PNG scanline un-filter kernel
    (ops.codecs._native_selftest)
  * ``swishjpeg`` — the JPEG entropy-decode scan loop
    (ops.jpeg._native_selftest)
  * ``swishwebp`` — the VP8L (WebP lossless) pixel loop
    (ops.webp._native_selftest)
  * ``swishlzw`` — the GIF and TIFF LZW decoders, checked once per
    use (ops.codecs._lzw_selftest, ops.tiff._native_selftest)
  * ``swishaes`` — AES-128/192/256 ECB/CBC for the PDF security
    handler (ops.pdfcrypt._aes_native_selftest, FIPS-197 vectors)

A check that returns anything but True, or raises, leaves that module's
handle None, and its pure path runs for the life of the process.

Each extension is built into this directory as
``<name>.<digest><EXT_SUFFIX>``, the digest taken over its ``.c``
source and build flags. On import the file for the current source is
loaded; if it is absent and a C compiler is available it is compiled
quietly (atomic rename, safe under concurrent workers) and the
extension's builds for other digests are deleted. So an edited source
is never served by a stale binary whose interface no longer matches
its Python caller. Any failure to build or load leaves the symbol
``None``.

Set SWISHRAY_NO_NATIVE=1 to force the non-native paths.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import os
import subprocess
import sysconfig

swishtok = None
swishsax = None
swishpng = None
swishjpeg = None
swishwebp = None
swishlzw = None
swishaes = None

_HERE = os.path.dirname(os.path.abspath(__file__))
_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

_LIBXML2_CFLAGS = ["-I/usr/include/libxml2"]
_LIBXML2_LIBS = ["-L/usr/lib/x86_64-linux-gnu", "-lxml2"]


def _so_path(name: str, here: str, cflags: list[str],
             libs: list[str]) -> str:
    """The build path of ``name`` for its current source and flags."""
    h = hashlib.sha256()
    with open(os.path.join(here, name + ".c"), "rb") as f:
        h.update(f.read())
    h.update("\0".join(cflags + libs).encode())
    return os.path.join(here, f"{name}.{h.hexdigest()[:16]}{_SUFFIX}")


def _try_build(name: str, out: str, here: str, cflags: list[str],
               libs: list[str]) -> bool:
    src = os.path.join(here, name + ".c")
    include = sysconfig.get_paths()["include"]
    tmp = out + f".tmp.{os.getpid()}"
    cmd = (["gcc", "-O2", "-shared", "-fPIC", f"-I{include}"]
           + cflags + [src, "-o", tmp] + libs)
    try:
        r = subprocess.run(cmd, capture_output=True, timeout=120)
        if r.returncode != 0:
            return False
        os.replace(tmp, out)  # atomic; concurrent builders race safely
    except Exception:
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass
    # builds of older sources; a process that already loaded one
    # keeps its mapping
    for stale in (glob.glob(os.path.join(here, f"{name}.*{_SUFFIX}"))
                  + [os.path.join(here, name + _SUFFIX)]):
        if stale != out:
            try:
                os.remove(stale)
            except OSError:
                pass
    return True


def _load_one(name: str, cflags: list[str], libs: list[str],
              here: str = _HERE):
    """Load (building if needed) the extension ``name`` from the
    ``<name>.c`` in ``here``; None on any failure."""
    try:
        out = _so_path(name, here, cflags, libs)
        if not os.path.exists(out):
            if not _try_build(name, out, here, cflags, libs):
                return None
        spec = importlib.util.spec_from_file_location(name, out)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
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


def checked(mod, selftest):
    """``mod`` when ``selftest(mod)`` returns True; None when ``mod`` is
    None (the check is not called), or the check returns anything else
    or raises."""
    if mod is None:
        return None
    try:
        return mod if selftest(mod) is True else None
    except Exception:
        return None


_load()
