"""Native extension builds follow their source (swishray/_native), and
every module takes its extension handle through ``_native.checked``."""

import ast
import ctypes
import glob
import importlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

from swishray import _native

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(_native.__file__), "swishlzw.c")
SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_edited_source_is_rebuilt(tmp_path):
    """An extension built from an older source is not loaded: editing
    the ``.c`` builds and loads a new binary and deletes the old one,
    including a build under the undigested legacy name."""
    here = str(tmp_path)
    shutil.copy(SRC, here)
    legacy = os.path.join(here, "swishlzw" + SUFFIX)
    with open(legacy, "wb") as f:
        f.write(b"not an extension")

    mod = _native._load_one("swishlzw", [], [], here=here)
    assert mod is not None
    assert mod.__doc__ == "LZW decode kernels (GIF + TIFF variants)"
    first = glob.glob(os.path.join(here, "*" + SUFFIX))
    assert first == [mod.__file__]
    # a second load reuses the build
    assert _native._load_one("swishlzw", [], [], here=here).__file__ \
        == mod.__file__

    src = os.path.join(here, "swishlzw.c")
    with open(src) as f:
        code = f.read()
    with open(src, "w") as f:
        f.write(code.replace('"LZW decode kernels (GIF + TIFF variants)"',
                             '"LZW decode kernels, edited"'))
    edited = _native._load_one("swishlzw", [], [], here=here)
    assert edited is not None
    assert edited.__doc__ == "LZW decode kernels, edited"
    assert glob.glob(os.path.join(here, "*" + SUFFIX)) == [edited.__file__]
    assert edited.__file__ != mod.__file__


def test_broken_source_falls_back_to_none(tmp_path):
    here = str(tmp_path)
    with open(os.path.join(here, "swishlzw.c"), "w") as f:
        f.write("this is not C\n")
    assert _native._load_one("swishlzw", [], [], here=here) is None


# --- the one gate: every accelerator handle is taken through
# _native.checked with its module's own A/B check

def test_checked_none_module_skips_the_check():
    calls = []
    assert _native.checked(None, lambda m: calls.append(m) or True) is None
    assert calls == []


def test_checked_returns_the_module_only_on_true():
    mod = object()
    assert _native.checked(mod, lambda m: m is mod) is mod
    assert _native.checked(mod, lambda m: False) is None
    # a check must return True itself, not just something truthy
    assert _native.checked(mod, lambda m: 1) is None


def test_checked_raising_check_gives_none():
    def boom(m):
        raise RuntimeError("mismatch")
    assert _native.checked(object(), boom) is None


# (extension, module, handle) for each of the ten gates
GATES = [
    ("swishtok", "swishray.tokenizer", "_native"),
    ("swishtok", "swishray.pipeline", "_arena"),
    ("swishsax", "swishray.libxml", "_sax_native"),
    ("swishsax", "swishray.sax", "_machine"),
    ("swishpng", "swishray.ops.codecs", "_native_png"),
    ("swishlzw", "swishray.ops.codecs", "_native_lzw"),
    ("swishlzw", "swishray.ops.tiff", "_native_lzw"),
    ("swishjpeg", "swishray.ops.jpeg", "_native_jpeg"),
    ("swishwebp", "swishray.ops.webp", "_native_webp"),
    ("swishaes", "swishray.ops.pdfcrypt", "_NATIVE"),
]


def _libwebp_present() -> bool:
    # ops.webp's check encodes its sample with libwebp
    try:
        ctypes.CDLL("libwebp.so.7")
    except OSError:
        return False
    return True


def test_every_gate_is_live_when_built():
    """A failing import self-test silently drops the engine onto the
    slower path; catch that wherever the extensions were built."""
    dead = []
    for ext, modname, handle in GATES:
        if getattr(_native, ext) is None:
            continue
        if ext == "swishwebp" and not _libwebp_present():
            continue
        if getattr(importlib.import_module(modname), handle) is None:
            dead.append(f"{modname}.{handle}")
    assert dead == []


def test_no_native_leaves_every_handle_none():
    code = ("import importlib, json\n"
            f"gates = {[(m, h) for _, m, h in GATES]!r}\n"
            "print(json.dumps([getattr(importlib.import_module(m), h)"
            " is None for m, h in gates]))\n")
    env = dict(os.environ, SWISHRAY_NO_NATIVE="1")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [True] * len(GATES)


def _is_checked_call(node) -> bool:
    f = node.func
    return (f.id if isinstance(f, ast.Name)
            else getattr(f, "attr", None)) == "checked"


def test_extensions_are_read_only_through_checked():
    """No module imports an extension by name, and every read of one
    off the ``_native`` package is the first argument of ``checked``."""
    exts = {os.path.basename(p)[:-2]
            for p in glob.glob(os.path.join(ROOT, "swishray", "_native",
                                            "*.c"))}
    assert "swishsax" in exts
    strays = []
    for path in glob.glob(os.path.join(ROOT, "swishray", "**", "*.py"),
                          recursive=True):
        tree = ast.parse(open(path, encoding="utf-8").read())
        gated = {id(n.args[0]) for n in ast.walk(tree)
                 if isinstance(n, ast.Call) and _is_checked_call(n)
                 and n.args}
        rel = os.path.relpath(path, ROOT)
        for n in ast.walk(tree):
            if (isinstance(n, ast.ImportFrom)
                    and (n.module or "").split(".")[-1] == "_native"
                    and any(a.name in exts for a in n.names)):
                strays.append(f"{rel}:{n.lineno} import")
            elif (isinstance(n, ast.Attribute) and n.attr in exts
                    and id(n) not in gated):
                strays.append(f"{rel}:{n.lineno} {n.attr}")
    assert strays == []
