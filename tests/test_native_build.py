"""Native extension builds follow their source (swishray/_native)."""

import glob
import os
import shutil
import sysconfig

import pytest

from swishray import _native

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
