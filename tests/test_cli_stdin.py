"""CLI + stdin-protocol conformance (src/t/001-wordcount.t stdin cases:
doc.xml -> 8410 (8408 + 2 path words), test.txt -> 1 via Parser-Type
override; perl test.stream -> 232 across 3 docs — all equal to the
reference binary's output on this container)."""

import pathlib
import subprocess
import sys

import pytest

STDIN = pathlib.Path("/root/reference/src/test_stdin")
PERL = pathlib.Path("/root/reference/bindings/perl/t")
T_HTML = STDIN.parent / "test_docs" / "t.html"
DOM_CONF = STDIN.parent / "test_configs" / "dom.conf"


def run_lint_stdin(path: pathlib.Path) -> str:
    r = subprocess.run(
        [sys.executable, "-m", "swishray", "lint", "-"],
        input=path.read_bytes(), capture_output=True,
        cwd="/root/repo")
    return r.stdout.decode()


@pytest.mark.needs_path(STDIN)
def test_stdin_doc_xml():
    out = run_lint_stdin(STDIN / "doc.xml")
    assert "total words: 8410" in out


@pytest.mark.needs_path(STDIN)
def test_stdin_parser_type_override():
    out = run_lint_stdin(STDIN / "test.txt")
    assert "total words: 1" in out


@pytest.mark.needs_path(PERL)
def test_perl_multi_doc_stream():
    out = run_lint_stdin(PERL / "test.stream")
    assert "3 files parsed" in out
    assert "total words: 232" in out


@pytest.mark.needs_path(T_HTML)
def test_cli_lint_file():
    r = subprocess.run(
        [sys.executable, "-m", "swishray", "lint", "-v", str(T_HTML)],
        capture_output=True, cwd="/root/repo")
    assert b"nwords: 6" in r.stdout
    assert b"total words: 6" in r.stdout


def test_cli_tokenize():
    r = subprocess.run(
        [sys.executable, "-m", "swishray", "tokenize", "++foo++",
         "http://FOOBAR.COM/"],
        capture_output=True, cwd="/root/repo")
    lines = r.stdout.decode().splitlines()
    assert lines[0] == "parsed 1 tokens: foo"
    assert lines[1] == "parsed 3 tokens: http foobar com"


@pytest.mark.needs_path(DOM_CONF)
def test_cli_header_roundtrip():
    r = subprocess.run(
        [sys.executable, "-m", "swishray", "header", str(DOM_CONF)],
        capture_output=True, cwd="/root/repo")
    assert b"doc.one.two" in r.stdout


@pytest.mark.needs_path(T_HTML)
def test_cli_dump_matches_reference_shape(tmp_path):
    """`swishray dump` emits golden_dump-shaped JSON records that
    diff clean against the reference tool on the same doc."""
    import base64
    import json
    import os
    import subprocess
    import sys

    doc = str(T_HTML)
    r = subprocess.run([sys.executable, "-m", "swishray", "dump", doc],
                       capture_output=True, cwd="/root/repo")
    mine = json.loads(r.stdout)
    assert mine["nwords"] == 6
    assert set(mine) >= {"uri", "nwords", "mime", "parser", "encoding",
                         "ext", "size", "metanames", "properties",
                         "tokens"}
    ref_bin = "/tmp/refbuild/golden_dump"
    if os.path.exists(ref_bin):
        env = dict(os.environ, LC_ALL="C.utf8")
        ref = json.loads(subprocess.run(
            [ref_bin, doc], env=env,
            capture_output=True).stdout.decode("utf-8", "replace"))
        assert mine["nwords"] == ref["nwords"]
        assert mine["metanames"] == ref["metanames"]
        assert mine["properties"] == ref["properties"]
        assert mine["tokens"] == ref["tokens"]
