"""DOM-heuristic main-content extraction (ops/maincontent.py).

Covers the three rule families (skip tags, tag-class rules, density
classification), the neighbour-promotion pass, and the Dataset-level
stage.  The end-to-end chrome-suppression contract is additionally
oracle-checked by the ``main_content`` queries() entry."""
import gzip

import pyarrow as pa
import pytest

from swishray.ops.maincontent import (MainContentExtract,
                                      extract_main_content)


def _run(html: bytes, **kw):
    m = MainContentExtract(html_col="html", key="url", **kw)
    t = m(pa.table({"url": ["u"], "html": [html]}))
    return t.to_pydict()


GOOD_PARA = (b"<p>The quick brown fox jumps over the lazy dog and "
             b"then runs away into the forest with a bone it found "
             b"there by the old mill.</p>")
GOOD_TEXT = ("The quick brown fox jumps over the lazy dog and then "
             "runs away into the forest with a bone it found there "
             "by the old mill.")


def test_skip_tags_suppress_subtrees():
    html = (b"<html><head><title>T</title><script>var x = 1;</script>"
            b"<style>.a{color:red}</style></head><body><nav>"
            b"<a href='/'>Home</a></nav>" + GOOD_PARA +
            b"<footer>The copyright of this site is with the owners "
            b"and all of the rights are reserved.</footer>"
            b"</body></html>")
    out = _run(html)
    assert out["main_text"] == [GOOD_TEXT]
    assert out["n_content_blocks"] == [1]


def test_class_and_id_rules():
    html = (b"<html><body>"
            b"<div class='main-sidebar'><p>This paragraph is long "
            b"enough and wordy enough that only the class rule can "
            b"be the reason it was dropped from the page.</p></div>"
            b"<div id='comments'><p>A comment that is also long "
            b"enough and wordy enough to pass the density rules "
            b"on its own merits here.</p></div>" + GOOD_PARA +
            b"</body></html>")
    out = _run(html)
    assert out["main_text"] == [GOOD_TEXT]
    # suppressed subtrees contribute no blocks at all
    assert out["n_blocks"] == [1]


def test_link_density_drops_link_farms():
    html = (b"<html><body><ul>"
            b"<li><a href='/1'>First navigation item here</a></li>"
            b"<li><a href='/2'>Second navigation item here</a></li>"
            b"<li><a href='/3'>Third navigation item here</a></li>"
            b"</ul>" + GOOD_PARA + b"</body></html>")
    out = _run(html)
    assert out["main_text"] == [GOOD_TEXT]
    assert out["n_blocks"] == [4]
    assert out["n_content_blocks"] == [1]


def test_stopword_density_rule():
    # long + link-free but stopword-less (keyword stuffing) -> dropped
    stuffing = b"<p>" + b"keyword stuffing nonsense " * 10 + b"</p>"
    html = b"<html><body>" + stuffing + GOOD_PARA + b"</body></html>"
    out = _run(html, min_stopword_density=0.25)
    assert out["main_text"] == [GOOD_TEXT]
    # disabling the rule keeps it
    out2 = _run(html, min_stopword_density=0.0)
    assert out2["n_content_blocks"] == [2]


def test_neighbour_promotion_keeps_headlines():
    html = (b"<html><body><h2>A headline</h2>" + GOOD_PARA +
            b"<h2>Unrelated trailing stub</h2>"
            b"<p><a href='/m'>more</a></p></body></html>")
    out = _run(html)
    txt = out["main_text"][0]
    assert txt.startswith("A headline\n")
    # the trailing stub IS adjacent to a good block -> promoted too;
    # the link-only block is not
    assert "more" not in txt
    assert out["n_content_blocks"] == [3]


def test_promotion_does_not_cross_documents():
    good = (b"<html><body>" + GOOD_PARA + b"</body></html>")
    # short stub as the FIRST block of the next doc must not be
    # promoted by the previous doc's trailing good block
    stub = b"<html><body><h2>Stub</h2></body></html>"
    m = MainContentExtract(html_col="html", key="url")
    t = m(pa.table({"url": ["a", "b"], "html": [good, stub]}))
    d = t.to_pydict()
    assert d["main_text"] == [GOOD_TEXT, ""]


def test_nested_skip_regions():
    html = (b"<html><body><nav><div class='inner'><nav>deep</nav>"
            b"text in nav</div></nav>" + GOOD_PARA + b"</body></html>")
    out = _run(html)
    assert out["main_text"] == [GOOD_TEXT]


def test_empty_and_null_docs():
    m = MainContentExtract(html_col="html", key="url")
    t = m(pa.table({"url": ["a", "b"],
                    "html": pa.array([b"", None], pa.large_binary())}))
    d = t.to_pydict()
    assert d["main_text"] == ["", ""]
    assert d["n_blocks"] == [0, 0]


def test_gzip_body_matches_plain():
    html = (b"<html><body><nav><a href='/'>Home</a></nav><h2>Head</h2>"
            + GOOD_PARA + b"</body></html>")
    m = MainContentExtract(html_col="html", key="url")
    d = m(pa.table({"url": ["p", "z"],
                    "html": [html, gzip.compress(html)]})).to_pydict()
    assert d["main_text"] == ["Head\n" + GOOD_TEXT] * 2
    for col in ("n_blocks", "n_content_blocks", "main_chars"):
        assert d[col][0] == d[col][1] > 0


def test_entities_unescaped():
    html = (b"<html><body><p>Salt &amp; pepper are the two things "
            b"that always belong together on a table &lt;here&gt; "
            b"in the old kitchen of the house.</p></body></html>")
    out = _run(html)
    assert "Salt & pepper" in out["main_text"][0]
    assert "<here>" in out["main_text"][0]


def test_dataset_stage(ray_session):
    import ray.data as rd
    rows = [{"url": f"u{i}",
             "html": (b"<html><body><nav><a href='/'>Home</a></nav>" +
                      GOOD_PARA + b"<footer>All the rights that "
                      b"exist are reserved by the owner of the site."
                      b"</footer></body></html>")}
            for i in range(40)]
    ds = rd.from_items(rows).repartition(4)
    out = extract_main_content(ds, html_col="html", key="url").to_pandas()
    assert len(out) == 40
    assert (out["main_text"] == GOOD_TEXT).all()
    assert (out["n_content_blocks"] == 1).all()


def test_strip_markdown(ray_session):
    """CommonMark-subset strip: markup off, prose/code/alt text kept."""
    import ray.data as rd
    from swishray.ops.markdown import strip_markdown
    md = ("# Title 7\n\n> quoted wisdom\n\n"
          "**bold** and *ital* and `code` plus "
          "[anchor](https://x.example) and ![alt text](img.png)\n\n"
          "- item one\n- item two\n1. first\n2. second\n\n"
          "```python\nraw code line\n```\n\n"
          "[ref link][1]\n\n[1]: https://ref.example\n\n---\n\n"
          "tail prose here")
    out = strip_markdown(
        rd.from_items([{"doc_id": 1, "text": md}])).take_all()[0]
    assert out["text"] == (
        "Title 7\n\nquoted wisdom\n\n"
        "bold and ital and code plus anchor and alt text\n\n"
        "item one\nitem two\nfirst\nsecond\n\nraw code line\n\n"
        "ref link\n\ntail prose here")
    # plain text with snake_case and a * b survives untouched except
    # the underscore-emphasis trade every md stripper makes
    plain = strip_markdown(rd.from_items(
        [{"doc_id": 2, "text": "keep 2 * 3 = 6 and a/b plain"}])
    ).take_all()[0]
    assert plain["text"] == "keep 2 * 3 = 6 and a/b plain"
