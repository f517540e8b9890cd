"""RSS/Atom feed parsing (swishray/ops/feeds.py)."""
import gzip

import pyarrow as pa
import pytest
import ray.data as rd


RSS = b"""<?xml version="1.0"?>
<rss version="2.0"><channel>
<title>Chan title must not leak</title>
<link>https://chan.example/</link>
<item>
  <title>First &amp; finest</title>
  <link>https://s.example/a1</link>
  <guid>tag:1</guid>
  <pubDate>Mon, 01 Jan 2024 00:00:00 GMT</pubDate>
  <description><![CDATA[Body <b>one</b>]]></description>
</item>
<item>
  <title>No guid item</title>
  <link>https://s.example/a2</link>
</item>
</channel></rss>"""

ATOM = b"""<?xml version="1.0"?>
<feed xmlns="http://www.w3.org/2005/Atom">
<title>Feed title must not leak</title>
<link href="https://f.example/self" rel="self"/>
<entry>
  <title>Atom one</title>
  <link href="https://f.example/self.xml" rel="self"/>
  <link href="https://f.example/p1" rel="alternate"/>
  <id>urn:e1</id>
  <updated>2024-02-02T00:00:00Z</updated>
  <summary>Sum one</summary>
</entry>
<entry>
  <title>Atom two</title>
  <link href="https://f.example/p2"/>
  <id>urn:e2</id>
</entry>
</feed>"""


# an entry that opens inside an open field of another entry, then a
# well-formed sibling entry (the nested one used to raise KeyError and
# kill the batch)
NESTED_RSS = (b"<rss><item><title>a<item>b</item></title></item>"
              b"<item><title>after</title>"
              b"<link>https://s.example/ok</link></item></rss>")


def test_parse_feeds(ray_session):
    from swishray.ops.feeds import parse_feeds
    ds = rd.from_arrow(pa.table({
        "url": pa.array(["r", "a", "g"], pa.string()),
        "body": pa.array([RSS, ATOM, gzip.compress(RSS)],
                         pa.large_binary())}))
    rows = sorted(
        (tuple(r.values()) for r in parse_feeds(ds).take_all()))
    by_feed = {}
    for r in rows:
        by_feed.setdefault(r[0], []).append(r)
    rss = sorted(by_feed["r"], key=lambda r: r[3])
    assert rss[0] == ("r", "rss", "First & finest",
                      "https://s.example/a1", "tag:1",
                      "Mon, 01 Jan 2024 00:00:00 GMT", "Body <b>one</b>")
    assert rss[1][2] == "No guid item"
    assert rss[1][4] == "https://s.example/a2"   # guid falls to link
    atom = sorted(by_feed["a"], key=lambda r: r[3])
    assert atom[0] == ("a", "atom", "Atom one", "https://f.example/p1",
                       "urn:e1", "2024-02-02T00:00:00Z", "Sum one")
    assert atom[1][3] == "https://f.example/p2"  # rel-less link wins
    assert atom[1][5] == ""
    # gzip feed parses identically
    assert len(by_feed["g"]) == 2


def test_parse_feeds_garbage_and_empty(ray_session):
    from swishray.ops.feeds import parse_feeds
    ds = rd.from_arrow(pa.table({
        "url": pa.array(["x", "y", "n"], pa.string()),
        "body": pa.array([b"not xml at all", b"", NESTED_RSS],
                         pa.large_binary())}))
    rows = parse_feeds(ds).take_all()
    assert [(r["url"], r["title"], r["link"]) for r in rows] == [
        ("n", "after", "https://s.example/ok")]


@pytest.mark.parametrize("damage", ["truncated", "corrupt_deflate"])
def test_bad_gzip_member_gives_no_rows(damage):
    # a truncated member raises EOFError and a bad deflate block
    # zlib.error; neither may kill the batch its neighbours ride in
    from swishray.ops.feeds import ParseFeeds
    z = gzip.compress(RSS, mtime=0)
    bad = z[:-12] if damage == "truncated" else z[:10] + b"\xff" + z[11:]
    out = ParseFeeds()(pa.table({
        "url": pa.array(["bad", "r"], pa.string()),
        "body": pa.array([bad, RSS], pa.large_binary())}))
    assert out.column("url").to_pylist() == ["r", "r"]
