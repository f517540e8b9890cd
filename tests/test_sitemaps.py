"""Sitemap / sitemapindex parsing (ops/sitemaps.py); also
oracle-checked by the queries() sitemap_parse entry."""
import gzip

import pyarrow as pa
import pytest
import ray.data as rd

from swishray.ops.sitemaps import ParseSitemaps, parse_sitemaps

URLSET = (b'<?xml version="1.0" encoding="UTF-8"?>'
          b'<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
          b'<url><loc>https://a.example/p1</loc>'
          b'<lastmod>2024-01-02</lastmod>'
          b'<changefreq>daily</changefreq>'
          b'<priority>0.8</priority></url>'
          b'<url><loc> https://a.example/p2 </loc></url>'
          b'<url><lastmod>2024-01-01</lastmod></url>'  # no loc: dropped
          b'</urlset>')

INDEX = (b'<?xml version="1.0"?>'
         b'<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">'
         b'<sitemap><loc>https://a.example/sm1.xml</loc>'
         b'<lastmod>2024-02-01</lastmod></sitemap>'
         b'<sitemap><loc>https://a.example/sm2.xml.gz</loc></sitemap>'
         b'</sitemapindex>')

# an entry that opens inside an open field of another entry, then a
# well-formed sibling entry (the nested one used to raise KeyError and
# kill the batch)
NESTED_URLSET = (b"<urlset><url><loc>a<url>b</url></loc></url>"
                 b"<url><loc>https://a.example/ok</loc></url></urlset>")


def _parse(items):
    ds = rd.from_items(items).repartition(2)
    return parse_sitemaps(ds, xml_col="body", key="src").to_pandas() \
        .sort_values(["src", "loc"]).reset_index(drop=True)


def test_urlset_entries(ray_session):
    df = _parse([{"src": "s1", "body": URLSET}])
    assert df["kind"].tolist() == ["url", "url"]
    assert df["loc"].tolist() == ["https://a.example/p1",
                                  "https://a.example/p2"]
    assert df.loc[0, "lastmod"] == "2024-01-02"
    assert df.loc[0, "changefreq"] == "daily"
    assert df.loc[0, "priority"] == "0.8"
    assert df.loc[1, "lastmod"] == ""  # absent optional fields


def test_sitemapindex_and_gzip(ray_session):
    df = _parse([
        {"src": "i", "body": INDEX},
        {"src": "z", "body": gzip.compress(URLSET)},
        {"src": "n", "body": None},
        {"src": "bad", "body": b"\x1f\x8bnot-really-gzip"},
        {"src": "nest", "body": NESTED_URLSET},
    ])
    idx = df[df.src == "i"]
    assert idx["kind"].tolist() == ["sitemap", "sitemap"]
    assert idx["loc"].tolist() == ["https://a.example/sm1.xml",
                                   "https://a.example/sm2.xml.gz"]
    assert idx.iloc[0]["lastmod"] == "2024-02-01"
    z = df[df.src == "z"]
    assert z["kind"].tolist() == ["url", "url"]  # gzip unwrapped
    assert (df.src == "n").sum() == 0
    assert (df.src == "bad").sum() == 0  # bad gzip: no rows, no crash
    assert df[df.src == "nest"]["loc"].tolist() == ["https://a.example/ok"]


def test_entities_and_noxmlns(ray_session):
    body = (b'<urlset><url>'
            b'<loc>https://a.example/?a=1&amp;b=2</loc>'
            b'</url></urlset>')
    df = _parse([{"src": "e", "body": body}])
    assert df["loc"].tolist() == ["https://a.example/?a=1&b=2"]


@pytest.mark.parametrize("damage", ["truncated", "corrupt_deflate"])
def test_bad_gzip_member_gives_no_rows(damage):
    # EOFError (truncated) and zlib.error (bad deflate block) are not
    # OSError; the bad member yields no rows, its neighbour parses
    z = gzip.compress(URLSET, mtime=0)
    bad = z[:-12] if damage == "truncated" else z[:10] + b"\xff" + z[11:]
    out = ParseSitemaps(key="src")(pa.table({
        "src": pa.array(["bad", "ok"], pa.string()),
        "body": pa.array([bad, URLSET], pa.large_binary())}))
    assert out.column("src").to_pylist() == ["ok", "ok"]
