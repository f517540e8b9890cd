"""End-to-end crawl-frontier assembly (ops/frontier.py): harvest ->
canonicalize -> robots -> blocklist -> dedup/count -> per-site cap."""
import pyarrow as pa
import pytest
import ray.data as rd

from swishray.ops import joins
from swishray.ops.frontier import build_frontier


def _pages():
    def page(url, *hrefs):
        body = "".join(h if h.startswith("<") else f'<a href="{h}">x</a>'
                       for h in hrefs)
        return {"url": url, "html": f"<body>{body}</body>".encode()}
    return [
        page("https://a.example/p1",
             "https://T.example:443/keep#frag",       # canonicalizes
             "https://t.example/keep",                # dup after canon
             '<a href="https://t.example/nf" rel="nofollow">n</a>',
             '<img src="https://t.example/img.png">',  # not an <a>
             "https://blocked.example/x",              # blocklisted
             "https://t.example/private/secret"),      # robots-denied
        page("https://b.example/p2",
             "https://t.example/keep",                 # 3rd ref
             "https://cap.example/c1",
             "https://cap.example/c2",
             "https://cap.example/c3"),
    ]


ROBOTS = pa.table({"host": ["t.example"],
                   "body": [b"User-agent: *\nDisallow: /private\n"]})


def test_build_frontier_end_to_end(ray_session):
    ds = rd.from_items(_pages()).repartition(2)
    out = build_frontier(ds, robots=ROBOTS,
                         blocklist=["blocked.example"],
                         per_site_cap=2).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    assert out["url"].tolist() == [
        "https://cap.example/c1",   # c3 lost to the per-site cap of 2
        "https://cap.example/c2",
        "https://t.example/keep",
    ]
    got = dict(zip(out["url"], out["n_refs"]))
    # fragment-stripped dup + second page's ref collapse to one row
    assert got["https://t.example/keep"] == 3
    assert out["site"].tolist() == ["cap.example", "cap.example",
                                    "t.example"]


@pytest.mark.parametrize("budget", [None, 0], ids=["default", "join"])
def test_build_frontier_large_blocklist(ray_session, monkeypatch, budget):
    """A 5,000-entry blocklist needs no row key: the frontier passes
    none, and both the broadcast and the join path must take it."""
    if budget is not None:
        monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
    blocklist = ["blocked.example"] + [f"d{i}.invalid"
                                       for i in range(4999)]
    ds = rd.from_items(_pages()).repartition(2)
    out = build_frontier(ds, robots=ROBOTS, blocklist=blocklist,
                         per_site_cap=2).to_pandas()
    assert sorted(out["url"]) == [
        "https://cap.example/c1", "https://cap.example/c2",
        "https://t.example/keep"]


def test_build_frontier_minimal(ray_session):
    # no robots/blocklist/cap: plain harvest + dedup; nofollow kept
    # when asked
    ds = rd.from_items(_pages()).repartition(2)
    out = build_frontier(ds, include_nofollow=True).to_pandas()
    urls = set(out["url"])
    assert "https://t.example/nf" in urls
    assert "https://t.example/private/secret" in urls  # no robots
    assert "https://blocked.example/x" in urls          # no blocklist
    assert "https://t.example/img.png" not in urls      # <img> never


def test_schedule_politely(ray_session):
    import ray.data as rd
    from swishray.ops.frontier import schedule_politely
    rows = [
        {"url": "https://a.example/1", "site": "a.example",
         "n_refs": 5, "delay": 2.0},
        {"url": "https://a.example/2", "site": "a.example",
         "n_refs": 9, "delay": 2.0},
        {"url": "https://a.example/3", "site": "a.example",
         "n_refs": 5, "delay": 2.0},
        {"url": "https://b.example/x", "site": "b.example",
         "n_refs": 1, "delay": 0.5},
        {"url": "https://b.example/y", "site": "b.example",
         "n_refs": 1, "delay": 0.5},
    ]
    out = schedule_politely(
        rd.from_items(rows).repartition(2), priority_col="n_refs",
        delay_col="delay").to_pandas().sort_values(
        ["host", "seq"]).reset_index(drop=True)
    a = out[out["host"] == "a.example"]
    # priority desc first (/2 has 9 refs), then url asc among ties
    assert a["url"].tolist() == ["https://a.example/2",
                                 "https://a.example/1",
                                 "https://a.example/3"]
    assert a["seq"].tolist() == [0, 1, 2]
    assert a["fetch_at"].tolist() == [0.0, 2.0, 4.0]
    b = out[out["host"] == "b.example"]
    assert b["fetch_at"].tolist() == [0.0, 0.5]


def test_schedule_politely_defaults(ray_session):
    import ray.data as rd
    from swishray.ops.frontier import schedule_politely
    rows = [{"url": f"https://h.example/{i}", "site": "h.example"}
            for i in range(3)]
    out = schedule_politely(rd.from_items(rows)).to_pandas() \
        .sort_values("seq")
    # no priority -> url asc; default 1s delay
    assert out["url"].tolist() == [f"https://h.example/{i}"
                                   for i in range(3)]
    assert out["fetch_at"].tolist() == [0.0, 1.0, 2.0]
