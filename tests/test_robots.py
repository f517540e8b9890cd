"""robots.txt REP semantics (ops/robots.py): RFC 9309 group
selection, longest-match precedence, wildcards, and the Ray filter
stage; also oracle-checked by the queries() robots_filter entry."""
import random
import re

import pyarrow as pa
import pytest
import ray.data as rd

from swishray.ops import joins
from swishray.ops.robots import (compile_robots, robots_allowed,
                                 robots_filter)

BODY = b"""
# comment
User-agent: googlebot
Disallow: /g

User-agent: *
Allow: /page
Disallow: /p
Disallow: /*.php$
Disallow: /q*?
Allow:
"""


def _ok(body, path, agent="testbot"):
    return robots_allowed(compile_robots(body, agent), path)


def test_longest_match_and_tie():
    # /page (Allow, len 5) beats /p (Disallow, len 2)
    assert _ok(BODY, "/page")
    assert _ok(BODY, "/pagex/y")
    assert not _ok(BODY, "/pz")
    # tie: allow wins
    tie = b"User-agent: *\nAllow: /f\nDisallow: /f\n"
    assert _ok(tie, "/f/x")
    # default allow; empty Allow ignored
    assert _ok(BODY, "/other")


def test_wildcards_and_anchors():
    assert not _ok(BODY, "/a.php")          # /*.php$ anchors end
    assert _ok(BODY, "/a.php?x=1")          # query defeats $ anchor
    assert not _ok(BODY, "/q1?x=1")         # /q*? needs a query
    assert _ok(BODY, "/q1")


def test_agent_group_selection():
    assert not _ok(BODY, "/g", agent="Googlebot/2.1")
    assert _ok(BODY, "/p", agent="Googlebot/2.1")  # other group's rule
    # star fallback for unknown agents
    assert not _ok(BODY, "/p", agent="unknown")
    # missing/None body: allow-all
    assert _ok(None, "/anything")
    assert _ok(b"", "/anything")


def test_robots_filter_stage(ray_session):
    robots = pa.table({
        "host": ["a.example", "b.example"],
        "body": [b"User-agent: *\nDisallow: /private\n",
                 b"User-agent: *\nDisallow: /\nAllow: /ok\n"]})
    urls = [
        "https://a.example/private/x",    # blocked
        "https://A.EXAMPLE:8080/public",  # allowed (case/port)
        "https://b.example/ok/page",      # allow carve-out
        "https://b.example/no",           # blocked
        "https://c.example/anything",     # no robots: allowed
        None,
    ]
    ds = rd.from_items([{"url": u} for u in urls]).repartition(2)
    df = robots_filter(ds, robots).to_pandas()
    got = dict(zip(df["url"], df["robots_allowed"]))
    assert got["https://a.example/private/x"] == False  # noqa: E712
    assert got["https://A.EXAMPLE:8080/public"] == True  # noqa: E712
    assert got["https://b.example/ok/page"] == True  # noqa: E712
    assert got["https://b.example/no"] == False  # noqa: E712
    assert got["https://c.example/anything"] == True  # noqa: E712
    # keep_only drops the blocked rows
    kept = robots_filter(ds, robots, keep_only=True).to_pandas()
    assert len(kept) == 4  # 3 allowed + the null url row


def _mk_urls_ds(urls):
    return rd.from_items([{"rid": i, "url": u}
                          for i, u in enumerate(urls)]).repartition(2)


def _verdicts(urls, robots, budget=None, monkeypatch=None, **kw):
    """robots_filter output by row id; ``budget`` 0 forces the join
    path through the public function."""
    if budget is not None:
        monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
    return robots_filter(_mk_urls_ds(urls), robots, **kw).to_pandas() \
        .sort_values("rid").reset_index(drop=True)


def test_robots_filter_join_mode_matches_broadcast(ray_session,
                                                    monkeypatch):
    robots = pa.table({
        "host": ["a.example", "b.example", "c.example"],
        "body": [b"User-agent: *\nDisallow: /private\n",
                 b"User-agent: *\nDisallow: /\nAllow: /ok\n",
                 b"User-agent: *\nDisallow:\n"]})  # allow-all body
    urls = [
        "https://a.example/private/x",
        "https://A.EXAMPLE:8080/public",
        "https://b.example/ok/page",
        "https://b.example/no",
        "https://c.example/anything",
        "https://d.example/unlisted",
        None,
    ]
    want = _verdicts(urls, robots)
    kb = _verdicts(urls, robots, keep_only=True)
    got = _verdicts(urls, robots, 0, monkeypatch)
    assert want.equals(got)
    assert want["robots_allowed"].tolist() == [
        False, True, True, False, True, True, True]
    # keep_only parity too
    kj = _verdicts(urls, robots, 0, monkeypatch, keep_only=True)
    assert sorted(kb["rid"]) == sorted(kj["rid"]) == [1, 2, 4, 5, 6]


def test_robots_filter_auto_switches_past_broadcast_cap(ray_session,
                                                        monkeypatch):
    """A rules table larger than the broadcast budget must route to
    the join path (and produce the same verdicts) — the 10^8-host
    crawl contract: the driver never materializes the robots table."""
    n_hosts = 50
    robots = pa.table({
        "host": [f"h{i}.example" for i in range(n_hosts)],
        "body": [(b"User-agent: *\nDisallow: /secret\n" if i % 2
                  else b"") for i in range(n_hosts)]})
    urls = [f"https://h{i % n_hosts}.example/"
            f"{'secret/x' if i % 3 == 0 else 'open/y'}"
            for i in range(200)]
    want = [not ((i % n_hosts) % 2 == 1 and i % 3 == 0)
            for i in range(len(urls))]
    assert _verdicts(urls, rd.from_arrow(robots))[
        "robots_allowed"].tolist() == want
    # a budget of 0 forces the join path
    out = _verdicts(urls, rd.from_arrow(robots), 0, monkeypatch)
    for i, u in enumerate(urls):
        assert bool(out.loc[i, "robots_allowed"]) == want[i], u


def test_robots_filter_join_all_allowed_empty_blocked(ray_session,
                                                       monkeypatch):
    # zero disallowed rows -> blocked side all-empty (the Ray 2.49
    # schema-less trap) — must still return every row as allowed
    robots = pa.table({"host": ["a.example"],
                       "body": [b"User-agent: *\nDisallow: /none\n"]})
    urls = ["https://a.example/fine", "https://b.example/x"]
    out = _verdicts(urls, robots, 0, monkeypatch)
    assert out["robots_allowed"].all() and len(out) == 2


def test_robots_filter_join_string_keys(ray_session, monkeypatch):
    # a string row id passes through the join path unchanged
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 0)
    robots = pa.table({"host": ["a.example"],
                       "body": [b"User-agent: *\nDisallow: /no\n"]})
    ds = rd.from_items([
        {"rid": "k1", "url": "https://a.example/no/x"},
        {"rid": "k2", "url": "https://a.example/yes"}]).repartition(2)
    out = robots_filter(ds, robots).to_pandas()
    got = dict(zip(out["rid"], out["robots_allowed"]))
    assert got == {"k1": False, "k2": True}


@pytest.mark.parametrize("budget", [None, 0], ids=["broadcast", "join"])
def test_robots_filter_repeated_host(ray_session, monkeypatch, budget):
    """A host listed twice gets both bodies' rules, most specific
    first, and every input row comes out exactly once."""
    robots = pa.table({
        "host": ["a.example", "A.example"],
        "body": [b"User-agent: *\nDisallow: /p\n",
                 b"User-agent: *\nAllow: /\n"]})
    urls = ["https://a.example/p1", "https://a.example/x",
            "https://b.example/p", "https://a.example/p1"]
    out = _verdicts(urls, robots, budget, monkeypatch)
    assert out["rid"].tolist() == [0, 1, 2, 3]
    assert out["robots_allowed"].tolist() == [False, True, True, False]


_RULE_LINES = ["Disallow: /p", "Allow: /p/q", "Disallow: /*.php$",
               "Allow: /", "Disallow: /", "Disallow: /q*?",
               "Disallow:", "Allow: /pub"]


def _oracle(url, robots):
    """Scalar REP verdict: every body listed for the lowercased host
    compiled and merged, most specific first."""
    m = url and re.match(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)([^#]*)",
                         url)
    if not m:
        return True
    host = re.sub(r":[0-9]*$", "", m.group(1).lower())
    rules = [r for h, b in robots if h.lower() == host
             for r in compile_robots(b)]
    rules.sort(key=lambda r: (-r[1], not r[0]))
    return robots_allowed(rules, m.group(2) or "/")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_robots_filter_paths_agree_seeded(ray_session, monkeypatch,
                                          seed):
    """Both paths equal the scalar oracle on seeded robots tables
    (duplicate and mixed-case hosts, None bodies, an empty table at
    seed 4) and seeded URLs (None, ports, queries, mixed case)."""
    rng = random.Random(seed)
    hosts = ["a.example", "b.example", "c.example"]
    robots = [] if seed == 4 else [
        (rng.choice([h, h.upper()]),
         None if rng.random() < 0.15 else
         ("User-agent: *\n" + "\n".join(
             rng.sample(_RULE_LINES, rng.randint(1, 3)))).encode())
        for h in rng.choices(hosts, k=5)]
    paths = ["", "/", "/p", "/p/q/r", "/x.php", "/q1?z", "/pub"]
    urls = [None if rng.random() < 0.1 else
            f"https://{rng.choice(hosts + ['D.example'])}"
            f"{rng.choice(['', ':81'])}{rng.choice(paths)}"
            for _ in range(40)]
    table = pa.table({
        "host": pa.array([h for h, _ in robots], pa.string()),
        "body": pa.array([b for _, b in robots], pa.binary())})
    want = [_oracle(u, robots) for u in urls]
    for budget in (None, 0):
        out = _verdicts(urls, table, budget, monkeypatch)
        assert out["rid"].tolist() == list(range(len(urls)))
        assert out["robots_allowed"].tolist() == want
