"""robots.txt parsing and crawl-permission filtering.

The last frontier component next to sitemaps/canonicalize/blocklist:
given fetched ``robots.txt`` bodies per host, decide which candidate
URLs a polite crawler may fetch.  Semantics follow the public REP
spec (RFC 9309 + the original robotstxt.org conventions):

* directives grouped under ``User-agent`` lines; the group whose
  agent token is the LONGEST substring match of our agent wins,
  ``*`` is the fallback group (RFC 9309 §2.2.1);
* ``Allow`` / ``Disallow`` with path patterns; ``*`` matches any
  char run, a trailing ``$`` anchors the end (§2.2.2-2.2.3);
* the MOST SPECIFIC (longest-pattern) matching rule decides; on an
  allow/disallow tie, allow wins (§2.2.2);
* an empty ``Disallow:`` means allow-all; a missing robots.txt means
  allow-all.

Scale shape: :func:`robots_rules` compiles the robots table on the
cluster into one per-host rules table, and :func:`robots_filter`
measures it with ``joins.small_side``:

* when it fits, the table rides one ``ray.put``; per batch the
  filter extracts host+path with one vectorized RE2 pass, groups rows
  by host, and walks each host's ordered rule list with
  ``pc.match_substring_regex`` over that host's path subarray (rules
  per host are tens, not thousands) — no per-URL Python regex loop,
  URLs never ride a shuffle;
* otherwise :func:`robots_filter_join`: a slim (url, host, path)
  projection of the URLs hash-joins the rules on host, verdicts keep
  only the DISALLOWED urls (default is allow), and that usually-tiny
  distinct blocked set left-joins back to the full rows on the URL.
  Driver state: none.
"""
from __future__ import annotations

import json
import re
from typing import Any

import numpy as np
import pyarrow as pa

MAX_ROBOTS_BYTES = 512 * 1024  # RFC 9309 §2.4 parse cap


def _pattern_re2(pattern: str) -> str:
    """REP path pattern -> anchored RE2 string: ``*`` -> ``.*``,
    trailing ``$`` -> end anchor, everything else literal.
    (re.escape output is RE2-compatible: it only escapes
    punctuation.)"""
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(p) for p in pattern.split("*")]
    return "^" + ".*".join(parts) + ("$" if anchored else "")


def compile_robots(body: bytes | str | None,
                   agent: str = "*") -> list[tuple[bool, int, str]]:
    """Parse one robots.txt into an ordered decision list
    ``[(allow, pattern_len, re2_pattern)]``, most specific first,
    for ``agent`` (longest-substring-match group selection, ``*``
    fallback).  Empty/missing body -> [] (allow-all)."""
    if body is None:
        return []
    if isinstance(body, bytes):
        body = body[:MAX_ROBOTS_BYTES].decode("utf-8", "replace")
    agent_l = agent.lower()

    groups: list[tuple[str, list[tuple[bool, str]]]] = []
    cur_rules: list[tuple[bool, str]] | None = None
    in_agent_run = False
    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            # consecutive User-agent lines share one rule group
            if not in_agent_run:
                cur_rules = []
            in_agent_run = True
            groups.append((value.lower(), cur_rules))
        elif field in ("allow", "disallow"):
            in_agent_run = False
            if cur_rules is None:
                continue  # rules before any user-agent line: ignored
            if value == "":
                continue  # empty pattern matches nothing
            cur_rules.append((field == "allow", value))
        else:
            in_agent_run = False  # crawl-delay / sitemap / unknown

    # longest-substring-match group selection; '*' fallback
    best: list[tuple[bool, str]] | None = None
    best_len = -1
    for a, rules in groups:
        if a == "*":
            if best_len < 0 and best is None:
                best = rules
        elif a in agent_l and len(a) > best_len:
            best, best_len = rules, len(a)
    if best is None:
        return []
    return _most_specific_first(
        [(allow, len(pat), _pattern_re2(pat)) for allow, pat in best])


def _most_specific_first(rules: list) -> list:
    """Longest pattern first; allow wins ties (the sort is stable)."""
    return sorted(rules, key=lambda r: (-r[1], not r[0]))


def robots_allowed(rules: list, path: str) -> bool:
    """Longest-match REP decision for one path; default allow.
    (Scalar convenience; the batch stage matches vectorized.)"""
    for allow, _, pat in rules:
        if re.match(pat, path):
            return allow
    return True


# path capture includes the query string: REP patterns match against
# path+query (e.g. Google's documented "Disallow: /*?" idiom)
_HOSTPATH_RE = (r"^[A-Za-z][A-Za-z0-9+.-]*://"
                r"(?P<h>[^/?#]*)(?P<p>[^#]*)")


def _extract_hostpath(batch: pa.Table, url_col: str):
    """Vectorized (lowercased host, path+query) extraction from a URL
    column; empty path normalizes to "/" per REP matching."""
    import pyarrow.compute as pc
    c = batch.column(url_col)
    if pa.types.is_null(c.type):
        c = c.cast(pa.large_string())
    u = pc.coalesce(pc.cast(c, pa.large_string()), "")
    ext = pc.extract_regex(u, _HOSTPATH_RE)
    host = pc.utf8_lower(pc.coalesce(
        pc.struct_field(ext, "h"), ""))
    host = pc.replace_substring_regex(host, r"^[^@]*@", "")
    host = pc.replace_substring_regex(host, r":[0-9]*$", "")
    path = pc.coalesce(pc.struct_field(ext, "p"), "")
    path = pc.if_else(pc.equal(path, ""), "/", path).combine_chunks()
    return host, path


def _decide_host(rules: list, sub: pa.Array) -> np.ndarray:
    """Longest-match REP verdict over ONE host's path subarray —
    vectorized per rule, rules ordered most specific first."""
    import pyarrow.compute as pc
    undecided = np.ones(len(sub), dtype=bool)
    verdict = np.ones(len(sub), dtype=bool)
    for allow, _, pat in rules:
        if not undecided.any():
            break
        m = pc.match_substring_regex(sub, pat) \
            .to_numpy(zero_copy_only=False)
        hit = m & undecided
        verdict[hit] = allow
        undecided &= ~m
    return verdict


def _allowed(host: pa.Array, path: pa.Array, rules_of) -> np.ndarray:
    """Per-row verdict: rows grouped by host, each host's rules
    (``rules_of(host)``, falsy for none) walked over its paths."""
    hosts_np = host.to_numpy(zero_copy_only=False)
    allowed = np.ones(len(host), dtype=bool)
    for h in np.unique(hosts_np):
        rules = rules_of(h)
        if rules:
            idx = np.flatnonzero(hosts_np == h)
            allowed[idx] = _decide_host(rules, path.take(pa.array(idx)))
    return allowed


_RULES = pa.schema([("__rhost", pa.large_string()),
                    ("__rules", pa.large_string())])


def robots_rules(robots: Any, host_col: str = "host",
                 body_col: str = "body", agent: str = "*") -> Any:
    """The per-host rules table both paths of :func:`robots_filter`
    read: ``(__rhost, __rules)``, one row per lowercased host with
    rules, ``__rules`` the JSON of its ``compile_robots`` list.
    Bodies compile on the cluster, in one keyed exchange on the host.
    A host listed more than once gets all its bodies' rules, sorted
    most specific first, as RFC 9309 §2.2.1 combines the groups that
    match one agent. Allow-all hosts drop out. Returned materialized,
    so both paths share one execution."""
    import pyarrow.compute as pc
    import ray.data as rd

    from .joins import hash_exchange

    if isinstance(robots, pa.Table):
        robots = rd.from_arrow(robots)

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column("__rhost", pc.utf8_lower(
            pc.cast(t.column(host_col), pa.large_string())))

    def merge(t: pa.Table) -> pa.Table:
        rules: dict = {}
        for h, b in zip(t.column("__rhost").to_pylist(),
                        t.column(body_col).to_pylist()):
            if h:
                rules.setdefault(h, []).extend(compile_robots(b, agent))
        hosts = [h for h, r in rules.items() if r]
        return pa.table({
            "__rhost": pa.array(hosts, pa.large_string()),
            "__rules": pa.array(
                [json.dumps(_most_specific_first(rules[h]))
                 for h in hosts], pa.large_string())})

    return hash_exchange(
        robots.map_batches(keyed, batch_format="pyarrow"), "__rhost",
        merge, batch_format="pyarrow").materialize()


class RobotsFilter:
    """Stateful task stage: annotate/filter URL rows by REP permission.

    ``ref`` is a ray.put of the :func:`robots_rules` table; its JSON
    decodes once per worker here, not per batch."""

    def __init__(self, ref, url_col: str, keep_only: bool) -> None:
        import ray
        self.url_col = url_col
        self.keep_only = keep_only
        t = ray.get(ref)
        self.rules = {h: json.loads(r) for h, r in zip(
            t.column("__rhost").to_pylist(),
            t.column("__rules").to_pylist())}

    def __call__(self, batch: pa.Table) -> pa.Table:
        host, path = _extract_hostpath(batch, self.url_col)
        allowed = _allowed(host, path, self.rules.get)
        if self.keep_only:
            return batch.filter(pa.array(allowed))
        return batch.append_column("robots_allowed",
                                   pa.array(allowed))


def robots_filter(ds: Any, robots: Any, url_col: str = "url",
                  host_col: str = "host", body_col: str = "body",
                  agent: str = "*", keep_only: bool = False,
                  batch_size: int = 4096) -> Any:
    """Filter/annotate a URL Dataset by robots.txt permission.

    ``robots``: a (host, body) table/Dataset of robots.txt bodies; a
    host listed twice gets both bodies' rules (:func:`robots_rules`).
    With ``keep_only=True`` disallowed rows are dropped; otherwise a
    boolean ``robots_allowed`` column is appended.

    The compiled rules table rides one ``ray.put`` when it fits
    ``joins.small_side``; otherwise :func:`robots_filter_join` joins
    it, with nothing materialized on the driver."""
    import ray

    from ..util import map_batches_stateful
    from .joins import small_side

    rules = robots_rules(robots, host_col, body_col, agent)
    small = small_side(rules, _RULES)
    if small is None:
        return robots_filter_join(ds, rules, url_col, keep_only)
    return map_batches_stateful(
        ds, RobotsFilter,
        fn_constructor_kwargs=dict(ref=ray.put(small), url_col=url_col,
                                   keep_only=keep_only),
        batch_format="pyarrow", batch_size=batch_size)


def robots_filter_join(ds: Any, rules: Any, url_col: str = "url",
                       keep_only: bool = False) -> Any:
    """:func:`robots_filter` against a :func:`robots_rules` table too
    large to broadcast. Exchanges are slim: (host, rules), one row
    per host with rules; (url, host, path) per URL row; the distinct
    disallowed URLs. The full rows ride exactly one left join, keyed
    on the URL, so every input row comes out once."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .joins import hash_join, schema_guard

    def url_key(batch: pa.Table):
        return pc.cast(batch.column(url_col), pa.large_string())

    def slim(batch: pa.Table) -> pa.Table:
        host, path = _extract_hostpath(batch, url_col)
        return pa.table({"__url": url_key(batch), "__rhost": host,
                         "__path": path})

    def verdicts(t: pa.Table) -> pa.Table:
        host = t.column("__rhost").combine_chunks()
        rules_of = dict(zip(host.to_pylist(),
                            t.column("__rules_r").to_pylist()))
        allowed = _allowed(host, t.column("__path").combine_chunks(),
                           lambda h: json.loads(rules_of[h]))
        return t.select(["__url"]).filter(pa.array(~allowed))

    # inner join: URLs on rule-less hosts drop out (default allow)
    joined = hash_join(ds.map_batches(slim, batch_format="pyarrow"),
                       schema_guard(rules, _RULES), "__rhost")
    blocked = schema_guard(
        joined.map_batches(verdicts, batch_format="pyarrow")
        .groupby("__url").aggregate(Count(alias_name="__bl")),
        pa.schema([("__url", pa.large_string()), ("__bl", pa.int64())]))
    rows = ds.map_batches(lambda t: t.append_column("__url", url_key(t)),
                          batch_format="pyarrow")

    def shape(batch: pa.Table) -> pa.Table:
        allowed = pc.is_null(batch.column("__bl_r"))
        batch = batch.drop_columns(["__url", "__bl_r"])
        if keep_only:
            return batch.filter(allowed)
        return batch.append_column("robots_allowed", allowed)

    # null URLs never match the join back: allowed, as in broadcast
    return hash_join(rows, blocked, "__url", how="left").map_batches(
        shape, batch_format="pyarrow")
