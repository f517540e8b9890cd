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

Scale shape — TWO modes (``robots_filter(mode=...)``):

* ``broadcast``: the rule table rides one ``ray.put``; per batch the
  filter extracts host+path with one vectorized RE2 pass, groups rows
  by host, and walks each host's ordered rule list with
  ``pc.match_substring_regex`` over that host's path subarray (rules
  per host are tens, not thousands) — no per-URL Python regex loop,
  URLs never ride a shuffle.  Right for hand-sized host universes
  (the driver materializes the robots table).
* ``join``: both-sides-large — a real crawl has 10^7-10^8 hosts and
  their robots bodies do NOT fit one driver dict.  Rules compile
  MAP-SIDE over the robots Dataset into a slim (host, rules) table;
  a slim (key, host, path) projection of the URLs hash-joins it on
  host; verdicts keep only the DISALLOWED keys (default is allow),
  and that usually-tiny blocked set left-joins back to the full rows
  (the url_blocklist big-list shape, filters.py).  Driver state: none.
* ``auto`` (default): broadcast below ``broadcast_max_hosts``, join
  above it (join needs a unique ``key`` column).
"""
from __future__ import annotations

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
    out = [(allow, len(pat), _pattern_re2(pat))
           for allow, pat in best]
    # most specific first; allow wins ties (sort is stable)
    out.sort(key=lambda r: (-r[1], not r[0]))
    return out


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


class RobotsFilter:
    """Stateful task stage: annotate/filter URL rows by REP permission.

    ``ref`` is a ray.put of {host: robots_body}; rules are parsed
    once per worker here, not per batch."""

    def __init__(self, ref, url_col: str, agent: str,
                 keep_only: bool) -> None:
        import ray
        self.url_col = url_col
        self.keep_only = keep_only
        bodies = ray.get(ref)
        self.rules = {h.lower(): compile_robots(b, agent)
                      for h, b in bodies.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        host, path = _extract_hostpath(batch, self.url_col)
        hosts_np = host.to_numpy(zero_copy_only=False)
        allowed = np.ones(len(batch), dtype=bool)
        for h in np.unique(hosts_np):
            rules = self.rules.get(h)
            if not rules:
                continue
            idx = np.flatnonzero(hosts_np == h)
            allowed[idx] = _decide_host(rules, path.take(pa.array(idx)))
        if self.keep_only:
            return batch.filter(pa.array(allowed))
        return batch.append_column("robots_allowed",
                                   pa.array(allowed))


def robots_filter(ds: Any, robots: Any, url_col: str = "url",
                  host_col: str = "host", body_col: str = "body",
                  agent: str = "*", keep_only: bool = False,
                  batch_size: int = 4096,
                  key: str | None = None, mode: str = "auto",
                  broadcast_max_hosts: int = 65536) -> Any:
    """Filter/annotate a URL Dataset by robots.txt permission.

    ``robots``: a (host, body) table/Dataset — one robots.txt per
    host.  With ``keep_only=True`` disallowed rows are dropped;
    otherwise a boolean ``robots_allowed`` column is appended.

    ``mode='broadcast'`` materializes the robots table on the driver
    and broadcasts {host: body} once via ``ray.put`` — right when the
    host universe fits a driver dict.  ``mode='join'`` never
    materializes anything: rules compile map-side, a slim
    (key, host, path) projection joins them on host, and only the
    DISALLOWED keys join back to the full rows — the shape that
    survives a real crawl's 10^7-10^8 hosts (needs ``key``, a unique
    row id).  ``'auto'`` picks broadcast when the robots side counts
    at most ``broadcast_max_hosts`` rows (or no ``key`` was given)."""
    import ray

    from ..util import map_batches_stateful

    if mode == "auto":
        n_hosts = (robots.num_rows if isinstance(robots, pa.Table)
                   else robots.count())
        mode = ("broadcast" if key is None
                or n_hosts <= broadcast_max_hosts else "join")

    if mode == "join":
        return _robots_filter_join(
            ds, robots, url_col=url_col, host_col=host_col,
            body_col=body_col, agent=agent, keep_only=keep_only,
            key=key, batch_size=batch_size)

    if not isinstance(robots, pa.Table):
        robots = pa.Table.from_pylist(robots.take_all())
    hosts = robots.column(host_col).to_pylist()
    bodies = robots.column(body_col).to_pylist()
    ref = ray.put(dict(zip(hosts, bodies)))
    return map_batches_stateful(
        ds, RobotsFilter,
        fn_constructor_kwargs=dict(ref=ref, url_col=url_col,
                                   agent=agent, keep_only=keep_only),
        batch_format="pyarrow", batch_size=batch_size)


def _robots_filter_join(ds: Any, robots: Any, *, url_col: str,
                        host_col: str, body_col: str, agent: str,
                        keep_only: bool, key: str | None,
                        batch_size: int) -> Any:
    """Both-sides-large robots filtering (see robots_filter).

    Exchanges are slim end to end: (host, compiled-rules) — one row
    per host WITH rules, allow-all hosts drop out; (key, host, path)
    — three columns per URL; (key) — disallowed rows only.  The full
    URL rows ride exactly one left join against that blocked set."""
    import json

    import pyarrow.compute as pc
    import ray.data as rd

    from .joins import field_type, hash_join, schema_guard

    if key is None:
        raise ValueError("robots_filter(mode='join') needs a unique "
                         "`key` column to route verdicts back")
    if isinstance(robots, pa.Table):
        robots = rd.from_arrow(robots)

    def compile_rules(t: pa.Table) -> pa.Table:
        hs, blobs = [], []
        for h, b in zip(t.column(host_col).to_pylist(),
                        t.column(body_col).to_pylist()):
            rules = compile_robots(b, agent)
            if rules and h:  # allow-all hosts contribute nothing
                hs.append(str(h).lower())
                blobs.append(json.dumps([(a, ln, p)
                                         for a, ln, p in rules]))
        return pa.table({"__rhost": pa.array(hs, pa.large_string()),
                         "__rules": pa.array(blobs, pa.large_string())})

    rules_ds = schema_guard(
        robots.map_batches(compile_rules, batch_format="pyarrow"),
        pa.schema([("__rhost", pa.large_string()),
                   ("__rules", pa.large_string())]))

    ktype = field_type(ds, key)

    def slim(batch: pa.Table) -> pa.Table:
        host, path = _extract_hostpath(batch, url_col)
        return pa.table({key: batch.column(key).cast(ktype),
                         "__rhost": pc.cast(host, pa.large_string()),
                         "__path": pc.cast(path, pa.large_string())})

    probes = schema_guard(
        ds.map_batches(slim, batch_format="pyarrow"),
        pa.schema([(key, ktype), ("__rhost", pa.large_string()),
                   ("__path", pa.large_string())]))

    # inner join: URLs on rule-less hosts drop out (default allow)
    joined = hash_join(probes, rules_ds, "__rhost", how="inner")

    def verdicts(t: pa.Table) -> pa.Table:
        keys = t.column(key).combine_chunks()
        paths = t.column("__path").combine_chunks()
        blobs = t.column("__rules_r")
        hosts_np = np.asarray(t.column("__rhost").to_pylist(),
                              dtype=object)
        bad = []
        for h in np.unique(hosts_np):
            idx = np.flatnonzero(hosts_np == h)
            rules = json.loads(blobs[int(idx[0])].as_py())
            v = _decide_host(rules, paths.take(pa.array(idx)))
            bad.append(keys.take(pa.array(idx[~v])))
        ks = (pa.concat_arrays([a.combine_chunks()
                                if isinstance(a, pa.ChunkedArray)
                                else a for a in bad])
              if bad else pa.array([], ktype))
        # null keys (unparseable URLs) never match the join back
        return pa.table({key: ks.cast(ktype),
                         "__bl": pa.array([1] * len(ks), pa.int8())})

    blocked = schema_guard(
        joined.map_batches(verdicts, batch_format="pyarrow"),
        pa.schema([(key, ktype), ("__bl", pa.int8())]))

    out = hash_join(ds, blocked, key, how="left")

    def shape(batch: pa.Table) -> pa.Table:
        allowed = pc.is_null(batch.column("__bl_r"))
        batch = batch.drop_columns(["__bl_r"])
        if keep_only:
            return batch.filter(allowed)
        return batch.append_column(
            "robots_allowed", pc.cast(allowed, pa.bool_()))

    return out.map_batches(shape, batch_format="pyarrow")
