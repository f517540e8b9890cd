"""In-memory spans around the engine's per-layer entry points.

The spans are recorded from this directory only: each layer's public
function is wrapped while the traced pass runs and restored after it.
A span is (name, start_ns, end_ns, parent span, doc index). A layer's
self time is its spans' durations minus the time their child spans
cover.

Layers (module -> span name):

  pipeline._binary_views            pipeline.binary_views
  pipeline.ExtractPages.__call__    pipeline.call (self time = column build)
  DocumentExtractor.extract         extractor.extract (self time = finish)
  libxml.html_parse / xml_parse     libxml.parse (self time = native parse;
                                    its replay is a child span)
  sax.ExtractionState.replay        sax.replay (self time includes bake_tag)
  sax.ExtractionState.bake_tag      sax.bake_tag (in a pass of its own)
  tokenizer.tokenize_into           tokenizer (through the extractor's
                                    ``tokenizer=`` hook)

A layer whose entry point is missing from the engine is simply not
wrapped; its time then shows up in the self time of its caller.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    """Spans in flat int64 arrays (compact enough to keep every span of
    a run in memory); ``names`` maps a name to its index."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.doc = array("q")
        self.counts: dict[str, int] = {}
        self.doc_index = -1
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _begin(self, name: str) -> int:
        sid = len(self.start)
        self.name_of.append(self.names.setdefault(name, len(self.names)))
        self.parent.append(self._open[-1])
        self.doc.append(self.doc_index)
        self.end.append(0)
        self._open.append(sid)
        self.start.append(_now())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = _now()
        self._open.pop()

    def wrap(self, name: str, fn, count=None, new_doc: bool = False):
        """``fn`` with a span around every call. ``count(args, result)``
        adds to ``counts[name]``; ``new_doc`` starts a new doc index."""
        def traced(*args, **kwargs):
            if new_doc:
                self.doc_index += 1
            sid = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(sid)
            if count is not None:
                self.counts[name] = (self.counts.get(name, 0)
                                     + count(args, result))
            return result
        return traced

    @contextlib.contextmanager
    def stage(self, name: str):
        """A span around a block of Ray driver code (one Ray stage)."""
        sid = self._begin(name)
        try:
            yield
        finally:
            self._finish(sid)

    def self_ms(self, since: int = 0,
                cost_ns: float = 0.0) -> dict[str, float]:
        """Summed self time per span name over spans ``since`` onwards,
        in ms. A span's self time is its duration minus its children's
        durations and minus ``cost_ns`` per child, the tracer's own
        time around each child call."""
        if len(self) <= since:
            return {}
        dur = (np.frombuffer(self.end, np.int64)[since:]
               - np.frombuffer(self.start, np.int64)[since:])
        par = np.frombuffer(self.parent, np.int64)[since:] - since
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=len(dur))
        n_child = np.bincount(par[has], minlength=len(dur))
        own = np.bincount(np.frombuffer(self.name_of, np.int64)[since:],
                          weights=dur - child - cost_ns * n_child,
                          minlength=len(self.names))
        return {name: own[i] / 1e6 for name, i in self.names.items()}

    def calls(self, name: str, since: int = 0) -> int:
        if name not in self.names:
            return 0
        ids = np.frombuffer(self.name_of, np.int64)[since:]
        return int(np.count_nonzero(ids == self.names[name]))

    def write(self, path: str) -> None:
        """One span per line: name, start_ns, end_ns, parent, doc
        (times relative to the first span)."""
        label = {i: name for name, i in self.names.items()}
        base = min(self.start) if len(self) else 0
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tdoc\n")
            for row in zip(self.name_of, self.start, self.end, self.parent,
                           self.doc):
                f.write(f"{label[row[0]]}\t{row[1] - base}\t"
                        f"{row[2] - base}\t{row[3]}\t{row[4]}\n")


def span_cost_ns(rounds: int = 21, calls: int = 2000) -> float:
    """Time one traced call adds over the plain call, measured on a
    no-op function: the median over short rounds of plain and traced
    calls in turn, so a drift in host speed moves both alike. The
    probe's spans are dropped."""
    def noop(*args):
        return None
    traced = Tracer().wrap("probe", noop)
    costs = []
    for _ in range(rounds):
        t0 = _now()
        for _ in range(calls):
            noop(None, None)
        t1 = _now()
        for _ in range(calls):
            traced(None, None)
        costs.append((_now() - t1) - (t1 - t0))
    return max(statistics.median(costs), 0) / calls


@contextlib.contextmanager
def patched(tracer: Tracer, bake_tag: bool = False):
    """Wrap the module-level layer entry points for the duration of the
    block, restoring the originals afterwards. ``bake_tag`` wraps
    ``ExtractionState.bake_tag`` too: about 90 calls per markup page,
    whose tracer cost would distort every other layer's time, so it is
    traced in a pass of its own."""
    import swishray.extractor as extractor
    import swishray.pipeline as pipeline
    import swishray.sax as sax

    targets = [
        (pipeline, "_binary_views", "pipeline.binary_views", None),
        (extractor, "html_parse", "libxml.parse", None),
        (extractor, "xml_parse", "libxml.parse", None),
        (sax.ExtractionState, "replay", "sax.replay",
         lambda a, r: len(a[1])),
    ]
    if bake_tag:
        targets.append((sax.ExtractionState, "bake_tag", "sax.bake_tag",
                        None))
    saved = []
    for owner, attr, name, count in targets:
        fn = owner.__dict__.get(attr)
        if fn is None:
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, fn, count))
    try:
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def traced_extract_pages(tracer: Tracer, emit: str, swish_encoding: str):
    """An ``ExtractPages`` whose extractor tokenizes through a traced
    ``tokenizer=`` hook and whose ``extract`` and ``__call__`` are
    traced. Config is the default one, as ``extract_pages`` builds it
    with no ``config_xml``."""
    from swishray.config import Config
    from swishray.extractor import DocumentExtractor
    from swishray.pipeline import ExtractPages
    from swishray.tokenizer import tokenize_into

    ex = DocumentExtractor(
        Config.default(), swish_encoding,
        tokenizer=tracer.wrap("tokenizer", tokenize_into,
                              lambda a, r: r or 0))
    ex.extract = tracer.wrap("extractor.extract", ex.extract, new_doc=True)

    class _HookedExtractPages(ExtractPages):
        def _extractor(self):
            return ex

    stage = _HookedExtractPages(emit=emit, swish_encoding=swish_encoding)
    return tracer.wrap("pipeline.call", stage.__call__)
