"""Per-document extraction state machine.

This is the engine's equivalent of swish_ParserData + the SAX handlers
in src/libswish3/parser.c: bake_tag (tag normalization, HTML <meta>
synthesis, XML attribute promotion, undefined-tag policies, aliases),
the three tag stacks (dom/meta/prop), the character buffers with \\x03
position bumpers, flush-to-NamedBuffer, property capture, and the
noindex/index comment toggles.

Two paths run it, and this module alone picks one per document
(``html_parse``/``xml_parse``; libxml.py only records events):

  * For a Config that passes ``machine_spec``'s gate, ``machine_for``
    compiles swishsax's C extraction machine, which runs these
    handlers inside the libxml2 parse and returns the finished buffers
    and the ordered buffer flushes; ``ExtractionState.apply``
    tokenizes the flushes (through the default tokenizer or a
    ``tokenizer=`` hook alike) and takes the buffers. The Python
    handlers below do not run for such a document. The machine is
    used only when ``_machine_selftest`` passed on the checked
    swishsax front-end (``_machine``, taken through
    ``_native.checked``).
  * Otherwise, and for a document the machine declines,
    ``ExtractionState.replay`` consumes libxml's full event batch.

In a batch, each row takes one of two routes into the batch's record
arena (``swishtok.Arena``, see ``extractor.DocumentExtractor.extract``),
and the arena is the one token sink of both:

  * the machine route (``ArenaRow``): the machine writes the buffers
    into the arena, the flushes are tokenized into it, and no
    ExtractionState is built;
  * the record route: every other row (TXT, an empty or broken gzip
    body, a property cap, a document the machine declined) runs
    through an ExtractionState whose ``token_list`` is the arena, so
    its tokens are written there as they are made, and the extractor
    adds its buffers at the end. A document the machine declined on
    the machine route replays here without running the machine again.

All buffer content is bytes (the \\x03-joined buffers are byte-exact
deliverables); tag and config names are str.

Where the reference would crash (NULL hash fetch, croak) we raise
ParseAbort — the pipeline layer records it in the per-row error column
instead of killing the job (SURVEY.md §4 retries row).
"""

from __future__ import annotations

import dataclasses

from . import _native, constants as C, libxml
from .config import Config
from .libxml import html_tag_lookup_isinline
from .text import glibc_lower, skip_ws, str_all_ws, trim_ws
from .tokenizer import TokenList, tokenize_into

# process-wide tag-name decode cache: tag vocabularies are tiny and
# wildly repetitive (~50 distinct names per million events), so the
# per-event utf-8 decode is pure waste; capped defensively
_DECODE_CACHE: dict[bytes, str] = {}


def _dtag(name: bytes) -> str:
    s = _DECODE_CACHE.get(name)
    if s is None:
        s = name.decode("utf-8", "replace")
        if len(_DECODE_CACHE) < 1 << 16:
            _DECODE_CACHE[name] = s
    return s


class ParseAbort(Exception):
    """Raised where the reference would SWISH_CROAK (process exit)."""


_XINCLUDE_NSS = (b"http://www.w3.org/2003/XInclude",
                 b"http://www.w3.org/2001/XInclude")

# undefined-name policy codes of the machine spec (swishsax.c U_*)
_POLICY = {C.UNDEF_ERROR: 1, C.UNDEF_IGNORE: 2, C.UNDEF_INDEX: 3}


def machine_spec(config: Config) -> tuple | None:
    """The spec swishsax compiles its extraction machine from, or None
    when ``config`` is outside the gate the machine covers, so every
    document replays the full event stream.

    The gate: no configured name contains a '.' (or is empty), so
    dom-path contexts are never matched, and no undefined-name policy
    is auto/autoall, so no document can vivify a name and the state
    machine's tables are a function of the config alone. The machine
    itself declines the documents it cannot finish identically (the
    header of _native/swishsax.c lists them)."""
    tables = (config.metanames, config.properties, config.tag_aliases)
    if any("." in k or not k for t in tables for k in t):
        return None
    auto = (C.UNDEF_AUTO, C.UNDEF_AUTOALL)
    if config.undef_metas in auto or config.undef_attrs in auto:
        return None
    return (
        [(k, m.alias_for) for k, m in config.metanames.items()],
        [(k, p.alias_for, bool(p.verbatim))
         for k, p in config.properties.items()],
        list(config.tag_aliases.items()),
        _POLICY.get(config.undef_metas, 0),
        _POLICY.get(config.undef_attrs, 0),
        config.cascade_meta_context, config.tokenize, config.ignore_xmlns,
        bool(config.stringlists.get("XMLClassAttributes")))


def machine_for(config: Config):
    """swishsax's compiled extraction machine for ``config``, or None
    (outside the gate, or no checked machine): a function of the
    config alone, so a DocumentExtractor builds it once."""
    spec = machine_spec(config)
    if spec is None or _machine is None:
        return None
    return _machine.compile(spec)


class _Tag:
    __slots__ = ("raw", "baked", "context")

    def __init__(self, raw: str, baked: str, context: str):
        self.raw = raw
        self.baked = baked
        self.context = context


class _TagStack:
    """parser.c:2939-3101. head == items[-1]; a tag's context is the
    baked names bottom->top joined with the stack's join char, built
    at push from the head's."""

    __slots__ = ("items", "join")

    def __init__(self, join: str):
        self.items: list[_Tag] = []
        self.join = join

    def push(self, raw: str, baked: str) -> _Tag:
        items = self.items
        t = _Tag(raw, baked, items[-1].context + self.join + baked
                 if items else baked)
        items.append(t)
        return t

    def pop(self) -> _Tag | None:
        return self.items.pop() if self.items else None

    def pop_on_match(self, raw: str) -> _Tag | None:
        """pop_tag_stack_on_match: pop head iff its RAW name matches."""
        if self.items and self.items[-1].raw == raw:
            return self.items.pop()
        return None

    @property
    def head(self) -> _Tag | None:
        return self.items[-1] if self.items else None

    def flatten_with(self, baked: str) -> str:
        """flatten_tag_stack(baked, stack, join) — parser.c:2817-2866."""
        items = self.items
        return items[-1].context + self.join + baked if items else baked


class ExtractionState:
    """swish_ParserData equivalent for one document."""

    def __init__(self, config: Config, uri: str = "", tokenizer=None):
        # per-document copy-on-write view of the mutable config parts:
        # undef auto policies vivify metanames mid-parse
        # (parser.c:478-491) and must stay document-local so workers are
        # deterministic across batch order (SURVEY.md §7.5 risk 3)
        self.config = config
        self._cfg_copied = False
        self.uri = uri
        self._tokenize = tokenizer if tokenizer is not None else tokenize_into
        self.is_html = False
        self.bump_word = True          # init_parser_data: starts TRUE
        self.ignore_content = 0
        self.tag: str | None = None
        self.meta_buf = bytearray()
        self.prop_buf = bytearray()
        self.token_list = TokenList()
        self.nwords = 0
        self.parse_error: str | None = None
        # set by the extractor when an XInclude resolver is configured:
        # fn(href: str, is_text: bool) parses the referenced doc and
        # merges it into this state (process_xinclude, parser.c:990)
        self.xinclude_cb = None
        # NamedBuffers pre-created for every configured name, aliases
        # included (swish_nb_init, namedbuffer.c:86-102)
        self.metanames: dict[str, bytearray] = {
            name: bytearray() for name in config.metanames}
        self.properties: dict[str, bytearray] = {
            name: bytearray() for name in config.properties}
        # stacks (init_parser_data, parser.c:1595-1613)
        self.metastack = _TagStack(C.DOM_CHAR)
        self.metastack.push(C.DEFAULT_METANAME, C.DEFAULT_METANAME)
        self.propstack = _TagStack(C.DOM_CHAR)
        self.propstack.push(C.DOM_STR, C.DOM_STR)
        # dotted DOM-path alias lookups can only ever hit when some
        # configured name contains a '.'; without one, bakes cache
        self._dotted_names = any(
            "." in k for k in config.metanames) or any(
            "." in k for k in config.properties) or any(
            "." in k for k in config.tag_aliases)
        self.domstack = _TagStack(C.DOT)
        # per-document bake cache: tag -> (baked, bump, undef_reset);
        # only attribute-free bakes with side-effect-free policies land
        # here (see bake_tag)
        self._bake_cache: dict[str, tuple] = {}

    # -- config copy-on-write -------------------------------------------

    def _own_config(self) -> Config:
        if not self._cfg_copied:
            # every field carries over; only the two tables a vivify
            # writes are copied
            cfg = self.config
            self.config = dataclasses.replace(
                cfg, metanames=dict(cfg.metanames),
                properties=dict(cfg.properties))
            self._cfg_copied = True
        return self.config

    def _vivify_meta(self, name: str) -> None:
        self._own_config().new_metaname(name)
        self.metanames.setdefault(name, bytearray())
        self._after_vivify(name)

    def _vivify_prop(self, name: str) -> None:
        self._own_config().new_property(name)
        self.properties.setdefault(name, bytearray())
        self._after_vivify(name)

    def _after_vivify(self, name: str) -> None:
        # vivification changes what's "defined": drop cached bakes, and
        # a dotted name turns the DOM-path alias lookup on
        self._bake_cache.clear()
        if "." in name:
            self._dotted_names = True

    # -- NamedBuffer ops (namedbuffer.c:166-241) ------------------------

    def _nb_add(self, buffers: dict[str, bytearray], name: str,
                data: bytes, cleanwsp: bool, autovivify: bool) -> None:
        if str_all_ws(data):
            return
        buf = buffers.get(name)
        if buf is None:
            if autovivify:
                buf = buffers[name] = bytearray()
            else:
                raise ParseAbort(f"{name} is not a named buffer")
        if buf:
            buf += C.TOKENPOS_BUMPER
        if cleanwsp:
            # ctrl_to_ws (ASCII-only), skip leading ws, trim trailing ws
            from .text import clean_wsp
            buf += clean_wsp(data)
        else:
            buf += data

    # -- core handlers ---------------------------------------------------

    def flush_buffer(self, metaname: str, context: str) -> None:
        """parser.c:756-808."""
        cfg = self.config
        meta = cfg.metanames.get(metaname)
        if meta is not None and meta.alias_for is not None:
            stored_as = meta.alias_for
        else:
            stored_as = metaname
        data = bytes(self.meta_buf)
        self._nb_add(self.metanames, stored_as, data, cleanwsp=False,
                     autovivify=True)
        if cfg.cascade_meta_context:
            for t in reversed(self.metastack.items):
                if t.baked == stored_as:
                    continue
                self._nb_add(self.metanames, t.baked, data, cleanwsp=False,
                             autovivify=True)
        if cfg.tokenize and data:
            self.nwords += self._tokenize(self.token_list, data, stored_as,
                                          context)
        self.meta_buf.clear()

    def add_stack_to_prop_buf(self, baked: str | None) -> None:
        """parser.c:2868-2916 — append prop_buf to the named property
        (alias-resolved) and, Swish-e 2.x style, to every open property
        on the stack.

        Reference quirk reproduced: the cleanwsp pass MUTATES prop_buf
        in place (swish_str_ctrl_to_ws rewrites control bytes to
        spaces and swish_str_trim_ws NUL-truncates the tail,
        namedbuffer.c:221-232), so later adds in the same call see the
        cleaned string — a buffer that cleaned down to whitespace
        joins only ONCE (e.g. nested <title>s around empty markup)."""
        cfg = self.config
        cleanwsp = True
        from .text import clean_wsp, ctrl_to_ws, trim_ws
        cur = bytes(self.prop_buf)

        def do_add(name: str) -> None:
            nonlocal cur
            if str_all_ws(cur):
                return
            buf = self.properties.get(name)
            if buf is None:
                raise ParseAbort(f"{name} is not a named buffer")
            if buf:
                buf += C.TOKENPOS_BUMPER
            if cleanwsp:
                cleaned = ctrl_to_ws(cur)
                buf += clean_wsp(cur)
                # the effective string the NEXT add's strlen sees:
                # ctrl'd bytes with the trailing-ws NUL truncation
                cur = trim_ws(cleaned)
            else:
                buf += cur

        if baked is not None:
            prop = cfg.properties.get(baked)
            if prop is None:
                raise ParseAbort(f"property {baked} not configured")
            stored = prop.alias_for if prop.alias_for is not None else baked
            if prop.verbatim:
                cleanwsp = False
            do_add(stored)
        for t in reversed(self.propstack.items):
            if t.baked == C.DOM_STR:
                continue
            do_add(t.baked)

    def buffer_characters(self, data: bytes) -> None:
        """parser.c:1253-1296."""
        if self.ignore_content:
            return
        if self.bump_word and self.meta_buf:
            self.meta_buf += C.TOKENPOS_BUMPER
        self.meta_buf += data
        if self.bump_word and self.prop_buf:
            self.prop_buf += C.TOKENPOS_BUMPER
        self.prop_buf += data
        self.bump_word = False

    # -- bake_tag (parser.c:319-754) ------------------------------------

    def bake_tag(self, tag: str, atts: list[str | None] | None,
                 xmlns_prefix: str | None) -> str | None:
        """Cached front-end: attribute-free bakes of already-seen tags
        are deterministic (given side-effect-free undef policies), so
        the hot path is one dict hit. The cache is per-document — no
        cross-document state (SURVEY.md §7.5 risk 3)."""
        # attributes only influence an HTML bake for <meta> tags
        # (parser.c:432-449), so attributed HTML opens still hit the
        # cache; XML attrs promote to metanames and never do
        if atts is not None and self.is_html and tag.lower() != "meta":
            atts = None
        if atts is None and (xmlns_prefix is None
                             or self.config.ignore_xmlns):
            c = self._bake_cache.get(tag)
            if c is not None:
                baked, bump, undef_reset = c
                if bump is not None:
                    self.bump_word = bump
                if undef_reset and self.ignore_content:
                    self.ignore_content = 0
                return baked
            baked = self._bake_tag_full(tag, atts, xmlns_prefix)
            if not self._dotted_names:
                cfg = self.config
                swishtag = glibc_lower(tag)
                if self.is_html:
                    if swishtag in ("br", "img"):
                        bump = True
                    else:
                        ii = html_tag_lookup_isinline(swishtag.encode())
                        bump = None if ii is None else (ii == 0)
                    self._bake_cache[tag] = (baked, bump, False)
                else:
                    defined = (swishtag in cfg.metanames
                               or swishtag in cfg.tag_aliases)
                    if defined:
                        self._bake_cache[tag] = (baked, True, False)
                    elif cfg.undef_metas == C.UNDEF_INDEX:
                        self._bake_cache[tag] = (baked, True, True)
            return baked
        return self._bake_tag_full(tag, atts, xmlns_prefix)

    def _bake_tag_full(self, tag: str, atts: list[str | None] | None,
                       xmlns_prefix: str | None) -> str | None:
        cfg = self.config
        swishtag = glibc_lower(tag)

        if xmlns_prefix is not None and not cfg.ignore_xmlns:
            swishtag = glibc_lower(xmlns_prefix) + C.XMLNS_CHAR + swishtag

        if self.is_html:
            if swishtag in ("br", "img"):
                self.bump_word = True
            else:
                isinline = html_tag_lookup_isinline(swishtag.encode())
                if isinline is None:
                    pass  # unknown tag: bump_word unchanged (parser.c:404)
                elif not isinline:
                    self.bump_word = True
                else:
                    self.bump_word = False

            metaname = None
            metacontent = None
            if swishtag == "meta" and atts:
                # flat scan by 1 — matches attribute VALUES too
                # (parser.c:434-449); stops at the first NULL entry
                for i, a in enumerate(atts):
                    if a is None:
                        break
                    if a == "name":
                        metaname = atts[i + 1] if i + 1 < len(atts) else None
                    elif a == "content":
                        metacontent = atts[i + 1] if i + 1 < len(atts) else None

            if metaname is not None:
                prev_ignore = self.ignore_content
                if (metaname not in cfg.metanames
                        and metaname not in cfg.tag_aliases):
                    um = cfg.undef_metas
                    if um == C.UNDEF_ERROR:
                        raise ParseAbort(
                            f"HTML <meta> tag with 'name' attribute "
                            f"'{metaname}' is not a defined MetaName and "
                            f"UndefinedMetaTags == error")
                    elif um == C.UNDEF_IGNORE:
                        self.ignore_content += 1
                    elif um == C.UNDEF_AUTO:
                        self._vivify_meta(metaname)
                    elif um == C.UNDEF_AUTOALL:
                        self._vivify_meta(metaname)
                        if metaname not in self.config.properties:
                            self._vivify_prop(metaname)
                    # index/default: nothing
                if metacontent is not None:
                    prev_bump = self.bump_word
                    self.bump_word = True
                    self.open_tag(metaname, None, xmlns_prefix)
                    self.buffer_characters(metacontent.encode("utf-8"))
                    self.close_tag(metaname, xmlns_prefix)
                    self.bump_word = prev_bump
                    self.tag = None
                    return None
                self.ignore_content = prev_ignore

        else:
            # XML tag (parser.c:544-722)
            self.bump_word = True
            if atts:
                strlist = cfg.stringlists.get("XMLClassAttributes")
                for i in range(0, len(atts) - 1, 2):
                    attr_lower = glibc_lower(atts[i] or "")
                    attr_val_lower = glibc_lower(atts[i + 1] or "")
                    if strlist:
                        for w in strlist:
                            if w == attr_lower:
                                swishtag = swishtag + C.DOT + attr_val_lower
                    metaname_from_attr = swishtag + C.DOT + attr_lower
                    if metaname_from_attr not in cfg.metanames:
                        ua = cfg.undef_attrs
                        if ua == C.UNDEF_ERROR:
                            raise ParseAbort(
                                f"XML tag '{metaname_from_attr}' is not a "
                                f"defined MetaName and "
                                f"UndefinedXMLAttributes == error")
                        elif ua == C.UNDEF_AUTO:
                            self._vivify_meta(metaname_from_attr)
                        elif ua == C.UNDEF_AUTOALL:
                            self._vivify_meta(metaname_from_attr)
                            if metaname_from_attr not in self.config.properties:
                                self._vivify_prop(metaname_from_attr)
                        elif ua == C.UNDEF_INDEX:
                            prev_bump = self.bump_word
                            self.bump_word = True
                            self.buffer_characters(
                                attr_val_lower.encode("utf-8"))
                            self.bump_word = prev_bump
                        # ignore/disable: nothing
                    cfg = self.config  # may have been copied by vivify
                    if metaname_from_attr in cfg.metanames:
                        self.bump_word = True
                        self.open_tag(metaname_from_attr, None, xmlns_prefix)
                        self.buffer_characters(attr_val_lower.encode("utf-8"))
                        self.close_tag(metaname_from_attr, xmlns_prefix)

            cfg = self.config
            if (swishtag not in cfg.metanames
                    and swishtag not in cfg.tag_aliases):
                um = cfg.undef_metas
                if um == C.UNDEF_ERROR:
                    raise ParseAbort(
                        f"XML tag '{swishtag}' is not a defined MetaName "
                        f"and UndefinedMetaTags == error")
                elif um == C.UNDEF_IGNORE:
                    self.ignore_content += 1
                elif um == C.UNDEF_AUTO:
                    self._vivify_meta(swishtag)
                elif um == C.UNDEF_AUTOALL:
                    self._vivify_meta(swishtag)
                    if swishtag not in self.config.properties:
                        self._vivify_prop(swishtag)
                else:  # index / default (parser.c:710-720)
                    if self.ignore_content:
                        self.ignore_content = 0

        # alias: bare tag first, then the flattened DOM path
        # (parser.c:724-747)
        cfg = self.config
        alias = cfg.tag_aliases.get(swishtag)
        if alias is not None:
            swishtag = alias
        elif self._dotted_names:
            # the dotted DOM-path alias can only exist when some
            # configured name contains a '.'
            swishdomtag = self.domstack.flatten_with(swishtag)
            alias = cfg.tag_aliases.get(swishdomtag)
            if alias is not None:
                swishtag = alias
        return swishtag

    # -- open/close (parser.c:1095-1250) --------------------------------

    def open_tag(self, tag: str, atts: list[str | None] | None,
                 xmlns_prefix: str | None) -> None:
        self.tag = self.bake_tag(tag, atts, xmlns_prefix)
        cfg = self.config

        if self.tag is None:
            self.domstack.push(tag, tag)
        else:
            self.domstack.push(tag, self.tag)

        dom_ctx = self.domstack.head.context
        if (self.tag is not None and self.tag in cfg.properties) \
                or dom_ctx in cfg.properties:
            self.add_stack_to_prop_buf(None)
            self.prop_buf.clear()
            baked = dom_ctx if dom_ctx in cfg.properties else self.tag
            self.propstack.push(tag, baked)

        if (self.tag is not None and self.tag in cfg.metanames) \
                or dom_ctx in cfg.metanames:
            head = self.metastack.head
            self.flush_buffer(head.baked, head.context)
            # NB: the reference checks the PROPERTIES hash here too
            # (parser.c:1181-1186) — reproduced verbatim
            baked = dom_ctx if dom_ctx in cfg.properties else self.tag
            self.metastack.push(tag, baked)

    def close_tag(self, tag: str, xmlns_prefix: str | None) -> None:
        self.tag = self.bake_tag(tag, None, xmlns_prefix)
        if self.tag is None:
            return
        st = self.propstack.pop_on_match(tag)
        if st is not None:
            self.add_stack_to_prop_buf(st.baked)
            self.prop_buf.clear()
        st = self.metastack.pop_on_match(tag)
        if st is not None:
            self.flush_buffer(st.baked, st.context)
        self.domstack.pop()

    def apply(self, result: tuple) -> bool:
        """Take one result of swishsax's extraction machine (format in
        the header of _native/swishsax.c) into this fresh state:
        tokenize each flush in order, then adopt the finished buffers,
        and raise the machine's ParseAbort, if any, after both. Returns
        False when the tokenizer raised, with the token list rolled
        back (a TokenList or the batch arena's open row): the caller
        then replays the full event stream, whose partial record
        is the one the Python handlers leave where the tokenizer
        raises."""
        rc, error, metanames, properties, flushes = result
        if flushes:
            tl = self.token_list
            tokenize = self._tokenize
            n = 0
            try:
                for data, meta, context in flushes:
                    n += tokenize(tl, data, meta, context)
            except Exception:
                tl.rollback()
                return False
            self.nwords += n
        self.metanames = metanames
        self.properties = properties
        if error is not None:
            raise ParseAbort(error)
        return True

    def replay(self, events: list) -> None:
        """Consume one full ``(rc, events)`` batch's event list (tuple
        format at the top of _native/swishsax.c; both libxml2
        front-ends build it). The per-event handlers are inlined; rare
        events (XInclude, comments, the end-of-document flush) take
        small branches."""
        open_tag = self.open_tag
        close_tag = self.close_tag
        dtag = _dtag
        bumper = C.TOKENPOS_BUMPER
        for ev in events:
            t = ev[0]
            if t == 3:
                # inlined buffer_characters (parser.c:1253-1296)
                if not self.ignore_content:
                    mb = self.meta_buf
                    pb = self.prop_buf
                    if self.bump_word:
                        if mb:
                            mb += bumper
                        if pb:
                            pb += bumper
                        self.bump_word = False
                    mb += ev[1]
                    pb += ev[1]
            elif t == 1:
                name = dtag(ev[1])
                atts = ev[2]
                if atts is not None and name.lower() == "meta":
                    a = [x.decode("utf-8", "replace")
                         if x is not None else None for x in atts]
                else:
                    a = None
                open_tag(name, a, None)
            elif t == 2:
                close_tag(dtag(ev[1]), None)
            elif t == 5:
                atts = ev[4]
                if ev[3] in _XINCLUDE_NSS:
                    self._xinclude(ev[1], atts)
                a = None
                if atts is not None:
                    a = [x.decode("utf-8", "replace")
                         if x is not None else None for x in atts]
                prefix = ev[2]
                open_tag(dtag(ev[1]), a, dtag(prefix) if prefix else None)
            elif t == 6:
                prefix = ev[2]
                close_tag(dtag(ev[1]), dtag(prefix) if prefix else None)
            elif t == 4:
                self.comment(ev[1])
            elif t == 8:
                # parser.c:831-846 — flush whatever's left
                self.flush_buffer(C.DEFAULT_METANAME, C.DEFAULT_METANAME)

    def _xinclude(self, localname: bytes, atts: list[bytes] | None) -> None:
        """XInclude (parser.c:924-951): with a resolver wired in, the
        referenced doc is parsed and merged in-line (process_xinclude
        semantics); without one, the engine records the miss instead
        of touching the filesystem (table-scale rows have no paths)."""
        if localname != b"include" or not atts \
                or not self.config.follow_xinclude:
            return
        href = None
        is_text = False
        for i in range(0, len(atts) - 1, 2):
            if atts[i] == b"href" and atts[i + 1] is not None:
                href = atts[i + 1]
            elif atts[i] == b"parse":
                is_text = atts[i + 1] == b"text"
        if href is None:
            return
        if self.xinclude_cb is not None:
            self.xinclude_cb(href.decode("utf-8", "replace"), is_text)
        else:
            self.parse_error = "xinclude-not-followed"

    def comment(self, data: bytes) -> None:
        """mycomments (parser.c:1318-1388)."""
        text = trim_ws(skip_ws(data))
        if not text:
            return
        swishcmd_found = False
        # xmlStrcasestr at position 0 == case-insensitive prefix
        if text[:12].lower() == b"swishcommand":
            text = trim_ws(skip_ws(text[12:]))
            swishcmd_found = True
        lowered = text.lower()
        if lowered == b"noindex":
            self.ignore_content += 1
            return
        if lowered == b"index":
            if self.ignore_content > 0:
                self.ignore_content -= 1
            return
        if swishcmd_found:
            return
        # any other comment bumps position (prevents phrase matching)
        self.bump_word = True


def concat_buffers(parent_nb: dict, child_nb: dict) -> None:
    """swish_buffer_concat (namedbuffer.c:268-291) for an XInclude
    merge: iterate the PARENT's names only — the reference scans nb1's
    hash, so names that exist only in the child are dropped from the
    buffers (their tokens still merge) — and append each non-empty
    child value with the \\x03 token-position bumper when the parent
    side already has content."""
    for name, pbuf in parent_nb.items():
        cbuf = child_nb.get(name)
        if cbuf:
            if pbuf:
                pbuf += C.TOKENPOS_BUMPER
            pbuf += cbuf


class ArenaRow:
    """A document the machine extracts straight into the open row of a
    batch's record arena (``swishtok.Arena``), in place of an
    ExtractionState: ``html_parse``/``xml_parse`` take it as their
    ``state``. The flushes go through ``tokenize``, the extractor's
    tokenizer hook or ``tokenize_into``, with the arena as the token
    list; ``nwords`` is their sum once parsed."""

    __slots__ = ("arena", "tokenize", "nwords")

    def __init__(self, arena, tokenizer=None):
        self.arena = arena
        self.tokenize = tokenizer if tokenizer is not None else tokenize_into
        self.nwords = 0


def _fill_row(body, row: ArenaRow, machine, html: bool, native):
    """Run ``machine`` over one document into ``row``'s arena: libxml's
    rc, or None when the machine declines the document or the tokenizer
    raises, with the row's writes dropped; the caller then replays the
    document, without the machine, into an ExtractionState whose token
    list is the arena. Raises ParseAbort after the writes, as
    ``ExtractionState.apply`` does."""
    arena = row.arena
    result = None
    try:
        result = (native.extract_html if html
                  else native.extract_xml)(body, machine, arena)
        if result is None:
            return None
        rc, error, flushes = result
        tokenize = row.tokenize
        n = 0
        for data, meta, context in flushes:
            n += tokenize(arena, data, meta, context)
    except Exception:
        arena.rollback()
        if result is None:
            raise  # the machine itself failed, not the tokenizer
        return None
    row.nwords = n
    if error is not None:
        raise ParseAbort(error)
    return rc


def _parse(body: bytes, state, machine, html: bool, native) -> int | None:
    """Extract one document into ``state``: through ``machine`` (built
    by ``native.compile``) when there is one and it finishes the
    document, else by replaying libxml's event batch. Returns libxml's
    rc. ``state`` may be an ArenaRow (see ``_fill_row``): then a
    document the machine does not finish returns None."""
    if state.__class__ is ArenaRow:
        return _fill_row(body, state, machine, html, native)
    if machine is not None:
        result = (native.extract_html if html
                  else native.extract_xml)(body, machine)
        # None: the machine declined the document
        if result is not None and state.apply(result):
            return result[0]
    rc, events = libxml.parse_events(body, html)
    state.is_html = html
    state.replay(events)
    return rc


def html_parse(body: bytes, state, machine) -> int | None:
    """html_parser (parser.c:2537-2597) into ``state`` (an
    ExtractionState, or with a ``machine`` an ArenaRow); ``machine`` is
    ``machine_for(config)``, or None for the event replay."""
    return _parse(body, state, machine, True, _machine)


def xml_parse(body: bytes, state, machine) -> int | None:
    """xml_parser (parser.c:2450-2535) into ``state`` (an
    ExtractionState, or with a ``machine`` an ArenaRow); ``machine`` is
    ``machine_for(config)``, or None for the event replay. Returns 0
    if well-formed, else the libxml2 errNo."""
    return _parse(body, state, machine, False, _machine)


def _machine_selftest(native) -> bool:
    """``native``'s machine must leave the state the replay leaves
    (buffers, token stream, nwords, ParseAbort) on libxml's self-test
    corpus, under the default config and one with aliases, properties
    and cascading contexts."""
    variant = Config.default()
    variant.add("<swish><MetaNames><b/><doc/></MetaNames>"
                "<PropertyNames><b/><title/></PropertyNames>"
                "<TagAlias><swishtitle>span</swishtitle></TagAlias>"
                "<CascadeMetaContext>1</CascadeMetaContext></swish>")
    for cfg in (Config.default(), variant):
        machine = native.compile(machine_spec(cfg))
        for kind, doc in libxml._SAX_SELFTEST_DOCS:
            html = kind == "html"
            got = []
            for m in (machine, None):
                st = ExtractionState(cfg)
                try:
                    _parse(doc, st, m, html, native)
                    err = None
                except ParseAbort as e:
                    err = str(e)
                got.append((err, st.nwords, st.token_list,
                            {k: bytes(v) for k, v in st.metanames.items()},
                            {k: bytes(v) for k, v in st.properties.items()}))
            if got[0] != got[1]:
                return False
    return True


# swishsax's checked front-end, when its extraction machine also passed
# _machine_selftest; None: every document replays
_machine = _native.checked(libxml._sax_native, _machine_selftest)
