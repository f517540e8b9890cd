"""Declarative extraction config with swish.xml semantics.

Mirrors the reference's config system:
  * defaults: config.c:268-373 (metanames swishdefault/swishtitle,
    properties swishdescription/swishtitle, parser map, tag aliases
    title->swishtitle and body->swishdescription)
  * flags: config.c:183-202
  * swish.xml reading: header.c — sections MetaNames / PropertyNames
    (attrs + child-text alias lists), Parsers / TagAlias (value words ->
    element-name mapping), MIME (ext->type), Index, XMLClassAttributes
    (merged stringlist), IncludeConfigFile recursion, misc flag
    elements (Tokenize, CascadeMetaContext, IgnoreXMLNameSpaces,
    FollowXInclude, UndefinedMetaTags, UndefinedXMLAttributes)
  * merge: second config wins (config.c:587-730); swish_config_add
    parses then merges onto the current config

The Config object is small, immutable-after-build, picklable, and is
broadcast to Ray workers as a constructor argument.
"""

from __future__ import annotations

import copy
import os

from dataclasses import dataclass, field

from . import constants as C
from ._mime_data import EXT_TO_MIME
from .text import glibc_lower, string_to_boolean


@dataclass
class MetaName:
    """libswish3.h:336-343; defaults metaname.c:26-39."""
    name: str
    id: int = -1
    bias: int = 0
    alias_for: str | None = None


@dataclass
class Property:
    """libswish3.h:345-358; defaults property.c:26-45."""
    name: str
    id: int = -1
    ignore_case: bool = True
    type: int = C.PROP_TYPE_STRING
    verbatim: bool = False
    alias_for: str | None = None
    max: int = 0
    sort: bool = True
    presort: bool = True
    sort_length: int = 0


@dataclass
class Config:
    metanames: dict[str, MetaName] = field(default_factory=dict)
    properties: dict[str, Property] = field(default_factory=dict)
    parsers: dict[str, str] = field(default_factory=dict)
    mimes: dict[str, str] = field(default_factory=dict)
    tag_aliases: dict[str, str] = field(default_factory=dict)
    index: dict[str, str] = field(default_factory=dict)
    stringlists: dict[str, list[str]] = field(default_factory=dict)
    misc: dict[str, str] = field(default_factory=dict)
    # flags (config.c:183-202 defaults)
    tokenize: bool = True
    cascade_meta_context: bool = False
    ignore_xmlns: bool = True
    follow_xinclude: bool = True
    undef_metas: str = C.UNDEF_INDEX
    undef_attrs: str = C.UNDEF_DISABLE
    # engine extension (NOT a reference behavior): when on, stored
    # property values are truncated to Property.max characters at
    # capture. The reference parses ``max``/``sort_length``
    # (header.c:474-541) but never enforces them at runtime — verified
    # against the compiled binary (tests/test_properties.py) — so the
    # default keeps byte-parity; ``sort_length`` likewise only rides
    # the config for index-side sinks.
    enforce_property_max: bool = False
    max_meta_id: int = -1
    max_prop_id: int = -1

    # ---- construction ------------------------------------------------

    @classmethod
    def default(cls) -> "Config":
        """swish_config_set_default (config.c:268-373)."""
        cfg = cls()
        cfg.mimes = dict(EXT_TO_MIME)
        cfg.metanames[C.DEFAULT_METANAME] = MetaName(
            C.DEFAULT_METANAME, id=C.META_DEFAULT_ID)
        cfg.metanames[C.TITLE_METANAME] = MetaName(
            C.TITLE_METANAME, id=C.META_TITLE_ID)
        cfg.max_meta_id = C.META_TITLE_ID
        desc = Property(C.PROP_DESCRIPTION, id=C.PROP_DESCRIPTION_ID)
        desc.sort = False
        cfg.properties[C.PROP_DESCRIPTION] = desc
        cfg.properties[C.PROP_TITLE] = Property(C.PROP_TITLE, id=C.PROP_TITLE_ID)
        cfg.max_prop_id = C.PROP_DESCRIPTION_ID
        cfg.parsers = {
            "text/plain": C.PARSER_TXT,
            "application/xml": C.PARSER_XML,
            "text/xml": C.PARSER_XML,
            "text/html": C.PARSER_HTML,
            C.DEFAULT_PARSER: C.DEFAULT_PARSER_TYPE,
        }
        cfg.index = {"Format": "Native", "Name": "index.swish",
                     "Locale": "C.utf8"}
        cfg.tag_aliases = {
            C.TITLE_TAG: C.TITLE_METANAME,          # title -> swishtitle
            C.BODY_TAG: C.PROP_DESCRIPTION,         # body  -> swishdescription
        }
        return cfg

    def add(self, conf: str) -> "Config":
        """swish_config_add semantics: parse ``conf`` (a file path or an
        inline XML string, header.c:926-947) and merge it in (second
        config wins). Returns self."""
        _HeaderReader(self).read(conf)
        return self

    def copy(self) -> "Config":
        return copy.deepcopy(self)

    def to_xml(self) -> str:
        """swish_header_write (header.c:949-1150 / swish_header.c:143):
        serialize the config back to swish.xml form so a run's schema
        persists with its output (the reference stores swish.xml in the
        index dir so schemas stay stable across runs,
        swish_xapian.cpp:1527-1534). Round-trips through Config.add."""
        from xml.sax.saxutils import escape, quoteattr

        base = Config.default()
        out = ["<swish>"]
        metas = [m for n, m in self.metanames.items()
                 if n not in base.metanames]
        if metas:
            out.append(" <MetaNames>")
            for m in metas:
                attrs = f' id="{m.id}"'
                if m.bias:
                    attrs += f' bias="{m.bias}"'
                if m.alias_for:
                    attrs += f' alias_for={quoteattr(m.alias_for)}'
                out.append(f"  <{m.name}{attrs} />")
            out.append(" </MetaNames>")
        props = [p for n, p in self.properties.items()
                 if n not in base.properties]
        if props:
            out.append(" <PropertyNames>")
            for p in props:
                t = {1: "string", 2: "date", 3: "int"}.get(p.type,
                                                           str(p.type))
                attrs = (f' id="{p.id}" type="{t}"'
                         f' ignore_case="{int(p.ignore_case)}"'
                         f' verbatim="{int(p.verbatim)}"'
                         f' sort="{int(p.sort)}"')
                if p.max:
                    attrs += f' max="{p.max}"'
                if p.alias_for:
                    attrs += f' alias_for={quoteattr(p.alias_for)}'
                out.append(f"  <{p.name}{attrs} />")
            out.append(" </PropertyNames>")
        new_parsers = {m: p for m, p in self.parsers.items()
                       if base.parsers.get(m) != p}
        if new_parsers:
            out.append(" <Parsers>")
            by_parser: dict[str, list[str]] = {}
            for mime, parser in new_parsers.items():
                by_parser.setdefault(parser, []).append(mime)
            for parser, mimes in by_parser.items():
                out.append(f"  <{parser}>{escape(' '.join(sorted(mimes)))}"
                           f"</{parser}>")
            out.append(" </Parsers>")
        new_mimes = {e: m for e, m in self.mimes.items()
                     if base.mimes.get(e) != m}
        if new_mimes:
            out.append(" <MIME>")
            for e, m in sorted(new_mimes.items()):
                out.append(f"  <{e}>{escape(m)}</{e}>")
            out.append(" </MIME>")
        new_aliases = {a: t for a, t in self.tag_aliases.items()
                       if base.tag_aliases.get(a) != t}
        if new_aliases:
            out.append(" <TagAlias>")
            by_target: dict[str, list[str]] = {}
            for alias, target in new_aliases.items():
                by_target.setdefault(target, []).append(alias)
            for target, aliases in by_target.items():
                out.append(f"  <{target}>"
                           f"{escape(' '.join(sorted(aliases)))}"
                           f"</{target}>")
            out.append(" </TagAlias>")
        out.append(" <Index>")
        for k, v in self.index.items():
            out.append(f"  <{k}>{escape(v)}</{k}>")
        out.append(" </Index>")
        for name, words in self.stringlists.items():
            out.append(f" <{name}>{escape(' '.join(words))}</{name}>")
        out.append(f" <Tokenize>{int(self.tokenize)}</Tokenize>")
        out.append(f" <CascadeMetaContext>{int(self.cascade_meta_context)}"
                   f"</CascadeMetaContext>")
        out.append(f" <IgnoreXMLNameSpaces>{int(self.ignore_xmlns)}"
                   f"</IgnoreXMLNameSpaces>")
        out.append(f" <FollowXInclude>{int(self.follow_xinclude)}"
                   f"</FollowXInclude>")
        out.append(f" <EnforcePropertyMax>{int(self.enforce_property_max)}"
                   f"</EnforcePropertyMax>")
        out.append(f" <UndefinedMetaTags>{self.undef_metas}"
                   f"</UndefinedMetaTags>")
        out.append(f" <UndefinedXMLAttributes>{self.undef_attrs}"
                   f"</UndefinedXMLAttributes>")
        out.append("</swish>")
        return "\n".join(out)

    # ---- helpers used by the extractor -------------------------------

    def new_metaname(self, name: str) -> MetaName:
        """swish_metaname_new (metaname.c:41-59): auto-vivified metaname
        with the next id."""
        self.max_meta_id += 1
        m = MetaName(name, id=self.max_meta_id)
        self.metanames[name] = m
        return m

    def new_property(self, name: str) -> Property:
        """swish_property_new (property.c)."""
        self.max_prop_id += 1
        p = Property(name, id=self.max_prop_id)
        self.properties[name] = p
        return p


class _El:
    """Minimal element view: QName (prefix kept, as xmlTextReaderConstName
    gives it), localName, document-ordered attributes, text, children."""

    __slots__ = ("qname", "local", "attrs", "text", "children")

    def __init__(self, qname: str, local: str,
                 attrs: list[tuple[str, str]]):
        self.qname = qname
        self.local = local
        self.attrs = attrs
        self.text = ""
        self.children: list["_El"] = []


def _parse_header_xml(data: str | bytes) -> _El:
    """Parse a swish.xml config with namespace processing OFF so
    prefixes survive (the reference's xmlTextReader reports QNames for
    MetaNames/PropertyNames entries, header.c:366, local names for
    section dispatch, header.c:627)."""
    import xml.parsers.expat as expat
    p = expat.ParserCreate()  # no namespace separator: raw QNames
    root: list[_El] = []
    stack: list[_El] = []

    def start(name, attrs_dict):
        local = name.rsplit(":", 1)[-1]
        el = _El(name, local, list(attrs_dict.items()))
        if stack:
            stack[-1].children.append(el)
        else:
            root.append(el)
        stack.append(el)

    def end(name):
        stack.pop()

    def chars(d):
        if stack:
            stack[-1].text += d

    p.StartElementHandler = start
    p.EndElementHandler = end
    p.CharacterDataHandler = chars
    p.ordered_attributes = False
    if isinstance(data, str):
        p.Parse(data, True)
    else:
        p.Parse(data.decode("utf-8"), True)
    return root[0]


class _HeaderReader:
    """swish.xml reader with header.c semantics.

    The reference walks the document with xmlTextReader; section state
    toggles on section elements; entry names keep their prefix.
    """

    def __init__(self, cfg: Config):
        self.cfg = cfg

    def read(self, conf: str) -> None:
        if os.path.exists(conf):
            with open(conf, "rb") as f:
                root = _parse_header_xml(f.read())
            base = os.path.dirname(os.path.abspath(conf))
        else:
            root = _parse_header_xml(conf)
            base = "."
        if root.local != "swish":
            raise ValueError("invalid header file: root must be <swish>")
        for el in root.children:
            self._section(el, base)

    # -- sections -------------------------------------------------------

    def _section(self, el: _El, base: str) -> None:
        """process_node dispatch (header.c:617-795): section names are
        compared by LOCAL name."""
        cfg = self.cfg
        tag = el.local
        if tag == "MetaNames":
            self._metanames(el)
        elif tag == "PropertyNames":
            self._properties(el)
        elif tag == "Parsers":
            for child in el.children:
                self._key_values(cfg.parsers, child)
        elif tag == "TagAlias":
            for child in el.children:
                self._key_values(cfg.tag_aliases, child)
        elif tag == "MIME":
            for child in el.children:
                cfg.mimes[child.local] = (child.text or "").strip()
        elif tag == "Index":
            for child in el.children:
                cfg.index[child.local] = (child.text or "").strip()
        elif tag == "XMLClassAttributes":
            words = glibc_lower(el.text or "").split()
            cfg.stringlists.setdefault("XMLClassAttributes", [])
            for w in words:
                if w not in cfg.stringlists["XMLClassAttributes"]:
                    cfg.stringlists["XMLClassAttributes"].append(w)
        elif tag == "IncludeConfigFile":
            path = (el.text or "").strip()
            if path and not os.path.isabs(path):
                path = os.path.join(base, path)
            self.read(path)
        else:
            # misc element (header.c:782-787) + special flag handling
            val = (el.text or "").strip()
            cfg.misc[tag] = val
            self._special_flag(tag, val)

    def _key_values(self, hash_: dict[str, str], el: _El) -> None:
        """read_key_values_pair (header.c:833-872): each whitespace word
        of the lowercased text maps to the element's LOCAL name."""
        for w in glibc_lower(el.text or "").split():
            hash_[w] = el.local

    def _special_flag(self, name: str, val: str) -> None:
        cfg = self.cfg
        if name == "Tokenize":
            cfg.tokenize = string_to_boolean(val)
        elif name == "CascadeMetaContext":
            cfg.cascade_meta_context = string_to_boolean(val)
        elif name == "IgnoreXMLNameSpaces":
            cfg.ignore_xmlns = string_to_boolean(val)
        elif name == "FollowXInclude":
            cfg.follow_xinclude = string_to_boolean(val)
        elif name == "EnforcePropertyMax":  # engine extension
            cfg.enforce_property_max = string_to_boolean(val)
        elif name == "UndefinedMetaTags":
            if val not in (C.UNDEF_ERROR, C.UNDEF_IGNORE, C.UNDEF_INDEX,
                           C.UNDEF_AUTO, C.UNDEF_AUTOALL):
                raise ValueError(f"Unknown value for UndefinedMetaTags: {val}")
            cfg.undef_metas = val
        elif name == "UndefinedXMLAttributes":
            if val not in (C.UNDEF_ERROR, C.UNDEF_IGNORE, C.UNDEF_INDEX,
                           C.UNDEF_AUTO, C.UNDEF_AUTOALL, C.UNDEF_DISABLE):
                raise ValueError(f"Unknown value for UndefinedXMLAttributes: {val}")
            cfg.undef_attrs = val

    @staticmethod
    def _usable_attrs(el: _El) -> list[tuple[str, str]]:
        """The attribute window xmlTextReader walking exposes
        (header.c:388-410): if the first attribute is xmlns-prefixed,
        skip it and take the next unconditionally; then keep taking
        until the next xmlns-prefixed attribute, which ENDS the walk."""
        attrs = el.attrs
        use: list[tuple[str, str]] = []
        i = 0

        def is_xmlns(name: str) -> bool:
            return name.split(":", 1)[0] == "xmlns" and ":" in name

        if attrs:
            if is_xmlns(attrs[0][0]):
                if len(attrs) > 1:
                    use.append(attrs[1])
                i = 2
            else:
                use.append(attrs[0])
                i = 1
            while i < len(attrs) and not is_xmlns(attrs[i][0]):
                use.append(attrs[i])
                i += 1
        return use

    def _metanames(self, el: _El) -> None:
        """read_metaname (header.c:358-430): entry names keep their
        prefix (xmlTextReaderConstName), lowered; duplicate names warn
        and keep the first; child text lists aliases whose MetaNames
        inherit bias (header.c:275-323)."""
        cfg = self.cfg
        next_id = cfg.max_meta_id + 1
        for child in el.children:
            name = glibc_lower(child.qname)
            m = MetaName(name)
            for attr, val in self._usable_attrs(child):
                if attr == "bias":
                    m.bias = int(val)
                elif attr == "id":
                    m.id = int(val)
                elif attr == "alias_for":
                    m.alias_for = glibc_lower(val)
                else:
                    raise ValueError(f"Unknown MetaName attribute: {attr}")
            if m.id == -1:
                m.id = next_id
                next_id += 1
                cfg.max_meta_id = next_id
            if name not in cfg.metanames:
                cfg.metanames[name] = m
            # else: reference warns "already defined" and keeps first
            for w in (child.text or "").split():
                if w in cfg.metanames:
                    raise ValueError(
                        f"Cannot alias MetaName {w} to {name} because {w} "
                        f"is already a real MetaName")
                alias = glibc_lower(w)
                if alias in cfg.metanames:
                    cfg.metanames[alias].alias_for = name
                else:
                    am = MetaName(alias, id=next_id, bias=m.bias,
                                  alias_for=name)
                    next_id += 1
                    cfg.max_meta_id = next_id
                    cfg.metanames[alias] = am

    def _properties(self, el: _El) -> None:
        """read_property (header.c:543-614): duplicates croak; alias
        Properties inherit ignore_case/type/verbatim/max/sort
        (header.c:431-459)."""
        cfg = self.cfg
        next_id = cfg.max_prop_id + 1
        for child in el.children:
            name = glibc_lower(child.qname)
            p = Property(name)
            for attr, val in self._usable_attrs(child):
                if attr == "ignore_case":
                    p.ignore_case = string_to_boolean(val)
                elif attr == "max":
                    p.max = int(val)
                elif attr == "verbatim":
                    p.verbatim = string_to_boolean(val)
                elif attr == "sort":
                    p.sort = string_to_boolean(val)
                elif attr == "presort":
                    p.presort = string_to_boolean(val)
                elif attr == "sort_length":
                    p.sort_length = int(val)
                elif attr == "id":
                    p.id = int(val)
                elif attr == "type":
                    if val == "int":
                        p.type = C.PROP_TYPE_INT
                    elif val == "date":
                        p.type = C.PROP_TYPE_DATE
                    elif val in ("string", "text"):
                        p.type = C.PROP_TYPE_STRING
                    elif val[:1].isdigit():
                        p.type = int(val)
                    else:
                        raise ValueError(
                            f"Invalid value for PropertyName '{name}' "
                            f"type: {val}")
                elif attr == "alias_for":
                    p.alias_for = glibc_lower(val)
                else:
                    raise ValueError(f"unknown Property attribute: {attr}")
            if p.id == -1:
                p.id = next_id
                next_id += 1
                cfg.max_prop_id = next_id
            if name in cfg.properties:
                raise ValueError(f"Property {name} is already defined")
            cfg.properties[name] = p
            for w in (child.text or "").split():
                if w in cfg.properties:
                    raise ValueError(
                        f"Cannot alias Property {w} to {name} because {w} "
                        f"is already a real Property")
                alias = glibc_lower(w)
                ap = Property(alias, id=next_id, alias_for=name,
                              ignore_case=p.ignore_case, type=p.type,
                              verbatim=p.verbatim, max=p.max, sort=p.sort)
                next_id += 1
                cfg.max_prop_id = next_id
                cfg.properties[alias] = ap
