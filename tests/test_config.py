"""Config loader semantics (header.c parity over src/test_configs/)."""

import pathlib

import pytest

from swishray.config import Config, string_to_boolean

TC = pathlib.Path("/root/reference/src/test_configs")


def test_defaults():
    cfg = Config.default()
    assert set(cfg.metanames) == {"swishdefault", "swishtitle"}
    assert cfg.metanames["swishdefault"].id == 0
    assert cfg.metanames["swishtitle"].id == 1
    assert set(cfg.properties) == {"swishdescription", "swishtitle"}
    assert cfg.properties["swishdescription"].sort is False
    assert cfg.tag_aliases == {"title": "swishtitle",
                               "body": "swishdescription"}
    assert cfg.parsers["text/plain"] == "TXT"
    assert cfg.parsers["default"] == "HTML"
    assert cfg.undef_metas == "index"
    assert cfg.undef_attrs == "disable"
    assert cfg.tokenize and cfg.ignore_xmlns and cfg.follow_xinclude
    assert not cfg.cascade_meta_context


def test_string_to_boolean_quirks():
    # string.c:82-107: 'true' is NOT true; only y/Y/1/on/ON
    assert string_to_boolean("yes")
    assert string_to_boolean("1")
    assert string_to_boolean("on")
    assert not string_to_boolean("true")
    assert not string_to_boolean("0")
    assert not string_to_boolean(None)


@pytest.mark.needs_path(TC)
def test_kitchen_sink_swish_xml():
    cfg = Config.default().add(str(TC / "swish.xml"))
    # MetaNames: attrs + alias children
    assert cfg.metanames["foo"].bias == 10
    assert cfg.metanames["bar"].bias == -5
    assert cfg.metanames["title"].alias_for == "swishtitle"
    for alias in ("color", "size", "weight"):
        assert cfg.metanames[alias].alias_for == "other"
    assert cfg.metanames["uppercase"].alias_for == "mixedcase"
    # PropertyNames
    assert cfg.properties["bar"].type == 3          # int
    assert cfg.properties["lastmod"].type == 2      # date
    assert cfg.properties["bing"].ignore_case is False
    assert cfg.properties["description"].verbatim is True
    assert cfg.properties["description"].max == 10000
    assert cfg.properties["description"].alias_for == "swishdescription"
    assert cfg.properties["notsorted"].sort is False
    assert cfg.properties["somealias"].alias_for == "myaliased"
    # MIME + Parsers (value words -> element name)
    assert cfg.mimes["au"] == "foo/bar"
    assert cfg.parsers["text/foo"] == "XML"
    assert cfg.parsers["foo/bar"] == "HTML"
    assert cfg.parsers["1234/5678"] == "HTML"
    assert cfg.parsers["default"] == "TXT"          # overridden
    # TagAlias
    assert cfg.tag_aliases["foo"] == "swishtitle"
    assert cfg.tag_aliases["bar"] == "swishtitle"
    # misc flags
    assert cfg.cascade_meta_context is True


@pytest.mark.needs_path(TC)
def test_xmlns_config_keeps_prefixes():
    cfg = Config.default().add(str(TC / "xmlns.xml"))
    assert "foo:name" in cfg.metanames
    assert cfg.metanames["name"].alias_for == "foo:name"
    assert cfg.metanames["length"].alias_for == "height"
    assert cfg.ignore_xmlns is False


@pytest.mark.needs_path(TC)
def test_include_config_file():
    cfg = Config.default().add(str(TC / "includeconffile.xml"))
    # pulls in test_configs/xinclude.xml which defines doc/doc2
    assert "doc" in cfg.metanames and "doc2" in cfg.metanames


@pytest.mark.needs_path(TC)
def test_stringlist_merge():
    cfg = Config.default().add(str(TC / "UPPERlower.XML"))
    sl = cfg.stringlists["XMLClassAttributes"]
    assert "att1" in sl and "att2" in sl


def test_inline_xml_string():
    cfg = Config.default().add(
        "<swish><MetaNames><zap/></MetaNames></swish>")
    assert "zap" in cfg.metanames


def test_vivify_copy_keeps_every_config_field():
    """A document that vivifies a metaname parses against a private
    copy of the config; every field but the two tables it writes must
    carry over, including fields added to Config later."""
    import dataclasses
    from swishray.extractor import DocumentExtractor, resolve_docinfo
    from swishray.sax import ExtractionState
    cfg = Config.default().add(
        "<swish><UndefinedMetaTags>auto</UndefinedMetaTags>"
        "<UndefinedXMLAttributes>auto</UndefinedXMLAttributes></swish>")
    cfg.cascade_meta_context = True
    cfg.ignore_xmlns = False
    cfg.follow_xinclude = False
    cfg.enforce_property_max = True
    cfg.misc["probe"] = "1"
    body = b"<doc><fresh>hello world</fresh></doc>"
    state = ExtractionState(cfg, uri="a.xml")
    DocumentExtractor(cfg)._docparse(
        body, state, resolve_docinfo(cfg, "a.xml", len(body)))
    assert state.config is not cfg
    vivified = state.config.metanames.keys() - cfg.metanames.keys()
    assert "fresh" in vivified
    # each vivified metaname takes the next id
    want = dict(max_meta_id=cfg.max_meta_id + len(vivified))
    for f in dataclasses.fields(Config):
        if f.name not in ("metanames", "properties"):
            assert getattr(state.config, f.name) \
                == want.get(f.name, getattr(cfg, f.name)), f.name
