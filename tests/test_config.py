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
