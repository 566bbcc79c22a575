import pytest

from vknots.catalog import builtin_entries, catalog_by_name, load_catalog
from vknots.gausscode import GaussCodeError, canonical_key, validate_code

EXPECTED_NAMES = {
    "unknot",
    "kink",
    "trefoil",
    "figure-eight",
    "virtual-trefoil",
    "kishino",
    "knot-k",
    "flat-h",
    "hopf",
}


def test_builtin_names_and_validity():
    entries = builtin_entries()
    assert {e.name for e in entries} == EXPECTED_NAMES
    assert len(entries) >= 8
    for e in entries:
        assert validate_code(e.code) == []
        assert e.note


def test_every_attached_assertion_passes():
    for e in builtin_entries():
        for desc, ok, detail in e.run_assertions():
            assert ok, f"{e.name}: {desc}: {detail}"


def test_kishino_and_knot_k_distinct():
    by_name = catalog_by_name()
    assert canonical_key(by_name["kishino"].code) != canonical_key(
        by_name["knot-k"].code
    )


def test_load_catalog_user_file(tmp_path):
    path = tmp_path / "extra.tsv"
    path.write_text("# comment\nmy-kink\tO1-U1-\n\n", encoding="utf-8")
    entries = load_catalog(str(path))
    names = [e.name for e in entries]
    assert "my-kink" in names
    assert len(entries) == len(builtin_entries()) + 1


def test_load_catalog_duplicate_name(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("trefoil\tO1+U1+\n", encoding="utf-8")
    with pytest.raises(GaussCodeError) as exc:
        load_catalog(str(path))
    assert "trefoil" in str(exc.value)


def test_load_catalog_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(GaussCodeError):
        load_catalog(str(path))


def test_load_catalog_invalid_code(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("oops\tO1+U1-\n", encoding="utf-8")
    with pytest.raises(GaussCodeError):
        load_catalog(str(path))


def test_load_catalog_invalid_code_names_its_location(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# comment\nbad\tO1+U2+\n", encoding="utf-8")
    with pytest.raises(GaussCodeError) as exc:
        load_catalog(str(path))
    assert str(exc.value) == (
        f"{path}:2: invalid code for 'bad': MissingPartner(1); MissingPartner(2)"
    )
