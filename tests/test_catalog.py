import random

import pytest

from vknots.catalog import _first_minors, builtin_entries, catalog_by_name, load_catalog
from vknots.gausscode import (
    GaussCodeError,
    canonical_key,
    edge_structure,
    validate_code,
)
from vknots.invariants import alexander_matrix
from vknots.laurent import normalize_unit
from vknots.matrix import det_cofactor, minor_matrix

from conftest import random_code
from test_algebra import rand_lpoly2

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


def _cofactor_first_minors(mat):
    """Every first minor by cofactor expansion, up to a unit, the rule
    _first_minors replaced."""
    n = len(mat)
    return [(i, j, normalize_unit(det_cofactor(minor_matrix(mat, [i], [j]))))
            for i in range(n) for j in range(n)]


def test_first_minors_match_cofactor():
    """The catalog's first minors (unit-pivot reduction, then
    det_laurent2), which are determinants up to a unit, against cofactor
    expansion, on knot K's Alexander matrix, Alexander matrices of random
    small knots and random 2-4 square matrices over Z[s^+-1, t^+-1]."""
    rng = random.Random(4400)
    mats = [alexander_matrix(catalog_by_name()["knot-k"].code)]
    for n in (1, 2, 2, 3):
        code = random_code(rng, n)
        assert not edge_structure(code).free_circles
        mats.append(alexander_matrix(code))
    for n in (2, 2, 3, 3, 4):
        mats.append([[rand_lpoly2(rng) for _ in range(n)] for _ in range(n)])
    nonzero = 0
    for mat in mats:
        got = [(i, j, normalize_unit(d)) for i, j, d in _first_minors(mat)]
        assert got == _cofactor_first_minors(mat), mat
        nonzero += sum(not d.is_zero() for _i, _j, d in got)
    assert nonzero
