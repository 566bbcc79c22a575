import hashlib
import json
import random
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest

import walk_oracle
from vknots.catalog import builtin_entries, catalog_by_name
from vknots.gausscode import (
    GaussEntry,
    LinkGaussCode,
    canonical_key,
    edge_structure,
    parse_gauss,
    render_gauss,
    validate_code,
)
from vknots.invariants import f_polynomial
from vknots.moves import (
    MOVE_KINDS,
    MoveSite,
    _adjacent_pairs,
    _r3_legal,
    apply_move,
    descending_switch_set,
    enumerate_sites,
    random_walk,
    site_at,
    site_count,
    switch_crossing,
    virt_construction,
    virtualize_crossing,
)

from conftest import catalog_and_walk_codes, random_code, random_link_text

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREF = "O1+O2+U1+U2+"


def seeds():
    return [
        parse_gauss(t)
        for t in ("O1+U1+", TREFOIL, VTREF, "O1+U2+/U1+O2+", "O1+/U1+")
    ]


# --- site enumeration and validity --------------------------------------------


def test_move_kinds_complete():
    assert set(MOVE_KINDS) == {
        "R1Add",
        "R1Remove",
        "R2Add",
        "R2Remove",
        "R3",
        "ForbiddenOver",
    }


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_every_applied_move_is_valid(rng, kind):
    for n in range(1, 5):
        code = random_code(rng, n)
        sites = enumerate_sites(code, kind)
        for site in sites[:20] + sites[20:][-10:]:
            new = apply_move(code, site)
            assert validate_code(new) == [], (render_gauss(code), site)


def test_kink_has_r1_remove():
    code = parse_gauss("O1+U1+")
    sites = enumerate_sites(code, "R1Remove")
    assert sites
    assert render_gauss(apply_move(code, sites[0])) == "()"


def test_trefoil_has_no_r3():
    assert enumerate_sites(parse_gauss(TREFOIL), "R3") == []


def test_r2_remove_needs_opposite_signs():
    # same-sign adjacent pairs are not an R2 face
    code = parse_gauss("O1+O2+U1+U2+")
    assert enumerate_sites(code, "R2Remove") == []


@lru_cache(maxsize=1)
def _oracle_codes():
    """Random codes of 0-8 crossings, random links with and without free
    circles, the catalog, the codes that walks from random codes visit
    (about 380 R3 sites), and the crossing-free codes."""
    rng = random.Random(2022)
    codes = [parse_gauss(t) for t in ("()", "()/()", "O1+U1+/()")]
    codes += [e.code for e in builtin_entries()]
    codes += catalog_and_walk_codes(7, walks=200, seed=2022, steps=6)
    for n in range(9):
        codes += [random_code(rng, n) for _ in range(6)]
    for n in range(1, 7):
        for k in range(2, min(2 * n, 4) + 1):
            codes.append(parse_gauss(random_link_text(rng, n, k, free=n % 2)))
    return codes


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_enumerate_sites_matches_the_oracle(kind):
    for code in _oracle_codes():
        want = walk_oracle.enumerate_sites(code, kind)
        assert enumerate_sites(code, kind) == want, render_gauss(code)
        if kind in ("R1Add", "R2Add"):
            assert site_count(code, kind) == len(want)
            assert [site_at(code, kind, i) for i in range(len(want))] == want
            for i in (-1, len(want)):
                with pytest.raises(IndexError):
                    site_at(code, kind, i)


def test_site_index_only_for_slot_kinds():
    code = parse_gauss(TREFOIL)
    for kind in ("R1Remove", "R2Remove", "R3", "ForbiddenOver", "R4"):
        with pytest.raises(ValueError):
            site_count(code, kind)
        with pytest.raises(ValueError):
            site_at(code, kind, 0)
    with pytest.raises(ValueError):
        enumerate_sites(code, "R4")


def _walk_starts():
    """The catalog, crossing-free codes, links, and two codes of 7 and 6
    crossings that start past the caps of 5 and 6."""
    texts = ("()", "()/()", "O1+U1+/()", "O1+U2+/U1+O2+", TREFOIL, VTREF)
    codes = [parse_gauss(t) for t in texts]
    codes.append(random_code(random.Random(22), 7))
    codes.append(parse_gauss(random_link_text(random.Random(22), 6, 3, free=1)))
    return codes + [entry.code for _name, entry in sorted(catalog_by_name().items())]


@pytest.mark.parametrize("allow_forbidden", [False, True])
@pytest.mark.parametrize("max_crossings", [None, 5, 6])
def test_random_walk_matches_the_oracle(max_crossings, allow_forbidden):
    steps = 5 if max_crossings is None else 12
    for code in _walk_starts():
        for seed in range(3):
            args = (code, steps, seed, allow_forbidden, max_crossings)
            got = random_walk(*args)
            assert got == walk_oracle.random_walk(*args), (render_gauss(code), seed)


def _trail_digest(trails):
    text = "\n".join(" ".join(render_gauss(c) for c in trail) for trail in trails)
    return hashlib.sha256(text.encode()).hexdigest()


def test_fuzz_corpus_trails_are_pinned():
    # the walks of every perfbench fuzz item and of its warm-up item
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "fuzz.json"
    corpus = json.loads(path.read_text())
    by_name = catalog_by_name()
    trails = [
        random_walk(by_name[item["shape"]].code, 4, seed=item["walk_seed"] + w,
                    max_crossings=5)
        for item in corpus["items"] + [corpus["warmup"]]
        for w in (0, 1)
    ]
    assert _trail_digest(trails) == (
        "bd8ff6fe34f18ae6740d0b976e9f304b07fbe8f8974d6dfa9267042fdba4cd68"
    )


def test_catalog_trails_are_pinned():
    trails = [
        random_walk(entry.code, 12, seed=s, allow_forbidden=fb, max_crossings=6)
        for _name, entry in sorted(catalog_by_name().items())
        for s in range(5)
        for fb in (False, True)
    ]
    assert _trail_digest(trails) == (
        "6546757d17887655df3b51ce85eb006312fa905eada89028bbc1a4a772dd9045"
    )


# --- the R3 shape table -------------------------------------------------------


def _trio_shape(code, trio):
    """The trio's ends renamed to crossings 0, 1 (strand 0's ends) and 2,
    and the signs of 0, 1, 2 as edge_structure reads them."""
    ends = [(code.components[ci][p], code.components[ci][q]) for ci, p, q in trio]
    x0, y0 = ends[0]
    (third,) = {e.label for pair in ends for e in pair} - {x0.label, y0.label}
    local = {x0.label: 0, y0.label: 1, third: 2}
    shape = tuple(tuple((local[e.label], e.passage) for e in pair) for pair in ends)
    signs = edge_structure(code).signs
    return shape, tuple(signs[lab] for lab in (x0.label, y0.label, third))


def _shape_codes():
    """Every trio shape as a code with one 2-entry component per strand:
    strand 0 meets crossings 1 and 2, strand 1 one of them and 3, strand 2
    the other two; each crossing's Over strand and sign chosen freely."""
    for s1 in ((1, 3), (3, 1), (2, 3), (3, 2)):
        (r,) = {1, 2} - set(s1)
        for s2 in ((r, 3), (3, r)):
            strands = ((1, 2), s1, s2)
            through = {lab: [s for s in range(3) if lab in strands[s]] for lab in (1, 2, 3)}
            for overs, signs in product(
                product((0, 1), repeat=3), product((1, -1), repeat=3)
            ):
                yield LinkGaussCode(
                    tuple(
                        GaussEntry(
                            "O" if through[lab][overs[lab - 1]] == s else "U",
                            lab,
                            signs[lab - 1],
                        )
                        for lab in strands[s]
                    )
                    for s in range(3)
                )


# shapes the 96-placement search finds legal, of the 512
LEGAL_R3_SHAPES = 96


def _trio_strands(code, trio):
    return tuple((code.components[ci][p], code.components[ci][q]) for ci, p, q in trio)


def _trio_labelsets(code, trio):
    return [tuple(e.label for e in pair) for pair in _trio_strands(code, trio)]


def test_r3_legal_is_the_placement_search_on_every_shape():
    trio = ((0, 0, 1), (1, 0, 1), (2, 0, 1))
    shapes = set()
    legal_count = 0
    for code in _shape_codes():
        assert validate_code(code) == []
        shapes.add(_trio_shape(code, trio))
        legal = walk_oracle._r3_legal(code, trio, _trio_labelsets(code, trio))
        assert _r3_legal(_trio_strands(code, trio)) == legal, render_gauss(code)
        assert enumerate_sites(code, "R3") == ([MoveSite("R3", trio)] if legal else [])
        legal_count += legal
    assert len(shapes) == 512
    assert legal_count == LEGAL_R3_SHAPES


def _triangles(code):
    pairs = [
        (ci, p, q) for ci, p, q, x, y in _adjacent_pairs(code) if x.label != y.label
    ]
    for trio in combinations(pairs, 3):
        if len({(ci, pos) for ci, p, q in trio for pos in (p, q)}) != 6:
            continue
        sets = {frozenset(code.components[ci][pos].label for pos in (p, q))
                for ci, p, q in trio}
        if len(sets) == 3 and len(frozenset().union(*sets)) == 3:
            yield trio


def test_r3_legal_is_the_placement_search_on_walk_triangles():
    shapes = set()
    for code in _oracle_codes():
        for trio in _triangles(code):
            legal = walk_oracle._r3_legal(code, trio, _trio_labelsets(code, trio))
            assert _r3_legal(_trio_strands(code, trio)) == legal, (render_gauss(code), trio)
            shapes.add(_trio_shape(code, trio))
    assert len(shapes) > 300


# --- inverse round-trips ----------------------------------------------------------


def test_r1_add_then_remove_roundtrip(rng):
    for n in range(0, 4):
        code = random_code(rng, n)
        key = canonical_key(code)
        for site in enumerate_sites(code, "R1Add")[:10]:
            grown = apply_move(code, site)
            back = {
                canonical_key(apply_move(grown, s))
                for s in enumerate_sites(grown, "R1Remove")
            }
            assert key in back


def test_r2_add_then_remove_roundtrip(rng):
    for n in range(0, 4):
        code = random_code(rng, n)
        key = canonical_key(code)
        for site in enumerate_sites(code, "R2Add")[:12]:
            grown = apply_move(code, site)
            back = {
                canonical_key(apply_move(grown, s))
                for s in enumerate_sites(grown, "R2Remove")
            }
            assert key in back, (render_gauss(code), site)


def test_r3_is_involution(rng):
    found = 0
    for trial in range(300):
        code = random_code(random.Random(trial), random.Random(trial).randint(3, 5))
        for site in enumerate_sites(code, "R3"):
            moved = apply_move(code, site)
            again = {
                canonical_key(apply_move(moved, s))
                for s in enumerate_sites(moved, "R3")
            }
            assert canonical_key(code) in again
            found += 1
        if found > 10:
            break
    assert found > 0, "no R3 sites found in the sample"


def test_forbidden_over_is_involution():
    code = parse_gauss(TREFOIL)
    for site in enumerate_sites(code, "ForbiddenOver"):
        moved = apply_move(code, site)
        back = {
            canonical_key(apply_move(moved, s))
            for s in enumerate_sites(moved, "ForbiddenOver")
        }
        assert canonical_key(code) in back


# --- random walks -----------------------------------------------------------------


def test_random_walk_reproducible():
    code = parse_gauss(TREFOIL)
    w1 = random_walk(code, 8, seed=5, max_crossings=6)
    w2 = random_walk(code, 8, seed=5, max_crossings=6)
    assert [render_gauss(c) for c in w1] == [render_gauss(c) for c in w2]


def test_random_walk_respects_cap():
    code = parse_gauss(TREFOIL)
    for c in random_walk(code, 30, seed=1, max_crossings=5):
        assert c.n_crossings <= 5
        assert validate_code(c) == []


def test_random_walk_zero_steps():
    code = parse_gauss(VTREF)
    assert random_walk(code, 0, seed=0) == [code]


# --- switching and virtualization ---------------------------------------------------


def test_switch_crossing_swaps_passages_and_sign():
    code = parse_gauss("O1+U1+")
    s = switch_crossing(code, 1)
    assert render_gauss(s) == "U1-O1-"


def test_virtualize_crossing_flips_sign_only():
    code = parse_gauss("O1+U1+")
    v = virtualize_crossing(code, 1)
    assert render_gauss(v) == "O1-U1-"


def test_switch_virtualize_same_f(rng):
    # the displayed equality: switching and virtualizing a crossing give
    # diagrams with the same f-polynomial
    for n in range(1, 5):
        code = random_code(rng, n)
        for label in sorted(code.labels):
            assert f_polynomial(virtualize_crossing(code, label)) == f_polynomial(
                switch_crossing(code, label)
            )


def test_descending_switch_set_trefoil():
    code = parse_gauss(TREFOIL)
    # scanning O1 U2 O3 U1 O2 U3: label 2 is first met as Under
    assert descending_switch_set(code) == {2}


def test_virt_construction_classical_unit_f():
    for text in ("O1+U1+", TREFOIL):
        virt = virt_construction(parse_gauss(text))
        assert f_polynomial(virt).render() == "1"


def test_virt_construction_canonicalizes_first():
    code = parse_gauss(TREFOIL)
    rotated = parse_gauss("U1+O2+U3+O1+U2+O3+")
    assert canonical_key(virt_construction(code)) == canonical_key(
        virt_construction(rotated)
    )
