import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vknots.gausscode import (
    GaussCodeError,
    GaussEntry,
    LinkGaussCode,
    canonical_key,
    canonicalize,
    edge_structure,
    flat_projection,
    inter_component_parity,
    parse_gauss,
    realizability_check,
    render_gauss,
    validate_code,
)

from conftest import random_code, random_link_text, small_codes

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREF = "O1+O2+U1+U2+"
HOPF = "O1+U2+/U1+O2+"
FLAT_H = "O1+/U1+"


# --- parsing and rendering --------------------------------------------------


def test_parse_simple():
    code = parse_gauss(TREFOIL)
    assert len(code.components) == 1
    assert code.n_crossings == 3
    assert code.sign_of(2) == 1


def test_parse_whitespace_ignored():
    assert parse_gauss(" O1+ U1+\t") == parse_gauss("O1+U1+")


def test_parse_multi_component_and_empty():
    code = parse_gauss("()/O1+/U1+")
    assert len(code.components) == 3
    assert code.components[0] == ()


@pytest.mark.parametrize(
    "bad",
    ["O1", "O1*", "X1+", "O01+", "O0+", "O1+()", "()O1+", "O1+/ /U1+", ""],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(GaussCodeError):
        parse_gauss(bad)


def test_parse_error_reports_position():
    with pytest.raises(GaussCodeError) as exc:
        parse_gauss("O1+Z2+")
    assert "position 3" in str(exc.value)


def test_render_empty_component():
    assert render_gauss(parse_gauss("()")) == "()"


@settings(max_examples=60)
@given(small_codes())
def test_render_parse_roundtrip(code):
    assert parse_gauss(render_gauss(code)) == code


# --- validation ---------------------------------------------------------------


def test_validate_clean():
    assert validate_code(parse_gauss(TREFOIL)) == []


@pytest.mark.parametrize(
    "entries,kind",
    [
        ([("O", 1, 1)], "MissingPartner"),
        (
            [("O", 1, 1), ("U", 1, 1), ("O", 1, 1), ("U", 2, 1), ("O", 2, 1)],
            "ExtraOccurrence",
        ),
        ([("O", 1, 1), ("O", 1, 1)], "PassageMismatch"),
        ([("O", 1, 1), ("U", 1, -1)], "SignMismatch"),
    ],
)
def test_validate_kinds(entries, kind):
    from vknots.gausscode import GaussEntry, LinkGaussCode

    code = LinkGaussCode([tuple(GaussEntry(*e) for e in entries)])
    problems = validate_code(code)
    assert any(v.kind == kind for v in problems)


def test_parse_rejects_invalid_pairings():
    for bad in ("O1+", "O1+O1+", "O1+U1-"):
        with pytest.raises(GaussCodeError):
            parse_gauss(bad)


# --- canonical form -------------------------------------------------------------


def test_canonicalize_rotation_invariant():
    a = parse_gauss(TREFOIL)
    b = parse_gauss("U1+O2+U3+O1+U2+O3+")  # rotated by one entry
    assert canonical_key(a) == canonical_key(b)


def test_canonicalize_relabel_invariant():
    a = parse_gauss(VTREF)
    b = parse_gauss("O2+O1+U2+U1+")
    assert canonical_key(a) == canonical_key(b)


def test_canonicalize_component_order_invariant():
    assert canonical_key(parse_gauss(HOPF)) == canonical_key(
        parse_gauss("U1+O2+/O1+U2+")
    )


def test_canonicalize_distinguishes_signs():
    assert canonical_key(parse_gauss("O1+U1+")) != canonical_key(
        parse_gauss("O1-U1-")
    )


@settings(max_examples=40)
@given(small_codes(), st.integers(min_value=0, max_value=7))
def test_canonical_key_constant_on_rotations(code, rot):
    comp = code.components[0]
    if not comp:
        return
    r = rot % len(comp)
    from vknots.gausscode import LinkGaussCode

    rotated = LinkGaussCode([comp[r:] + comp[:r]])
    assert canonical_key(rotated) == canonical_key(code)


def _brute_force_canonicalize(code):
    """The search canonicalize replaced: every component order and every
    rotation of each component, relabeled in first-traversal order."""
    nonempty = [c for c in code.components if c]
    best = ()
    for order in permutations(nonempty):
        for rotations in product(*(range(len(c)) for c in order)):
            mapping = {}
            key = []
            for comp, rot in zip(order, rotations):
                for e in comp[rot:] + comp[:rot]:
                    mapping.setdefault(e.label, len(mapping) + 1)
                key.append(tuple(
                    GaussEntry(e.passage, mapping[e.label], e.sign)
                    for e in comp[rot:] + comp[:rot]
                ))
            key = tuple(key)
            if not best or key < best:
                best = key
    empties = len(code.components) - len(nonempty)
    return LinkGaussCode([()] * empties + list(best))


def _necklace(k):
    """k components in a ring, each clasped to the next by two crossings."""
    comps = []
    for i in range(k):
        prev = (i - 1) % k
        comps.append(
            f"O{2 * i + 1}+U{2 * i + 2}+U{2 * prev + 1}+O{2 * prev + 2}+"
        )
    return "/".join(comps)


def _scrambled(rng, code):
    """The code with labels, component order and rotations shuffled."""
    labels = code.labels
    fresh = rng.sample(range(1, 3 * len(labels) + 2), len(labels))
    relabel = dict(zip(labels, fresh))
    comps = []
    for comp in code.components:
        r = rng.randrange(len(comp)) if comp else 0
        comps.append(tuple(
            GaussEntry(e.passage, relabel[e.label], e.sign)
            for e in comp[r:] + comp[:r]
        ))
    rng.shuffle(comps)
    return LinkGaussCode(comps)


def _symmetric_links():
    texts = [_necklace(k) for k in (2, 3, 4)]
    texts += [
        "O1+U2+/O2+U1+",
        "O1+U2+/U1+O2+",
        "O1+U2+O3+U4+/U1+O2+U3+O4+",
        "O1+U1+/O2+U2+/O3+U3+",
        "O1-U1-/O2+U2+/()/O3-U3-",
        TREFOIL + "/O4+U5+O6+U4+O5+U6+",
        "O1+U2+/O3+U4+/U1+O2+/U3+O4+",
        # the kink's key is a proper prefix of the two-kink component's,
        # in either component order; five split kinks tie at every level
        "O1+U1+/O2+U2+O3+U3+",
        "O2+U2+O3+U3+/O1+U1+",
        "/".join(f"O{i}+U{i}+" for i in range(1, 6)),
    ]
    return [parse_gauss(t) for t in texts]


def test_canonicalize_matches_brute_force():
    rng = random.Random(2024)
    codes = _symmetric_links()
    for _ in range(60):
        k = rng.randint(1, 4)
        n = rng.randint((k + 1) // 2, 5)
        text = random_link_text(rng, n, k, rng.randint(0, 1))
        codes.append(parse_gauss(text))
    for code in codes:
        expected = _brute_force_canonicalize(code)
        assert canonicalize(code) == expected, code
        assert canonicalize(_scrambled(rng, code)) == expected, code


def test_canonicalize_necklace_is_fast():
    code = parse_gauss(_necklace(6))
    t0 = time.perf_counter()
    canon = canonicalize(code)
    assert time.perf_counter() - t0 < 0.1
    assert canonical_key(code) == render_gauss(canon)
    assert canonicalize(_scrambled(random.Random(6), code)) == canon


def test_canonicalize_idempotent(rng):
    for n in range(5):
        code = random_code(rng, n)
        canon = canonicalize(code)
        assert canonicalize(canon) == canon


# --- flat projection and parity ---------------------------------------------


def test_flat_projection():
    flat = flat_projection(parse_gauss(VTREF))
    assert flat.components == ((1, 2, 1, 2),)


def test_inter_component_parity_values():
    assert inter_component_parity(parse_gauss(FLAT_H), 0, 1) == 1
    assert inter_component_parity(parse_gauss(HOPF), 0, 1) == 0


# --- edge structure ------------------------------------------------------------


def test_edge_structure_counts():
    es = edge_structure(parse_gauss(TREFOIL))
    assert len(es.edges) == 6
    assert len(es.arcs) == 3
    assert es.free_circles == 0
    assert set(es.crossing_edges) == {1, 2, 3}


def test_edge_structure_free_circles():
    es = edge_structure(parse_gauss("()/O1+U1+"))
    assert es.free_circles == 1
    assert len(es.edges) == 2


def test_edge_structure_closed_arc():
    # one component passes only over: it forms a single closed arc
    es = edge_structure(parse_gauss("O1+O2+/U1+U2+"))
    comp0 = tuple(e for e, (ci, _) in enumerate(es.edges) if ci == 0)
    assert comp0 in es.arcs
    over_arcs = {over for over, _, _ in es.crossing_arcs.values()}
    assert over_arcs == {es.arcs.index(comp0)}


def _brute_force_pieces(code):
    """Labels grouped by components that share a crossing, by repeated
    merging of label sets."""
    groups = [{e.label for e in comp} for comp in code.components if comp]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] & groups[j]:
                    groups[i] |= groups.pop(j)
                    merged = True
                    break
            if merged:
                break
    return sorted(tuple(sorted(g)) for g in groups)


def _compiled_structure_codes():
    rng = random.Random(4100)
    codes = [random_code(rng, n) for n in range(9) for _ in range(6)]
    codes += [
        parse_gauss(random_link_text(rng, n, k, free))
        for n, k, free in [(3, 2, 1), (4, 3, 0), (5, 2, 2), (6, 4, 1), (8, 5, 0)]
    ]
    codes += [
        parse_gauss(TREFOIL + "/O4-U5-/U4-O5-/O6+U6+/()"),
        parse_gauss(HOPF + "/()/()"),
        parse_gauss("()"),
    ]
    return codes


def test_compiled_structure_matches_its_code():
    for code in _compiled_structure_codes():
        es = edge_structure(code)
        assert es.signs == {e.label: e.sign for c in code.components for e in c}
        assert list(es.pieces) == _brute_force_pieces(code)
        assert es.pieces == tuple(sorted(es.pieces))
        assert set(es.crossing_ends) == set(es.crossing_edges)
        for label, (o_in, o_out, u_in, u_out) in es.crossing_edges.items():
            assert es.crossing_ends[label] == (
                2 * o_in + 1, 2 * o_out, 2 * u_in + 1, 2 * u_out
            )
        # each end of each edge is met at exactly one crossing
        ends = sorted(x for xs in es.crossing_ends.values() for x in xs)
        assert ends == list(range(2 * len(es.edges)))
        assert es.free_circles == sum(1 for c in code.components if not c)


def test_edge_structure_is_memoized_and_bounded():
    code = parse_gauss(TREFOIL)
    edge_structure.cache_clear()
    assert edge_structure(code) is edge_structure(parse_gauss(TREFOIL))
    assert edge_structure.cache_info().misses == 1
    assert edge_structure.cache_info().maxsize == 16


def test_edges_conserved(rng):
    for n in range(1, 6):
        code = random_code(rng, n)
        es = edge_structure(code)
        assert len(es.edges) == 2 * n
        # every edge appears exactly twice among crossing slots
        uses = [e for quad in es.crossing_edges.values() for e in quad]
        assert sorted(uses) == sorted(list(range(2 * n)) * 2)


# --- realizability -------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("()", True),
        ("O1+U1+", True),
        (TREFOIL, True),
        (HOPF, True),
        (VTREF, False),
        (FLAT_H, False),
    ],
)
def test_realizability_known(text, expected):
    assert realizability_check(parse_gauss(text)) == expected


def test_diagram_pieces_split_link_and_free_circle():
    split = parse_gauss(TREFOIL + "/O4-U5-/U4-O5-/O6+U6+")
    assert edge_structure(split).pieces == ((1, 2, 3), (4, 5), (6,))
    assert edge_structure(parse_gauss(HOPF + "/()")).pieces == ((1, 2),)
    assert edge_structure(parse_gauss("()")).pieces == ()


def test_realizability_per_piece():
    # Euler's formula must hold on every piece, not on the diagram as a whole
    assert realizability_check(parse_gauss(TREFOIL + "/O4-U5-/U4-O5-/()"))
    assert not realizability_check(parse_gauss(TREFOIL + "/O4+O5+U4+U5+"))


def test_realizability_canonical_invariant(rng):
    for n in range(1, 6):
        code = random_code(rng, n)
        assert realizability_check(code) == realizability_check(canonicalize(code))
