import json
import random
import re
import time
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from vknots import coloring, gausscode, invariants
from vknots.budget import BudgetError
from vknots.catalog import builtin_entries
from vknots.coloring import count_biquandle_colorings, count_iq_colorings
import gaussian_engine as oracle
from vknots.fastdet import block_places, block_selections, det_laurent2
from vknots.gausscode import (
    canonicalize,
    edge_structure,
    parse_gauss,
    realizability_check,
)
from vknots.invariants import (
    _crossing_end_pairs,
    _oriented,
    _state_counts,
    _sweep_order,
    alexander_matrix,
    arrow_expansion,
    atom_congruence_ok,
    atom_profile,
    bracket,
    bracket_congruence,
    codim1_gcd,
    exponent_congruence,
    f_polynomial,
    gen_alexander,
    jones_t_form,
    loop_count,
    quaternionic_invariant,
    quaternionic_matrix,
    study_determinant,
    writhe,
)
from vknots.laurent import (
    LaurentPoly,
    LaurentPoly2,
    normalize_leadpos,
    normalize_unit,
    poly_gcd,
)
from vknots.matrix import det_bareiss, minor_matrix
from vknots.moves import random_walk
from vknots.report import FLAG_NAMES, invariant_report, parse_structure
from vknots.quaternion import GaussianLaurent, Quaternion, double_matrix

from conftest import (
    catalog_and_walk_codes,
    doubled_setup,
    random_code,
    random_code_text,
    random_link_text,
    small_codes,
)
from test_algebra import rand_lpoly2, rand_quaternion

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIG8 = "O1+U2-O3-U1+O4+U3-O2-U4+"
VTREF = "O1+O2+U1+U2+"
KISHINO = "O1+U2-U1+O2-U3-O4+O3-U4+"
HOPF = "O1+U2+/U1+O2+"


# --- state loops and bracket ---------------------------------------------------


def test_loop_count_kink():
    code = parse_gauss("O1+U1+")
    assert loop_count(code, {1: "A"}) == 2
    assert loop_count(code, {1: "B"}) == 1


def test_loop_count_trefoil_extremes():
    code = parse_gauss(TREFOIL)
    assert loop_count(code, {1: "A", 2: "A", 3: "A"}) == 2
    assert loop_count(code, {1: "B", 2: "B", 3: "B"}) == 3


def test_loop_count_free_circle():
    code = parse_gauss("()")
    assert loop_count(code, {}) == 1


def _union_find_loop_count(code, state):
    """Loops of a state, counted by merging edge ends (tail 2e, head
    2e+1) with a union-find; free circles are one loop each."""
    es = edge_structure(code)
    parent = list(range(2 * len(es.edges)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    joins = [(2 * e, 2 * e + 1) for e in range(len(es.edges))]
    for label, (o_in, o_out, u_in, u_out) in es.crossing_edges.items():
        if (code.sign_of(label) > 0) == (state[label] == "A"):
            joins += [(2 * o_in + 1, 2 * u_out), (2 * u_in + 1, 2 * o_out)]
        else:
            joins += [(2 * o_in + 1, 2 * u_in + 1), (2 * o_out, 2 * u_out)]
    for a, b in joins:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(len(parent))}) + es.free_circles


def test_loop_count_matches_union_find():
    rng = random.Random(41)
    for code in catalog_and_walk_codes(6, 8, seed=41):
        states = [dict.fromkeys(code.labels, "A"), dict.fromkeys(code.labels, "B")]
        states += [{l: rng.choice("AB") for l in code.labels} for _ in range(6)]
        for state in states:
            assert loop_count(code, state) == _union_find_loop_count(code, state)


def test_bracket_unknot_and_kink():
    assert bracket(parse_gauss("()")).render() == "1"
    assert bracket(parse_gauss("O1+U1+")).render() == "-A^3"
    assert bracket(parse_gauss("O1-U1-")).render() == "-A^-3"


def _dfs_state_counts(code):
    """The state sum the frontier DP replaced: depth-first over crossings
    with a rollback union-find on edge ends, one leaf per state."""
    es = edge_structure(code)
    labels = code.labels
    nends = 2 * len(es.edges)
    parent = list(range(nends))
    trail = []
    count = nends

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        nonlocal count
        ra, rb = find(a), find(b)
        trail.append(ra if ra != rb else None)
        if ra != rb:
            parent[ra] = rb
            count -= 1

    def undo():
        nonlocal count
        ra = trail.pop()
        if ra is not None:
            parent[ra] = ra
            count += 1

    for e in range(len(es.edges)):
        union(2 * e, 2 * e + 1)
    hist = {}

    def rec(depth, a_used):
        if depth == len(labels):
            key = (a_used, count + es.free_circles)
            hist[key] = hist.get(key, 0) + 1
            return
        label = labels[depth]
        sign = code.sign_of(label)
        for choice, smoothing in ((1, "A"), (0, "B")):
            pairs = _crossing_end_pairs(
                es.crossing_ends[label], _oriented(sign, smoothing)
            )
            for x, y in pairs:
                union(x, y)
            rec(depth + 1, a_used + choice)
            undo()
            undo()

    if not es.edges:
        return {(0, es.free_circles): 1}
    rec(0, 0)
    return hist


def _with_kinks(rng, text, count):
    """Insert `count` kinks (two adjacent entries of one new label) at
    random places of a single-component code text."""
    entries = re.findall(r"[OU]\d+[+-]", text)
    label = len(entries) // 2
    for _ in range(count):
        label += 1
        sign = rng.choice("+-")
        first, second = rng.sample("OU", 2)
        at = rng.randint(0, len(entries))
        entries[at:at] = [f"{first}{label}{sign}", f"{second}{label}{sign}"]
    return "".join(entries)


def _state_sum_codes():
    rng = random.Random(4104)
    codes = [e.code for e in builtin_entries()]
    texts = [random_code_text(rng, n) for n in range(15) for _ in range(2)]
    texts += [random_link_text(rng, n, k, rng.randint(0, 1))
              for n, k in ((2, 2), (3, 2), (4, 3), (6, 2), (7, 4), (9, 3))]
    texts += [_with_kinks(rng, random_code_text(rng, n), k)
              for n, k in ((0, 1), (0, 2), (2, 1), (5, 2), (8, 3))]
    texts += ["()", "()/()", "()/O1+U1+", TREFOIL + "/()/()", HOPF + "/O3-U3-"]
    return codes + [parse_gauss(t) for t in texts]


def test_state_counts_match_dfs():
    codes = _state_sum_codes()
    assert any(c.n_crossings == 14 for c in codes)
    assert any(edge_structure(c).free_circles for c in codes)
    for code in codes:
        assert _state_counts(code) == _dfs_state_counts(code), code


def test_state_budget(monkeypatch):
    code = random_code(random.Random(7), 8)
    monkeypatch.setenv("VKNOTS_STATE_BUDGET", "1")
    with pytest.raises(BudgetError, match="VKNOTS_STATE_BUDGET"):
        bracket(code)
    monkeypatch.setenv("VKNOTS_STATE_BUDGET", "many")
    with pytest.raises(ValueError, match="must be an integer"):
        bracket(code)
    monkeypatch.setenv("VKNOTS_STATE_BUDGET", "1000")
    assert _state_counts(code) == _dfs_state_counts(code)


def _quadratic_sweep_order(es):
    """The sweep order _sweep_order keeps by incremental scores, found by
    re-scoring every remaining crossing at each step."""
    ends = {
        label: (2 * o_in + 1, 2 * o_out, 2 * u_in + 1, 2 * u_out)
        for label, (o_in, o_out, u_in, u_out) in es.crossing_edges.items()
    }
    at = {x: label for label, xs in ends.items() for x in xs}
    partners = {label: [at[x ^ 1] for x in xs] for label, xs in ends.items()}
    swept = set()
    order = []
    rest = sorted(ends)
    while rest:
        label = max(
            rest,
            key=lambda l: sum(2 if y in swept else y == l for y in partners[l]),
        )
        rest.remove(label)
        swept.add(label)
        order.append(label)
    return order


def _dict_state_counts(code):
    """The frontier DP with dict-built state keys that the byte-string keys
    replaced: ({(a_choices, loops): multiplicity}, [frontier states after
    each crossing]).  The key is the sorted tuple of the (end, mate) items
    of the open ends whose mate is not the default x ^ 1."""
    es = edge_structure(code)
    if not es.edges:
        return {(0, es.free_circles): 1}, []
    stride = len(es.edges) + 1
    states = {(): {0: 1}}
    sizes = []
    for label in _quadratic_sweep_order(es):
        ends = es.crossing_ends[label]
        ori = _oriented(code.sign_of(label), "A")
        smoothings = (
            (stride, _crossing_end_pairs(ends, ori)),
            (0, _crossing_end_pairs(ends, not ori)),
        )
        swept = {}
        for key, hist in states.items():
            for shift, pairs in smoothings:
                mate = dict(key)
                for x, y in pairs:
                    mx = mate.pop(x, x ^ 1)
                    if mx == y:
                        shift += 1
                        mate.pop(y, None)
                    else:
                        my = mate.pop(y, y ^ 1)
                        mate[mx] = my
                        mate[my] = mx
                target = swept.setdefault(tuple(sorted(mate.items())), {})
                for k, m in hist.items():
                    target[k + shift] = target.get(k + shift, 0) + m
        states = swept
        sizes.append(len(states))
    (hist,) = states.values()
    out = {}
    for k, m in hist.items():
        a_used, loops = divmod(k, stride)
        out[(a_used, loops + es.free_circles)] = m
    return out, sizes


class _RecordingBudget:
    """A state budget that never runs out and records each frontier size
    _state_counts checks against it, one per crossing swept."""

    def __init__(self):
        self.sizes = []

    def __lt__(self, size):  # reached as `size > budget`
        self.sizes.append(size)
        return False


def _state_counts_by_step(monkeypatch, code):
    """_state_counts(code) and its frontier size after each crossing."""
    budget = _RecordingBudget()
    with monkeypatch.context() as mp:
        mp.setattr(invariants, "read_budget", lambda *args: budget)
        return _state_counts(code), budget.sizes


def _jones_corpus_codes():
    """The knots and links of the benchmark's jones corpus (14-17
    crossings, 4-5 component links)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "jones.json"
    with open(path, encoding="utf-8") as fh:
        return [parse_gauss(item["code"]) for item in json.load(fh)["items"]]


def test_sweep_order_matches_quadratic_greedy():
    rng = random.Random(4105)
    codes = _state_sum_codes()
    codes += [random_code(rng, n) for n in range(1, 31) for _ in range(3)]
    for code in codes:
        es = edge_structure(code)
        assert _sweep_order(es) == _quadratic_sweep_order(es), code


def test_state_counts_match_dict_keyed_dp_step_by_step(monkeypatch):
    codes = _state_sum_codes() + _jones_corpus_codes()
    assert len(codes) > 300 and max(c.n_crossings for c in codes) == 17
    for code in codes:
        want = _dict_state_counts(code)
        assert _state_counts_by_step(monkeypatch, code) == want, code


def test_state_budget_boundary(monkeypatch):
    """The sum passes with the budget at its peak frontier size and stops
    one state below it."""
    for code in [random_code(random.Random(7), 8), *_jones_corpus_codes()[:3]]:
        want, sizes = _dict_state_counts(code)
        peak = max(sizes)
        monkeypatch.setenv("VKNOTS_STATE_BUDGET", str(peak))
        assert _state_counts(code) == want
        monkeypatch.setenv("VKNOTS_STATE_BUDGET", str(peak - 1))
        with pytest.raises(BudgetError, match=f"budget of {peak - 1} "):
            _state_counts(code)


def test_bracket_of_criterion_11_code_is_fast():
    code = random_code(random.Random(1111), 18)
    t0 = time.perf_counter()
    bracket(code)
    assert time.perf_counter() - t0 < 0.2


def _torus_2_code(n):
    """The standard diagram of the (2, n) torus link: n positive
    crossings, a knot for odd n and a two-component link for even n."""
    if n % 2:
        return "".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n))
    return "/".join(
        "".join(f"{'OU'[(i + c) % 2]}{i + 1}+" for i in range(n)) for c in (0, 1)
    )


def test_thirty_crossing_bracket_with_a_narrow_frontier():
    code = parse_gauss(_torus_2_code(30))
    assert realizability_check(code)
    t0 = time.perf_counter()
    br = bracket(code)
    assert time.perf_counter() - t0 < 3
    # a reduced alternating diagram's bracket spans 4n (Kauffman-Murasugi)
    assert max(br.terms) - min(br.terms) == 4 * 30
    assert _torus_2_code(3) == TREFOIL


def test_wide_state_keys_take_two_bytes_per_end(monkeypatch):
    """The (2, 70) torus link has 140 edges, so 280 edge ends: too many
    to number in one byte beside the sentinel."""
    code = parse_gauss(_torus_2_code(70))
    assert 2 * len(edge_structure(code).edges) == 280
    assert _state_counts_by_step(monkeypatch, code) == _dict_state_counts(code)
    br = bracket(code)
    assert max(br.terms) - min(br.terms) == 4 * 70


def _kink_chain(n):
    """One component of n positive kinks in a row: O1+U1+ ... On+Un+."""
    return parse_gauss("".join(f"O{i}+U{i}+" for i in range(1, n + 1)))


def test_packed_histogram_slots_hold_the_largest_count(monkeypatch):
    """A histogram slot is n + 1 bits wide.  Every state of the n-kink
    chain closes one loop per A-smoothing, so slot (a, a + 1) counts
    C(n, a) states; C(20, 10) = 184 756 needs 18 bits of the 21.  The
    jones corpus and the (2, 70) torus link are compared step by step
    with the dict-keyed DP by the tests above."""
    chain = _kink_chain(20)
    want = {(a, a + 1): comb(20, a) for a in range(21)}
    assert _state_counts(chain) == want
    assert _state_counts_by_step(monkeypatch, chain) == _dict_state_counts(chain)
    assert max(want.values()).bit_length() == 18
    shorter = _kink_chain(16)
    assert _state_counts(shorter) == _dfs_state_counts(shorter)


def test_congruence_from_f_equals_bracket_congruence():
    for code in _state_sum_codes()[:40]:
        assert exponent_congruence(f_polynomial(code)) == bracket_congruence(code)


def _edge_structure_calls(monkeypatch, fn, *args):
    """Calls of edge_structure, memo hits included, made by fn(*args)
    through any module that binds it."""
    calls = []
    real = gausscode.edge_structure

    def counting(code):
        calls.append(code)
        return real(code)

    modules = (invariants, coloring, gausscode)
    for module in modules:
        monkeypatch.setattr(module, "edge_structure", counting)
    fn(*args)
    for module in modules:
        monkeypatch.setattr(module, "edge_structure", real)
    return len(calls)


def test_each_invariant_builds_the_edge_structure_once(monkeypatch):
    code = parse_gauss(TREFOIL)
    state = dict.fromkeys(code.labels, "A")
    assert _edge_structure_calls(monkeypatch, atom_profile, code) == 1
    assert _edge_structure_calls(monkeypatch, loop_count, code, state) == 1
    assert _edge_structure_calls(monkeypatch, bracket, code) == 1
    assert _edge_structure_calls(monkeypatch, quaternionic_invariant, code) == 1
    assert _edge_structure_calls(monkeypatch, alexander_matrix, code) == 1
    assert _edge_structure_calls(monkeypatch, realizability_check, code) == 1
    for spec, count in (("alexander-5-2-3", count_biquandle_colorings),
                        ("dihedral-3", count_iq_colorings)):
        struct = parse_structure(spec)
        assert _edge_structure_calls(monkeypatch, count, code, struct) == 1


@pytest.mark.parametrize(
    "text", [TREFOIL, KISHINO, HOPF + "/()", TREFOIL + "/O4-U5-/U4-O5-/()", "()"]
)
def test_one_compile_per_report(text):
    structures = [parse_structure("dihedral-3"), parse_structure("alexander-5-2-3")]
    for want in (set(FLAG_NAMES), {"f", "atom"}):
        code = parse_gauss(text)
        gausscode.edge_structure.cache_clear()
        invariant_report(code, want, structures)
        assert gausscode.edge_structure.cache_info().misses == 1


def test_writhe():
    assert writhe(parse_gauss(TREFOIL)) == 3
    assert writhe(parse_gauss(FIG8)) == 0


# --- f-polynomial and Jones form ------------------------------------------------


def test_f_kink_is_unit():
    assert f_polynomial(parse_gauss("O1+U1+")).render() == "1"
    assert f_polynomial(parse_gauss("O1-U1-")).render() == "1"


def test_f_trefoil():
    f = f_polynomial(parse_gauss(TREFOIL))
    assert f.render() == "-A^-16 + A^-12 + A^-4"
    assert jones_t_form(f) == "t + t^3 - t^4"


def test_f_figure_eight():
    f = f_polynomial(parse_gauss(FIG8))
    assert jones_t_form(f) == "t^-2 - t^-1 + 1 - t + t^2"


def test_f_virtual_trefoil():
    f = f_polynomial(parse_gauss(VTREF))
    assert f.render() == "-A^-10 + A^-6 + A^-4"
    assert jones_t_form(f) is None  # exponents not all divisible by 4


def test_f_rotation_invariant(rng):
    for n in range(1, 6):
        code = random_code(rng, n)
        assert f_polynomial(code) == f_polynomial(canonicalize(code))


# --- generalized Alexander --------------------------------------------------------


@pytest.mark.parametrize("text", ["()", "O1+U1+", TREFOIL, FIG8, HOPF])
def test_gen_alexander_vanishes_classical(text):
    assert gen_alexander(parse_gauss(text)).is_zero()


def test_gen_alexander_virtual_trefoil():
    g = normalize_unit(gen_alexander(parse_gauss(VTREF)))
    expected = normalize_unit(
        LaurentPoly2(
            {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 2): 1, (2, 1): 1, (2, 2): -1}
        )
    )
    assert g == expected


def test_gen_alexander_kishino_zero():
    assert gen_alexander(parse_gauss(KISHINO)).is_zero()


# --- quaternionic pair --------------------------------------------------------------


def test_quaternionic_unknot():
    study, gcd = quaternionic_invariant(parse_gauss("()"))
    assert study.is_zero()
    assert gcd.render() == "1"


def test_quaternionic_kink():
    study, gcd = quaternionic_invariant(parse_gauss("O1+U1+"))
    assert study.is_zero()
    assert gcd.render() == "1"


def test_quaternionic_virtual_trefoil():
    study, gcd = quaternionic_invariant(parse_gauss(VTREF))
    assert study.render() == "4 + 8*t^2 + 4*t^4"
    assert gcd.render() == "1"


def test_quaternionic_kishino():
    study, gcd = quaternionic_invariant(parse_gauss(KISHINO))
    assert study.is_zero()
    assert gcd.render() == "2 + 5*t^2 + 2*t^4"


def _block_minors(qmat):
    """Every codimension-1 minor of the complex doubling, as a matrix."""
    m = len(qmat)
    dbl = double_matrix(qmat)
    return [
        minor_matrix(dbl, (2 * r, 2 * r + 1), (2 * c, 2 * c + 1))
        for r in range(m)
        for c in range(m)
    ]


def _fold_gcd(dets):
    g = LaurentPoly({})
    for d in dets:
        g = poly_gcd(g, d)
    return g


def _real(d):
    assert d.im.is_zero()
    return d.re


def _sweep_codim1_gcd(qmat):
    """The minor sweep codim1_gcd replaced: one elimination per minor, by
    the general engine."""
    return _fold_gcd(map(_real, oracle.det_gaussian_many(_block_minors(qmat))))


def _bareiss_codim1_gcd(qmat):
    one = GaussianLaurent(LaurentPoly({0: 1}), LaurentPoly({}))
    return _fold_gcd(_real(det_bareiss(sub, one)) for sub in _block_minors(qmat))


def _oracle_study(qmat):
    """The normalized Study determinant of a square quaternionic matrix by
    the general engine on its doubling."""
    return normalize_leadpos(_real(oracle.det_gaussian_many([double_matrix(qmat)])[0]))


def _engine_block_minors(qmat):
    """The block minors of the doubling of a square quaternionic matrix in
    block_places order, by the general engine, which reads them all off
    one elimination per evaluation point (gaussian_engine)."""
    m = len(qmat)
    keep = [tuple(i for i in range(2 * m) if i // 2 != r) for r in range(m)]
    sels = [(keep[r], keep[c]) for r, c in block_places(m)]
    return list(map(_real, oracle.det_gaussian_submatrices(double_matrix(qmat), sels)))


def _engine_codim1_gcd(qmat):
    """The gcd of _engine_block_minors: the minor sweep's gcd, at a
    hundredth of its time on 18-row matrices."""
    return _fold_gcd(_engine_block_minors(qmat))


def _oracle_pair(qmat):
    """The quaternionic pair of a square matrix by the general engine: its
    normalized Study determinant, and the gcd of the minor sweep."""
    return _oracle_study(qmat), _sweep_codim1_gcd(qmat)


def _quaternionic_codes(max_crossings, walks, seed):
    """Catalog codes and random-walk codes with at most max_crossings
    crossings, each with crossings and without free circles."""
    return [
        c
        for c in catalog_and_walk_codes(max_crossings, walks, seed)
        if c.labels and edge_structure(c).free_circles == 0
    ]


def test_codim1_gcd_matches_per_minor_sweep():
    codes = _quaternionic_codes(6, 6, seed=31)
    study_zero = 0
    for code in codes:
        qmat = quaternionic_matrix(code)
        assert codim1_gcd(qmat) == _sweep_codim1_gcd(qmat), code
        study_zero += quaternionic_invariant(code)[0].is_zero()
    # both the full-rank and the rank-deficient rules are exercised
    assert 0 < study_zero < len(codes)


def test_codim1_gcd_matches_bareiss_sweep():
    for code in _quaternionic_codes(4, 4, seed=32):
        qmat = quaternionic_matrix(code)
        assert codim1_gcd(qmat) == _bareiss_codim1_gcd(qmat), code


def test_codim1_gcd_makes_one_engine_call_per_code(monkeypatch):
    """codim1_gcd reduces the matrix first: one full-only engine call on
    the k-row rest for its Study determinant, then one single-selection
    call per block minor of the rest that the fold reads, in
    block_selections order (none for k <= 2, whose minors are entry
    norms), and no call on the whole matrix."""
    calls = []
    real = invariants.det_gaussian_submatrices

    def counting(setup, selections):
        calls.append(selections)
        return real(setup, selections)

    monkeypatch.setattr(invariants, "det_gaussian_submatrices", counting)
    ks = Counter()
    for code in _quaternionic_codes(5, 4, seed=33):
        qmat = quaternionic_matrix(code)
        k = len(_reduce_quaternionic(invariants._qmat_rows(qmat))[1])
        calls.clear()
        assert codim1_gcd(qmat) == _sweep_codim1_gcd(qmat), code
        sels = block_selections(k)
        if k == 1:
            assert calls == [], code
        else:
            read = len(calls) - 1
            assert calls == [sels[:1]] + [[s] for s in sels[1 : 1 + read]], code
            assert read == 0 if k == 2 else 1 <= read <= k * k, code
        ks[min(k, 3)] += 1
    assert min(ks.values()) >= 2 and len(ks) == 3, ks
    # quaternionic_invariant builds a coefficient array only for an engine
    # call.  Kishino: 8 rows reduce to 3 of Study determinant 0 whose
    # block-minor gcd is not 1: one full-only call, then all 9 block
    # minors one by one, and the gcd is read off kernel vectors, with no
    # call on the 8 rows.  The virtual trefoil: 4 rows reduce to 2 with
    # gcd 1.  The trefoil: 6 rows reduce to 2 with Study determinant 0 and
    # gcd 9, read off kernel vectors.  Each of these two makes one
    # full-only call.
    others = {"det_gaussian_many": [], "_qmat_setup": [], "quaternionic_matrix": [],
              "quaternion_setup": [], "_matrix_minor": []}
    for name in others:
        def other(*args, _name=name, _real=getattr(invariants, name)):
            others[_name].append(args[0])
            return _real(*args)

        monkeypatch.setattr(invariants, name, other)
    for text, study_want, gcd_want, k in (
        (KISHINO, "0", "2 + 5*t^2 + 2*t^4", 3),
        (VTREF, "4 + 8*t^2 + 4*t^4", "1", 2),
        (TREFOIL, "0", "9", 2),
    ):
        calls.clear()
        for args in others.values():
            args.clear()
        study, gcd = quaternionic_invariant(parse_gauss(text))
        assert (study.render(), gcd.render()) == (study_want, gcd_want)
        sels = block_selections(k)
        singles = [[s] for s in sels[1:]] if k >= 3 else []
        assert calls == [sels[:1]] + singles
        assert others == dict({n: [] for n in others}, quaternion_setup=[k])


# --- unit-pivot reduction -------------------------------------------------------


def _reduce_quaternionic(rows):
    return invariants._unit_reduce(rows, invariants._qmono_mul, invariants._qmono_inv)


def reduced_gcd_counterexample():
    """A 3 x 3 matrix with Study determinant 9 and codim1_gcd 1 whose
    complement at the unit M[0][0] has codim1_gcd 3."""
    q = Quaternion.const
    return [[q(1), q(1), q(0, 0, 1)],
            [q(0, 1), q(-1, 0, 0, -1), q(0, 1, 1)],
            [q(), q(0, 1, -1, 1), q()]]


def rank_one_counterexample():
    """A 3 x 3 matrix of units with third row A + j B: one pivot leaves a
    rest with gcd 1 + t^2, while the matrix's gcd is 1."""

    def unit(e, w=0, x=0, y=0, z=0):  # (w + x i + y j + z k) t^e
        return Quaternion(*(LaurentPoly({e: v}) for v in (w, x, y, z)))

    A = [unit(1, w=-1), unit(0, y=-1), unit(0, z=1)]
    B = [unit(1, w=1), unit(1, z=1), unit(-1, y=1)]
    return [A, B, [a + unit(0, y=1) * b for a, b in zip(A, B)]]


def test_a_reduced_gcd_other_than_one_is_taken_again_from_the_matrix():
    """The block minors of a Schur complement S at a unit pivot are block
    minors of M up to units, so gcd_M divides gcd_S; but gcd_S can be
    larger.  Here both have Study determinant 9, codim1_gcd(M) is 1 and
    the complement at the unit M[0][0] has codim1_gcd 3, so a reduced
    gcd other than 1 must send the gcd back to the full matrix."""
    q = Quaternion.const
    M = reduced_gcd_counterexample()
    rows = invariants._qmat_rows(M)
    steps, S = _reduce_quaternionic(rows)
    assert len(steps) == 1 and len(S) == 2  # the pivot was M[0][0]; S has no unit
    reduced = [[invariants._quaternion_of(row.get(c, {})) for c in range(2)] for row in S]
    assert reduced[0][0] == q(-1, -1, 0, -1)  # (-1 - k) - i 1^-1 1
    nine, one = LaurentPoly.const(9), LaurentPoly.const(1)
    assert _oracle_pair(reduced) == (nine, LaurentPoly.const(3))
    assert _oracle_pair(M) == (nine, one)
    assert invariants._quaternionic_pair(rows) == (nine, one)
    assert normalize_leadpos(study_determinant(M)) == nine


def _random_entry(rng):
    """Zero, a unit (+-1, +-i, +-j, +-k times a power of t), +-2 times
    one, or a random quaternion, about equally often."""
    kind = rng.randrange(4)
    if kind == 0:
        return Quaternion()
    if kind == 3:
        return rand_quaternion(rng)
    parts = [LaurentPoly({})] * 4
    parts[rng.randrange(4)] = LaurentPoly({rng.randint(-2, 2): rng.choice((-1, 1)) * kind})
    return Quaternion(*parts)


def _random_matrices(rng, count):
    """Random 1-4 row quaternionic matrices, entries by _random_entry."""
    mats = []
    for _ in range(count):
        m = rng.randint(1, 4)
        mats.append([[_random_entry(rng) for _ in range(m)] for _ in range(m)])
    return mats


def test_quaternionic_pair_matches_the_oracles_on_random_matrices():
    """On random quaternionic matrices full of non-central unit pivots
    (so the side u^-1 is written on matters) and of +-2 monomials (which
    are no pivots), the pair from the reduction is that of the full
    matrix by the general engine and its minor sweep."""
    rng = random.Random(4211)
    seen = Counter()
    for qmat in _random_matrices(rng, 80):
        rows = invariants._qmat_rows(qmat)
        want = _oracle_pair(qmat)
        assert invariants._quaternionic_pair(rows) == want, qmat
        steps, S = _reduce_quaternionic(rows)
        seen["pivoted"] += len(steps) > 0
        seen["non-unit gcd"] += want[1] != LaurentPoly.const(1)
        seen["non-zero"] += not want[0].is_zero()
    assert min(seen.values()) >= 5, seen


def _quaternions(S):
    """The Quaternion matrix of a reduced S given as sparse rows."""
    return [[invariants._quaternion_of(row.get(c, {})) for c in range(len(S))] for row in S]


def _pair_step(rows):
    """The step of _quaternionic_pair (see its docstring) that settles the
    gcd of the matrix given as sparse rows, and the size k of its reduced
    rest S, both decided by the oracles on S: 3 when no pivot was taken or
    gcd_S = 1, 4 when gcd_S = 0, 5 when S has Study determinant 0, and 6
    otherwise."""
    steps, S = _reduce_quaternionic(rows)
    rest = _quaternions(S)
    gcd = _sweep_codim1_gcd(rest)
    if not steps or gcd == LaurentPoly.const(1):
        return 3, len(S)
    if gcd.is_zero():
        return 4, len(S)
    return (5 if _oracle_study(rest).is_zero() else 6), len(S)


def _first_minor(S):
    """The place (r, c) and value of the first nonzero block minor of a
    reduced S in block_places order, by the general engine."""
    dbl = double_matrix(_quaternions(S))
    places = block_places(len(S))
    subs = [minor_matrix(dbl, (2 * r, 2 * r + 1), (2 * c, 2 * c + 1)) for r, c in places]
    dets = map(_real, oracle.det_gaussian_many(subs))
    return next((place, d) for place, d in zip(places, dets) if not d.is_zero())


def _check_kernel_vectors(qmat, steps, S):
    """x M = 0 and M v = 0 for the lifted kernel vectors of M = qmat."""
    x, v = invariants._kernel_vectors(steps, S)
    m = len(qmat)
    xs = [invariants._quaternion_of(x[r]) for r in range(m)]
    vs = [invariants._quaternion_of(v[c]) for c in range(m)]
    zero = Quaternion()
    for k in range(m):
        assert sum((xs[r] * qmat[r][k] for r in range(m)), zero) == zero, (qmat, k)
        assert sum((qmat[k][c] * vs[c] for c in range(m)), zero) == zero, (qmat, k)
    assert any(xs) and any(vs)


def _singular_matrices(rng, count, dependent=1):
    """Random 3-5 row quaternionic matrices (entries by _random_entry) in
    which `dependent` rows, each put at a random place, are left
    combinations p A + q B of two others (p and q by _random_entry too),
    so of rank at most m - dependent."""
    mats = []
    for _ in range(count):
        m = rng.randint(3, 5)
        qmat = [[_random_entry(rng) for _ in range(m)] for _ in range(m - dependent)]
        base = len(qmat)
        for _ in range(dependent):
            a, b = (rng.sample(range(base), 2) if base > 1 else (0, 0))
            p, q = _random_entry(rng), _random_entry(rng)
            qmat.insert(rng.randrange(len(qmat) + 1),
                        [p * x + q * y for x, y in zip(qmat[a], qmat[b])])
            base = len(qmat)
        mats.append(qmat)
    return mats


def test_rank_one_rest_gcd_matches_codim1_gcd_on_singular_matrices():
    """On singular matrices whose reduction leaves a rest of rank k - 1
    (k >= 2), the lifted vectors are kernel vectors of the matrix and the
    gcd read off them and the first nonzero minor of the rest is the minor
    sweep's gcd of the matrix, including where that is not the rest's own
    gcd.  The pinned matrix has all entries units and third row A + j B:
    one pivot leaves a rest with gcd 1 + t^2, while the matrix's gcd is
    1."""
    pinned = rank_one_counterexample()
    seen = Counter()
    for qmat in [pinned] + _singular_matrices(random.Random(4215), 200):
        rows = invariants._qmat_rows(qmat)
        want = _sweep_codim1_gcd(qmat)
        assert invariants._quaternionic_pair(rows) == (LaurentPoly({}), want), qmat
        steps, S = _reduce_quaternionic(rows)
        if _pair_step(rows)[0] == 5:
            _check_kernel_vectors(qmat, steps, S)
            assert invariants._rank_one_gcd(steps, S, *_first_minor(S)) == want, qmat
            seen["rank k - 1 rest"] += 1
            seen[f"k = {min(len(S), 3)}"] += 1
            seen["gcd_M != gcd_S"] += _sweep_codim1_gcd(_quaternions(S)) != want
    steps, S = _reduce_quaternionic(invariants._qmat_rows(pinned))
    assert len(steps) == 1
    assert _sweep_codim1_gcd(_quaternions(S)) == LaurentPoly({0: 1, 2: 1})
    assert _sweep_codim1_gcd(pinned) == LaurentPoly.const(1)
    assert seen["rank k - 1 rest"] >= 20 and seen["gcd_M != gcd_S"] >= 1, seen
    assert min(seen["k = 2"], seen["k = 3"]) >= 5, seen


def test_rank_one_rests_of_torus_and_walk_codes():
    """T(2, 7), T(2, 9) and codes on move walks from the trefoil and the
    Hopf link against the general engine and the minor sweep on the full
    relation matrix; most of them reduce to a 2-row rest of Study
    determinant 0, whose lifted vectors are checked to be kernel vectors
    of the matrix."""
    codes = [parse_gauss(_torus_2_code(n)) for n in (7, 9)]
    for text in (TREFOIL, HOPF):
        for seed in range(6):
            codes += random_walk(parse_gauss(text), 4, seed=seed, max_crossings=5)
    closed = 0
    for code in codes:
        es = edge_structure(code)
        if es.free_circles:
            continue
        qmat = quaternionic_matrix(code)
        assert quaternionic_invariant(code) == _oracle_pair(qmat), code
        rows = invariants._quaternionic_rows(es)
        steps, S = _reduce_quaternionic(rows)
        if _pair_step(rows)[0] == 5:
            _check_kernel_vectors(qmat, steps, S)
            closed += 1
    assert quaternionic_invariant(codes[0])[1] == LaurentPoly.const(49)
    assert quaternionic_invariant(codes[1])[1] == LaurentPoly.const(81)
    assert closed >= len(codes) // 2, (closed, len(codes))


def _random_alexander_entry(rng):
    """Zero, a unit +-s^a t^b, +-2 times one, or a random polynomial."""
    kind = rng.randrange(4)
    if kind == 3:
        return rand_lpoly2(rng)
    mono = (rng.randint(-2, 2), rng.randint(-2, 2))
    return LaurentPoly2({mono: rng.choice((-1, 1)) * kind} if kind else {})


def test_alexander_det_matches_det_laurent2_on_random_matrices():
    rng = random.Random(4212)
    pivoted = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = [[_random_alexander_entry(rng) for _ in range(n)] for _ in range(n)]
        rows = [{c: e.terms for c, e in enumerate(row) if e} for row in mat]
        assert normalize_unit(invariants._alexander_det(rows)) == normalize_unit(
            det_laurent2(mat)
        ), mat
        pivoted += len(invariants._unit_reduce(
            rows, invariants._lmono_mul, invariants._lmono_inv
        )[0]) > 0
    assert pivoted >= 20


def _reduction_codes():
    """Catalog and walk codes, random codes of up to 10 crossings, random
    links of 2 and 3 components, kinks of both kinds (u_out = o_in when a
    crossing's two passages are adjacent, u_out = u_in on a component
    that is one under passage), codes with one free circle, and Kishino."""
    rng = random.Random(4213)
    texts = [random_code_text(rng, n) for n in range(1, 11) for _ in range(2)]
    texts += [random_link_text(rng, n, k) for n in (2, 3, 5, 7) for k in (2, 3)]
    texts += [_with_kinks(rng, random_code_text(rng, n), k)
              for n, k in ((0, 1), (2, 1), (3, 2), (6, 2))]
    texts += ["O1+/U1+", "O1-/U1-", TREFOIL + "O4-/U4-", VTREF + "/U3+O4-U4-/O3+",
              TREFOIL + "/()", VTREF + "/()", KISHINO + "/()", "O1+U1+/()", KISHINO]
    return catalog_and_walk_codes(5, 10, seed=4214) + [parse_gauss(t) for t in texts]


def test_reduced_invariants_match_the_full_matrix_oracles():
    """quaternionic_invariant and gen_alexander, which reduce the relation
    matrix first, against the unreduced oracles: the general engine's
    Study determinant and block-minor gcd of quaternionic_matrix(code)
    and det_laurent2 of alexander_matrix(code)."""
    seen = Counter()
    one = LaurentPoly.const(1)
    for code in _reduction_codes():
        es = edge_structure(code)
        if not code.labels or es.free_circles > 1:
            continue
        ends = es.crossing_edges.values()
        seen["u_out = o_in"] += any(u_out == o_in for o_in, _, _, u_out in ends)
        seen["u_out = u_in"] += any(u_out == u_in for _, _, u_in, u_out in ends)
        seen["links"] += len(code.components) > 1
        seen["10 crossings"] += code.n_crossings == 10
        qmat = quaternionic_matrix(code)
        if es.free_circles:
            square = [row[: len(es.edges)] for row in qmat]
            want = (LaurentPoly({}), _oracle_study(square))
            seen["free circle"] += 1
        else:
            want = (_oracle_study(qmat), _engine_codim1_gcd(qmat))
            alexander = normalize_unit(det_laurent2(alexander_matrix(code)))
            assert gen_alexander(code) == alexander, code
            seen["gcd not 1"] += want[1] != one
        assert quaternionic_invariant(code) == want, code
    assert min(seen.values()) >= 2, seen


def _spy_on_steps(monkeypatch):
    """A list that records which of _rank_one_gcd (step 5) and
    _matrix_minor (step 6) the quaternionic pair calls, by name."""
    taken = []
    for name in ("_rank_one_gcd", "_matrix_minor"):
        def spy(*args, _name=name, _real=getattr(invariants, name)):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(invariants, name, spy)
    return taken


def _code_rows(code):
    return invariants._quaternionic_rows(edge_structure(code))


def test_each_step_of_the_quaternionic_pair_is_taken(monkeypatch):
    """Steps 3-6 of _quaternionic_pair, as the oracles on the reduced rest
    decide them (_pair_step), each settle the gcd at least 5 times over
    random matrices, the reduction codes, and singular matrices of rank
    m - 1 and of rank m - 2 (two dependent rows).  The pair reads kernel
    vectors exactly at step 5, takes M's own minors exactly at step 6,
    and gets the general engine's gcd throughout."""
    taken = _spy_on_steps(monkeypatch)
    mats = _random_matrices(random.Random(4211), 400)
    mats += _singular_matrices(random.Random(4215), 200)
    mats += _singular_matrices(random.Random(4216), 60, dependent=2)
    mats += [quaternionic_matrix(c) for c in _reduction_codes()
             if c.labels and not edge_structure(c).free_circles]
    seen = Counter()
    for qmat in mats:
        rows = invariants._qmat_rows(qmat)
        step, k = _pair_step(rows)
        taken.clear()
        _study, gcd = invariants._quaternionic_pair(rows)
        assert gcd == _engine_codim1_gcd(qmat), qmat
        want = {5: {"_rank_one_gcd"}, 6: {"_matrix_minor"}}.get(step, set())
        assert set(taken) == want, (step, qmat)
        if step != 3:  # without a pivot the rest's own gcd, 0 or not
            assert gcd.is_zero() == (step == 4), qmat
        seen[step] += 1
        seen[f"step {step}, k = {min(k, 3)}"] += 1
    assert min(seen[step] for step in (3, 4, 5, 6)) >= 5, seen
    assert min(seen["step 5, k = 2"], seen["step 5, k = 3"]) >= 5, seen


# The codes of the fuzz workload (200 ops at seed 1) whose relation matrix
# reduces to a 3-row rest of Study determinant 0 and gcd other than 1.
FUZZ_THREE_ROW_RESTS = (
    "U4-U5+O1+U2+O3+U1+O4-O5+O2+U3+",
    "U3+U4-O1+O3+O4-U2+/U1+O2+",
    "O1+O4-O5+U2+O3+U4-U5+U1+O2+U3+",
    "O3-O4+O1+U3-U4+U2+/U1+O2+",
    "O3-O4+O1+U3-U5-O5-U4+U2+/U1+O2+",
    "U4+U5-O3+U3+O4+O5-O1+U2+/U1+O2+",
)
KNOT_K = "O1+U2-U3+O4-O3+U4-U1+O2-"


def test_rank_one_rests_of_three_rows(monkeypatch):
    """Kishino, knot K and the fuzz workload's codes with a 3-row rest of
    rank 2: the gcd is read off kernel vectors (step 5 at k = 3), which
    are kernel vectors of the relation matrix, and it is the minor
    sweep's."""
    taken = _spy_on_steps(monkeypatch)
    for text in (KISHINO, KNOT_K, *FUZZ_THREE_ROW_RESTS):
        code = parse_gauss(text)
        rows = _code_rows(code)
        assert _pair_step(rows) == (5, 3), text
        qmat = quaternionic_matrix(code)
        _check_kernel_vectors(qmat, *_reduce_quaternionic(rows))
        taken.clear()
        assert quaternionic_invariant(code) == (LaurentPoly({}), _sweep_codim1_gcd(qmat))
        assert taken == ["_rank_one_gcd"], text


# The two reduction codes whose rest has a Study determinant other than 0
# and a gcd other than 1, so the gcd is taken from the relation matrix's
# own minors: a 9-crossing knot and a 3-component link.
STEP_SIX_CODES = (
    "U9-U8-U5-O5-O1+O8-U1+U7-U3-O7-U4-U6+O6+O3-U2-O9-O2-O4-",
    "O1+O2+U1+U2+/U3+O4-U4-/O3+",
)


def test_step_six_codes_match_the_minor_sweep(monkeypatch):
    taken = _spy_on_steps(monkeypatch)
    for text, gcd in zip(STEP_SIX_CODES, ("2 + 5*t^2 + 2*t^4", "1 + 2*t^2 + t^4")):
        code = parse_gauss(text)
        assert _pair_step(_code_rows(code))[0] == 6, text
        taken.clear()
        got = quaternionic_invariant(code)
        assert got == _oracle_pair(quaternionic_matrix(code)), text
        assert got[1].render() == gcd and set(taken) == {"_matrix_minor"}, text


def _fold_calls_without_skip(dets):
    """poly_gcd calls of the fold that only stops at 1."""
    g, calls = LaurentPoly({}), 0
    for d in dets:
        g, calls = poly_gcd(g, d), calls + 1
        if g == LaurentPoly.const(1):
            break
    return calls


def test_fold_study_gcd_skips_only_steps_that_cannot_change_it(monkeypatch):
    calls = []
    monkeypatch.setattr(
        invariants, "poly_gcd", lambda a, b: calls.append(1) or poly_gcd(a, b)
    )
    made = unskipped = 0
    for code in _quaternionic_codes(5, 40, seed=34):
        dets = _engine_block_minors(quaternionic_matrix(code))
        calls.clear()
        fold = invariants._fold_study_gcd(LaurentPoly({}), dets)
        assert fold == _fold_gcd(dets), code
        assert len(calls) <= _fold_calls_without_skip(dets), code
        made += len(calls)
        unskipped += _fold_calls_without_skip(dets)
    assert made < unskipped


def _reference_quaternionic_invariant(code):
    """quaternionic_invariant by the general engine on the doubling of
    quaternionic_matrix: its Study determinant and block-minor gcd."""
    free = edge_structure(code).free_circles
    if free >= 2:
        return (LaurentPoly({}), LaurentPoly({}))
    qmat = quaternionic_matrix(code)
    if not code.labels:
        return (LaurentPoly({}), LaurentPoly.const(1))
    if free:
        square = [row[: len(qmat)] for row in qmat]
        return (LaurentPoly({}), _oracle_study(square))
    return (_oracle_study(qmat), _engine_codim1_gcd(qmat))


def _quaternionic_setup_codes():
    """Catalog and walk codes, kinks (one edge is both in-edge and
    out-edge of a crossing, so entries accumulate and cancel), and codes
    with one or two free circles beside crossings."""
    texts = ["O1+U1+", "O1-U1-", "U1+O1+", "O1+U1+O2-U2-", TREFOIL + "/()",
             KISHINO + "/()", "O1+U1+/()", "O1+U2+/U1+O2+/()", HOPF + "/()/()"]
    return catalog_and_walk_codes(5, 8, seed=35) + [parse_gauss(t) for t in texts]


def test_entry_norm_is_the_quaternion_norm():
    """The norm of a sparse entry, squared part by part, is the norm of
    its Quaternion: entries with terms on several powers of t in one
    basis part (cross terms), on one power in several parts, and zero."""
    rng = random.Random(4300)
    for _ in range(200):
        entry = {}
        for _ in range(rng.randint(0, 6)):
            entry[(rng.randint(-3, 3), rng.randrange(4))] = rng.choice((-1, 1)) * rng.randint(1, 9)
        assert invariants._entry_norm(entry) == invariants._quaternion_of(entry).norm(), entry


def test_doubled_setup_matches_setup_of_doubling():
    kinks = square = 0
    for code in _quaternionic_setup_codes():
        es = edge_structure(code)
        if not code.labels or es.free_circles > 1:
            continue
        qmat = quaternionic_matrix(code)
        # drop the zero column of a single free circle: the square case
        dbl = double_matrix([row[: len(es.edges)] for row in qmat])
        want = oracle._gaussian_setup(dbl)
        got = oracle.doubled_setup_of(doubled_setup(code))
        assert got.coeffs.dtype == want.coeffs.dtype == np.int64
        assert np.array_equal(got.coeffs, want.coeffs), code
        assert got[1:] == want[1:], code
        kinks += any(len(set(ce)) < 4 for ce in es.crossing_edges.values())
        square += es.free_circles
    assert kinks and square


def test_quaternionic_invariant_matches_separate_engine_calls():
    for code in _quaternionic_setup_codes():
        want = _reference_quaternionic_invariant(code)
        assert quaternionic_invariant(code) == want, code


def test_quaternionic_two_free_circles():
    study, gcd = quaternionic_invariant(parse_gauss("()/()"))
    assert study.is_zero()
    assert gcd.is_zero()


def test_non_square_quaternionic_matrices_raise():
    """Kishino's relation matrix with a free circle is 8 x 9: it has no
    Study determinant and no codim-1 gcd of its own, so double_matrix,
    study_determinant and codim1_gcd refuse it, as they refuse its 9 x 8
    transpose shape and a ragged matrix, instead of dropping the extra
    column or failing on an index."""
    code = parse_gauss(KISHINO + "/()")
    wide = quaternionic_matrix(code)
    assert (len(wide), len(wide[0])) == (8, 9)
    tall = [list(col) for col in zip(*wide)]
    ragged = [row[:8] for row in wide]
    ragged[3] = ragged[3][:7]
    for qmat in (wide, tall, ragged):
        for fn in (double_matrix, study_determinant, codim1_gcd):
            with pytest.raises(ValueError, match="not square"):
                fn(qmat)
    assert quaternionic_invariant(code) == (LaurentPoly({}), LaurentPoly({}))


# --- atom -------------------------------------------------------------------------


def test_atom_trefoil_orientable_sphere():
    prof = atom_profile(parse_gauss(TREFOIL))
    assert prof.orientable
    assert prof.genus == 0
    assert (prof.a_loops, prof.b_loops) == (2, 3)


def test_atom_virtual_trefoil_nonorientable():
    prof = atom_profile(parse_gauss(VTREF))
    assert not prof.orientable
    assert prof.genus == 1  # one cross-cap


def test_bracket_congruence_values():
    assert bracket_congruence(parse_gauss(TREFOIL)) == 4
    assert bracket_congruence(parse_gauss("O1+U1+")) == 4
    assert bracket_congruence(parse_gauss(VTREF)) == 2


def test_atom_congruence_random(rng):
    for n in range(0, 6):
        for _ in range(10):
            assert atom_congruence_ok(random_code(rng, n))


# --- arrow expansion -----------------------------------------------------------------


def test_arrow_mass_is_power_of_two(rng):
    for n in range(0, 7):
        code = random_code(rng, n)
        exp = arrow_expansion(code)
        assert sum(exp.values()) == 2**n


def test_arrow_expansion_rotation_invariant():
    a = arrow_expansion(parse_gauss(TREFOIL))
    b = arrow_expansion(parse_gauss("U1+O2+U3+O1+U2+O3+"))
    assert a == b


def test_arrow_expansion_max_arrows():
    code = parse_gauss(TREFOIL)
    exp = arrow_expansion(code, max_arrows=1)
    # subsets of size <= 1: the empty diagram plus three singletons
    assert sum(exp.values()) == 4


# --- cross-invariant properties ---------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(small_codes())
def test_invariants_constant_on_canonical_orbit(code):
    canon = canonicalize(code)
    assert f_polynomial(code) == f_polynomial(canon)
    assert normalize_unit(gen_alexander(code)) == normalize_unit(
        gen_alexander(canon)
    )
    assert bracket_congruence(code) == bracket_congruence(canon)
