import itertools
import os

import pytest

from vknots.coloring import (
    BUDGET_ENV_VAR,
    ColoringBudgetError,
    FiniteBiquandle,
    FiniteQuandle,
    check_biquandle_axioms,
    count_biquandle_colorings,
    count_iq_colorings,
    is_strong_biquandle,
    load_biquandle_file,
    load_quandle_file,
    make_alexander_biquandle_modp,
    make_dihedral_quandle,
)
from vknots.gausscode import GaussCodeError, edge_structure, parse_gauss

from conftest import catalog_and_walk_codes, random_code

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREF = "O1+O2+U1+U2+"


# --- constructions and axioms ---------------------------------------------------


def test_alexander_biquandle_axiom_clean():
    bq = make_alexander_biquandle_modp(5, 2, 3)
    assert check_biquandle_axioms(bq) == []


def test_alexander_biquandle_trivial_action():
    bq = make_alexander_biquandle_modp(3, 1, 1)
    assert bq.up[2][1] == 2  # a^b = a when s = t = 1
    assert check_biquandle_axioms(bq) == []


def test_alexander_biquandle_rejects_nonunit():
    with pytest.raises(ValueError):
        make_alexander_biquandle_modp(5, 0, 3)
    with pytest.raises(ValueError):
        make_alexander_biquandle_modp(3, 1, 3)  # t = 0 mod 3


def test_size_one_biquandle():
    triv = FiniteBiquandle(1, ((0,),), ((0,),), ((0,),), ((0,),))
    assert check_biquandle_axioms(triv) == []
    assert is_strong_biquandle(triv)


def test_corruption_detected_and_named():
    bq = make_alexander_biquandle_modp(5, 2, 3)
    up = [list(r) for r in bq.up]
    up[1][2] = (up[1][2] + 1) % 5
    bad = FiniteBiquandle(5, tuple(tuple(r) for r in up), bq.down, bq.upbar,
                          bq.downbar)
    violations = check_biquandle_axioms(bad)
    assert violations
    assert all(v.startswith("axiom") for v in violations)


def test_alexander_biquandle_is_strong():
    assert is_strong_biquandle(make_alexander_biquandle_modp(5, 2, 3))


def test_table_range_enforced():
    with pytest.raises(ValueError):
        FiniteBiquandle(2, ((0, 2), (0, 1)), ((0, 0),) * 2, ((0, 0),) * 2,
                        ((0, 0),) * 2)


def test_dihedral_quandle_properties():
    for n in range(1, 13):
        q = make_dihedral_quandle(n)
        assert q.involutory
        for a in range(n):
            assert q.table[a][a] == a
            for b in range(n):
                assert q.table[q.table[a][b]][b] == a
    assert make_dihedral_quandle(3).table[0][1] == 2


# --- coloring counts --------------------------------------------------------------


def test_unknot_counts_equal_carrier():
    bq = make_alexander_biquandle_modp(7, 3, 2)
    assert count_biquandle_colorings(parse_gauss("()"), bq) == 7
    assert count_biquandle_colorings(parse_gauss("O1+U1+"), bq) == 7
    assert count_iq_colorings(parse_gauss("()"), make_dihedral_quandle(3)) == 3


def test_trefoil_dihedral_counts():
    code = parse_gauss(TREFOIL)
    assert count_iq_colorings(code, make_dihedral_quandle(3)) == 9
    assert count_iq_colorings(code, make_dihedral_quandle(5)) == 5


def test_trefoil_dihedral3_brute_force_oracle():
    # arcs are 3; relation under-out = under-in |> over at each crossing
    q = make_dihedral_quandle(3)
    from vknots.gausscode import edge_structure

    code = parse_gauss(TREFOIL)
    es = edge_structure(code)
    n_arcs = len(es.arcs)
    count = 0
    for assign in itertools.product(range(3), repeat=n_arcs):
        ok = True
        for label, (over, u_in, u_out) in es.crossing_arcs.items():
            if assign[u_out] != q.table[assign[u_in]][assign[over]]:
                ok = False
                break
        count += ok
    assert count == 9
    assert count_iq_colorings(code, q) == count


def test_iq_rejects_non_involutory():
    table = tuple(tuple((b + 1) % 3 for b in range(3)) for _ in range(3))
    q = FiniteQuandle(3, table, involutory=False)
    with pytest.raises(ValueError):
        count_iq_colorings(parse_gauss(TREFOIL), q)


def test_biquandle_counts_power_of_p(rng):
    bq = make_alexander_biquandle_modp(5, 2, 3)
    for n in range(0, 5):
        code = random_code(rng, n)
        count = count_biquandle_colorings(code, bq)
        assert count >= 5  # constant labelings always color
        while count % 5 == 0:
            count //= 5
        assert count == 1


def test_constant_labelings_always_color(rng):
    structures = [
        make_alexander_biquandle_modp(3, 2, 2),
        make_alexander_biquandle_modp(7, 3, 5),
    ]
    for n in range(0, 4):
        code = random_code(rng, n)
        for bq in structures:
            assert count_biquandle_colorings(code, bq) >= bq.n
        assert count_iq_colorings(code, make_dihedral_quandle(4)) >= 4


def test_free_circle_multiplies_counts():
    bq = make_alexander_biquandle_modp(5, 2, 3)
    base = count_biquandle_colorings(parse_gauss(TREFOIL), bq)
    with_circle = count_biquandle_colorings(parse_gauss(TREFOIL + "/()"), bq)
    assert with_circle == 5 * base


def test_budget_exceeded(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "2")
    bq = make_alexander_biquandle_modp(5, 2, 3)
    with pytest.raises(ColoringBudgetError):
        count_biquandle_colorings(parse_gauss(TREFOIL), bq)


def test_budget_env_must_be_integer(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
    bq = make_alexander_biquandle_modp(3, 1, 1)
    with pytest.raises(ValueError):
        count_biquandle_colorings(parse_gauss("()"), bq)


# --- differential test against the closure-based search -------------------------
#
# The search the relation-table counter replaced: constraints are closures
# returning False, True or ("force", var, value), and every assignment
# re-runs every constraint.  It returns (count, search nodes); the node
# count is the smallest VKNOTS_COLOR_BUDGET under which it passes.


def _closure_search_count(n_vars, q, constraints, var_constraints):
    assign = [None] * n_vars
    nodes = 0

    def propagate(trail):
        queue = list(range(len(constraints)))
        while queue:
            ci = queue.pop()
            res = constraints[ci](assign)
            if res is False:
                return False
            if res is True:
                continue
            _tag, var, value = res
            if assign[var] is None:
                assign[var] = value
                trail.append(var)
                queue.extend(var_constraints[var])
            elif assign[var] != value:
                return False
        return True

    def recurse():
        nonlocal nodes
        nodes += 1
        try:
            var = assign.index(None)
        except ValueError:
            return 1
        total = 0
        for value in range(q):
            assign[var] = value
            trail = []
            if propagate(trail):
                total += recurse()
            for v in trail:
                assign[v] = None
            assign[var] = None
        return total

    if not propagate([]):
        return 0, nodes
    return recurse(), nodes


def _closure_relation(out_var, in1, in2, table):
    def check(assign):
        a, b = assign[in1], assign[in2]
        if a is None or b is None:
            return True
        want = table[a][b]
        got = assign[out_var]
        if got is None:
            return ("force", out_var, want)
        return got == want

    return check


def _closure_count(code, struct):
    """(count, smallest passing budget) from the closure-based search."""
    es = edge_structure(code)
    if isinstance(struct, FiniteQuandle):
        n_vars = len(es.arcs)
        rels = [
            (u_out, u_in, over, struct.table)
            for label, (over, u_in, u_out) in sorted(es.crossing_arcs.items())
        ]
    else:
        n_vars = len(es.edges)
        rels = []
        for label, (o_in, o_out, u_in, u_out) in sorted(es.crossing_edges.items()):
            pos = code.sign_of(label) > 0
            rels.append((u_out, u_in, o_in, struct.up if pos else struct.upbar))
            rels.append((o_out, o_in, u_in, struct.down if pos else struct.downbar))
    constraints = [_closure_relation(*rel) for rel in rels]
    var_constraints = [[] for _ in range(n_vars)]
    for ci, rel in enumerate(rels):
        for var in set(rel[:3]):
            var_constraints[var].append(ci)
    count, nodes = _closure_search_count(n_vars, struct.n, constraints, var_constraints)
    return count * struct.n**es.free_circles, nodes


DIFFERENTIAL_STRUCTURES = [
    make_dihedral_quandle(3),
    make_dihedral_quandle(4),
    make_dihedral_quandle(5),
    make_dihedral_quandle(6),
    make_alexander_biquandle_modp(5, 2, 3),
    make_alexander_biquandle_modp(7, 3, 2),
    make_alexander_biquandle_modp(3, 1, 2),
]


def test_counts_and_budgets_match_closure_search(monkeypatch):
    codes = catalog_and_walk_codes(6, 20, seed=51)
    assert max(c.n_crossings for c in codes) == 6
    for code in codes:
        for struct in DIFFERENTIAL_STRUCTURES:
            counter = (
                count_iq_colorings
                if isinstance(struct, FiniteQuandle)
                else count_biquandle_colorings
            )
            want, nodes = _closure_count(code, struct)
            monkeypatch.setenv(BUDGET_ENV_VAR, str(nodes))
            assert counter(code, struct) == want, (code, struct.name)
            monkeypatch.setenv(BUDGET_ENV_VAR, str(nodes - 1))
            with pytest.raises(ColoringBudgetError):
                counter(code, struct)


# --- table files ------------------------------------------------------------------


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_biquandle_file_roundtrip(tmp_path):
    bq = make_alexander_biquandle_modp(3, 2, 2)
    blocks = []
    for table in (bq.up, bq.down, bq.upbar, bq.downbar):
        blocks.extend(" ".join(str(v) for v in row) for row in table)
    path = _write(tmp_path / "bq.txt", "3\n" + "\n".join(blocks) + "\n")
    loaded = load_biquandle_file(path)
    assert (loaded.up, loaded.down, loaded.upbar, loaded.downbar) == (
        bq.up,
        bq.down,
        bq.upbar,
        bq.downbar,
    )
    assert check_biquandle_axioms(loaded) == []


def test_quandle_file_roundtrip(tmp_path):
    q = make_dihedral_quandle(3)
    rows = "\n".join(" ".join(str(v) for v in row) for row in q.table)
    path = _write(tmp_path / "q.txt", f"3\n{rows}\ninvolutory\n")
    loaded = load_quandle_file(path)
    assert loaded.table == q.table
    assert loaded.involutory


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n0\n",
        "2\n0 0\n0 0\n0 0\n0 0\n0 0\n0 0\n0 0\n",  # truncated fourth table
        "1\n0\n0\n0\n0\nextra\n",
    ],
)
def test_biquandle_file_errors(tmp_path, text):
    path = _write(tmp_path / "bad.txt", text)
    with pytest.raises(GaussCodeError):
        load_biquandle_file(path)


def test_quandle_file_flag_required(tmp_path):
    path = _write(tmp_path / "q.txt", "1\n0\n")
    with pytest.raises(GaussCodeError):
        load_quandle_file(path)
