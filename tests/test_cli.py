import hashlib
import re
from pathlib import Path

import pytest

import vknots
from vknots.budget import BudgetError
import vknots.cli
from vknots.cli import (
    _chord_pattern_count,
    _chord_patterns,
    enumerate_single_component,
    main,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, re.M)
    assert vknots.__version__ == version


# --- invariants -----------------------------------------------------------------


def test_invariants_kink_f(capsys):
    rc, out, _ = run(capsys, "invariants", "--code", "O1+U1+", "--f")
    assert rc == 0
    assert "f_polynomial: 1" in out


def test_invariants_kishino_quaternionic(capsys):
    rc, out, _ = run(capsys, "invariants", "--name", "kishino", "--quaternionic")
    assert rc == 0
    assert "study_det: 0" in out
    assert "codim1_gcd: 2 + 5*t^2 + 2*t^4" in out


def test_invariants_trefoil_gen_alexander(capsys):
    rc, out, _ = run(capsys, "invariants", "--name", "trefoil", "--gen-alexander")
    assert rc == 0
    assert "gen_alexander: 0" in out


def test_invariants_all_includes_colorings(capsys):
    rc, out, _ = run(
        capsys,
        "invariants",
        "--code",
        "O1+U2+O3+U1+O2+U3+",
        "--all",
        "--colorings",
        "dihedral-3",
    )
    assert rc == 0
    assert "dihedral-3: 9" in out
    assert "atom:" in out


def test_invariants_flat_parity_matrix(capsys):
    rc, out, _ = run(capsys, "invariants", "--name", "flat-h")
    assert rc == 0
    assert "flat_parity:" in out
    assert "row0: 0 1" in out


def test_invariants_parse_error_exit_2(capsys):
    rc, out, err = run(capsys, "invariants", "--code", "garbage", "--f")
    assert rc == 2
    assert "error:" in err


def test_invariants_unknown_name_exit_2(capsys):
    rc, _, err = run(capsys, "invariants", "--name", "nonesuch", "--f")
    assert rc == 2
    assert "nonesuch" in err


def test_invariants_requires_input(capsys):
    rc, _, err = run(capsys, "invariants", "--f")
    assert rc == 2


def test_invariants_deterministic(capsys):
    rc1, out1, _ = run(capsys, "invariants", "--name", "trefoil", "--all",
                       "--colorings", "dihedral-3")
    rc2, out2, _ = run(capsys, "invariants", "--name", "trefoil", "--all",
                       "--colorings", "dihedral-3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_invariants_out_file(capsys, tmp_path):
    path = tmp_path / "report.txt"
    rc, out, _ = run(capsys, "invariants", "--name", "kink", "--f",
                     "--out", str(path))
    assert rc == 0
    assert out == ""
    assert "f_polynomial: 1" in path.read_text(encoding="utf-8")


# --- virt -----------------------------------------------------------------------


def test_virt_trefoil(capsys):
    rc, out, err = run(capsys, "virt", "--name", "trefoil")
    assert rc == 0
    assert "f_polynomial: 1" in out
    assert "dihedral-3: 9 -> 9" in out
    assert err == ""


def test_virt_unknot(capsys):
    rc, out, _ = run(capsys, "virt", "--code", "()")
    assert rc == 0
    assert "f_polynomial: 1" in out
    assert "dihedral-3: 3 -> 3" in out


def test_virt_warns_on_virtual_input(capsys):
    rc, out, err = run(capsys, "virt", "--name", "virtual-trefoil")
    assert rc == 0
    assert "warning" in err


# --- fuzz -----------------------------------------------------------------------


def test_fuzz_trefoil_ok(capsys):
    rc, out, _ = run(
        capsys, "fuzz", "--name", "trefoil", "--walks", "5", "--steps", "5",
        "--seed", "3", "--max-crossings", "5",
    )
    assert rc == 0
    assert out.startswith("ok:")


def test_fuzz_zero_walks(capsys):
    rc, out, _ = run(capsys, "fuzz", "--code", "O1+U1+", "--walks", "0")
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["fuzz", "--name", "trefoil", "--walks", "-1", "--steps", "3"],
    ["fuzz", "--name", "trefoil", "--walks", "2", "--steps", "-3"],
    ["fuzz", "--name", "trefoil", "--walks", "2", "--max-crossings", "-1"],
    ["tabulate", "--max", "-1"],
])
def test_negative_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be non-negative" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["invariants", "--name", "trefoil", "--colorings", "alexander-0-1-1"],
    ["fuzz", "--name", "trefoil", "--walks", "1", "--steps", "1",
     "--colorings", "alexander-0-1-1"],
])
def test_zero_alexander_modulus_exits_2(capsys, argv):
    # exit 1 is the fuzz divergence code, so a bad modulus must not reach it
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "modulus must be at least 1" in err


def test_fuzz_allow_forbidden_quandle_only(capsys):
    rc, out, _ = run(
        capsys, "fuzz", "--name", "trefoil", "--walks", "4", "--steps", "6",
        "--seed", "1", "--allow-forbidden", "--max-crossings", "5",
    )
    assert rc == 0


# --- tabulate --------------------------------------------------------------------


def test_tabulate_max1_includes_unknot_and_kinks(capsys):
    rc, out, _ = run(capsys, "tabulate", "--max", "1", "--f")
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    codes = {l.split("\t")[0] for l in lines}
    assert "()" in codes
    assert "O1+U1+" in codes
    assert "O1-U1-" in codes


def test_tabulate_max2_has_virtual_trefoil_class(capsys):
    rc, out, _ = run(capsys, "tabulate", "--max", "2", "--gen-alexander")
    assert rc == 0
    nontrivial = [
        l for l in out.splitlines()
        if "\t" in l and not l.endswith("G=0")
    ]
    assert nontrivial  # the virtual trefoil class has nonzero gen_alexander


def test_tabulate_deterministic(capsys):
    rc1, out1, _ = run(capsys, "tabulate", "--max", "2", "--f")
    rc2, out2, _ = run(capsys, "tabulate", "--max", "2", "--f")
    assert out1 == out2


def test_tabulate_budget(monkeypatch):
    monkeypatch.setenv("VKNOTS_BUDGET", "10")
    with pytest.raises(BudgetError) as e:
        enumerate_single_component(2)
    # tabulation is no coloring search: the plain budget error, not a subclass
    assert type(e.value) is BudgetError
    # 1 + 1 * 4 + 3 * 4^2 raw codes up to 2 crossings
    assert str(e.value) == (
        "tabulation would enumerate 53 codes, over the budget of 10 "
        "(override with VKNOTS_BUDGET)"
    )


def test_chord_pattern_count_is_the_double_factorial():
    double_factorials = [1, 1, 3, 15, 105, 945, 10395]  # (2n - 1)!!
    for n, want in enumerate(double_factorials):
        assert len(_chord_patterns(n)) == _chord_pattern_count(n) == want


def test_tabulate_refuses_without_building_patterns(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        vknots.cli, "_chord_patterns", lambda n: calls.append(n) or []
    )
    rc, out, err = run(capsys, "tabulate", "--max", "12")
    assert rc == 2
    assert out == ""
    assert "over the budget" in err
    assert calls == []


def test_tabulate_output_pinned(capsys):
    # SHA-256 of the whole stdout; the --max 4 run is pinned in CI
    rc, out, _ = run(
        capsys, "tabulate", "--max", "3", "--all",
        "--colorings", "dihedral-3", "--colorings", "alexander-5-2-3",
    )
    assert rc == 0
    assert len(out.splitlines()) == 182
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e119d1a1c5f620c6ae09bcc575f99d51b9ff73bae1e042b960800e61854b4967"
    )


def test_tabulate_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("VKNOTS_BUDGET", "10")
    rc, _, err = run(capsys, "tabulate", "--max", "3", "--f")
    assert rc == 2
    assert "budget" in err


def test_invariants_state_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("VKNOTS_STATE_BUDGET", "1")
    rc, out, err = run(capsys, "invariants", "--name", "kishino", "--f")
    assert rc == 2
    assert out == ""
    assert "VKNOTS_STATE_BUDGET" in err


# --- catalog ---------------------------------------------------------------------


def test_catalog_listing(capsys):
    rc, out, _ = run(capsys, "catalog")
    assert rc == 0
    assert "kishino\t" in out
    assert "trefoil\t" in out


def test_catalog_check_passes(capsys):
    rc, out, _ = run(capsys, "catalog", "--check")
    assert rc == 0
    assert "[FAIL]" not in out


def test_catalog_user_file_invalid_code_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("bad\tO1+U2+\n", encoding="utf-8")
    rc, _, err = run(capsys, "catalog", "--file", str(path))
    assert rc == 2
    assert f"error: {path}:1: invalid code for 'bad': MissingPartner(1)" in err


def test_catalog_user_file_duplicate_exit_2(capsys, tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("trefoil\tO1+U1+\n", encoding="utf-8")
    rc, _, err = run(capsys, "catalog", "--file", str(path))
    assert rc == 2
    assert "duplicate" in err
