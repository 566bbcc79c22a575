"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers, record, run, tracing, workloads  # noqa: E402
from vknots import invariants  # noqa: E402
from vknots.catalog import catalog_by_name  # noqa: E402
from vknots.coloring import ColoringBudgetError  # noqa: E402
from vknots.gausscode import parse_gauss  # noqa: E402
from vknots.invariants import alexander_matrix, quaternionic_matrix  # noqa: E402
from vknots.laurent import (  # noqa: E402
    LaurentPoly,
    LaurentPoly2,
    normalize_leadpos,
    normalize_unit,
    poly_gcd,
)
from vknots.matrix import det_bareiss, minor_matrix  # noqa: E402
from vknots.quaternion import GaussianLaurent, double_matrix  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result_line(text):
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_harness_prints():
    gated = [w["name"] for w in BENCHMARK["workloads"]]
    assert gated == [n for n in run.WORKLOAD_NAMES if n in gated]
    assert {"fuzz", "jones"} <= set(gated)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == layers.metric_specs()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_workload_smoke_runs(name, capsys):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.5"]) == 0
    out = _result_line(capsys.readouterr().out)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


def _small_workload(cls, corpus_name, count):
    corpus = workloads.load_corpus(corpus_name)
    items = sorted(corpus["items"], key=lambda it: it["cls"])[:count]
    wl = cls(corpus=dict(corpus, items=items))
    return wl, [wl.prepare(it) for it in items]


def _traced_counts(wl, items):
    tracer, _, wall, failed = run.traced_pass(wl, items)
    assert failed == 0
    metrics = tracer.metrics(wl.entry, len(items), wall, wall)
    return tracer, {k: v for k, (v, unit) in metrics.items() if unit != "s"
                    and k != "trace.coverage"}


@pytest.mark.parametrize("cls, corpus_name", [
    (workloads.Fuzz, "fuzz"), (workloads.Report, "report"),
])
def test_trace_counts_repeat_and_wrappers_are_removed(cls, corpus_name):
    import vknots
    from vknots import fastdet

    wl, items = _small_workload(cls, corpus_name, 1)
    before = {
        (mod.__name__, attr): value
        for mod in tracing._vknots_modules() for attr, value in vars(mod).items()
    }
    tracer, first = _traced_counts(wl, items)
    _, second = _traced_counts(wl, items)
    assert first == second
    assert first["invariants.quaternionic_invariant.calls"] > 0
    assert first["fastdet.det_gaussian_submatrices.minors"] > 0
    assert not tracer.missing
    assert tracing.leftover_wrappers() == []
    after = {
        (mod.__name__, attr): value
        for mod in tracing._vknots_modules() for attr, value in vars(mod).items()
    }
    assert after == before
    assert vknots.bracket is invariants.bracket
    assert invariants.det_gaussian_submatrices is fastdet.det_gaussian_submatrices


def test_trace_wraps_every_binding_and_nests_spans():
    from vknots import fastdet

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert invariants.det_gaussian_many.perfbench_layer \
            == fastdet.det_gaussian_many.perfbench_layer \
            == "fastdet.det_gaussian_many"
    finally:
        tracer.uninstall()
    wl, items = _small_workload(workloads.Report, "report", 1)
    tracer, *_ = run.traced_pass(wl, items)
    names = {s[0]: s for s in tracer.spans}
    study = names["invariants.study_determinant"]
    assert tracer.spans[study[3]][0] == "invariants.quaternionic_invariant"
    totals = tracer.layer_totals()
    for t in totals.values():
        assert t["self_s"] <= t["busy_s"] + 1e-9 or t["calls"] == 0


def test_jones_never_calls_fastdet_or_coloring():
    wl, items = _small_workload(workloads.Jones, "jones", 2)
    _, counts = _traced_counts(wl, items)
    for layer in layers.LAYERS:
        if layer.module in ("fastdet", "coloring"):
            assert counts[f"{layer.name}.calls"] == 0
    assert counts["invariants.bracket.calls"] > 0


def test_gate_rejects_corrupted_answers():
    wl, (item,) = _small_workload(workloads.Report, "report", 1)
    assert run.run_checked(wl, item)[1]
    bad = dict(item, sha256=item["sha256"][::-1])
    assert not run.run_checked(wl, bad)[1]

    fz, (job,) = _small_workload(workloads.Fuzz, "fuzz", 1)
    assert run.run_checked(fz, job)[1]
    assert not run.run_checked(fz, dict(job, distinct_codes=job["distinct_codes"] + 1))[1]


def test_an_exception_counts_as_a_failed_op(monkeypatch):
    wl, (item,) = _small_workload(workloads.Report, "report", 1)

    def over_budget(_item):
        raise ColoringBudgetError("over budget")

    monkeypatch.setattr(wl, "run", over_budget)
    assert run.run_checked(wl, item)[1] is False


def _report_fields(text):
    return dict(line.strip().split(": ", 1) for line in text.splitlines()
                if ": " in line)


def _reference_bracket(code):
    n = len(code.labels)
    total = LaurentPoly({}, "A")
    d = LaurentPoly({2: -1, -2: -1}, "A")
    for choice in product("AB", repeat=n):
        state = dict(zip(code.labels, choice))
        a = choice.count("A")
        total = total + d ** (invariants.loop_count(code, state) - 1) \
            * LaurentPoly.monomial(1, 2 * a - n, "A")
    return total


def test_small_reports_match_the_bareiss_reference():
    """The fast paths behind the recorded digests agree with det_bareiss
    (and a brute-force state sum) on small codes."""
    rng = random.Random(44)
    texts = [record.random_code_text(rng, (2 * n,)) for n in (2, 3, 4)]
    texts.append("O1+U2-U1+O2-U3-O4+O3-U4+")  # kishino
    wl = workloads.Report(corpus=dict(workloads.load_corpus("report"), items=[]))
    g_one = GaussianLaurent.const(1)
    for text in texts:
        code = parse_gauss(text)
        fields = _report_fields(wl.run({"code": code}))
        ga = normalize_unit(det_bareiss(alexander_matrix(code), LaurentPoly2.const(1)))
        assert fields["gen_alexander"] == ga.render(), text
        qmat = quaternionic_matrix(code)
        dbl = double_matrix(qmat)
        study = det_bareiss(dbl, g_one)
        assert study.im.is_zero()
        assert fields["study_det"] == normalize_leadpos(study.re).render(), text
        m = len(qmat)
        gcd = LaurentPoly({})
        for r, c in product(range(m), repeat=2):
            deleted = minor_matrix(dbl, (2 * r, 2 * r + 1), (2 * c, 2 * c + 1))
            minor = det_bareiss(deleted, g_one)
            gcd = poly_gcd(gcd, minor.re)
        assert fields["codim1_gcd"] == gcd.render(), text
        w = sum(code.sign_of(label) for label in code.labels)
        f = _reference_bracket(code) * LaurentPoly.monomial(
            -1 if w % 2 else 1, -3 * w, "A")
        assert fields["f_polynomial"] == f.render(), text


def test_kishino_reference_values():
    wl = workloads.Report(corpus=dict(workloads.load_corpus("report"), items=[]))
    fields = _report_fields(wl.run({"code": catalog_by_name()["kishino"].code}))
    assert (fields["study_det"], fields["codim1_gcd"]) == ("0", "2 + 5*t^2 + 2*t^4")


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
