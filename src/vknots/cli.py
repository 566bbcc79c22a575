"""Command-line workbench.

Subcommands: ``invariants`` (report on one diagram), ``virt`` (the
virtualization construction applied to a classical diagram), ``fuzz``
(move-invariance property testing), ``tabulate`` (enumerate small
single-component codes), ``catalog`` (list built-in diagrams and run
their attached assertions).

Exit codes: 0 success, 1 property divergence (fuzz/catalog check),
2 input error or an exceeded work budget.
"""

import argparse
import itertools
import sys
from math import prod

from .budget import BudgetError, read_budget
from .catalog import catalog_by_name, load_catalog
from .gausscode import (
    GaussCodeError,
    canonical_key,
    canonicalize,
    parse_gauss,
    realizability_check,
    render_gauss,
)
from .invariants import (
    exponent_congruence,
    f_polynomial,
    gen_alexander,
    quaternionic_invariant,
)
from .moves import random_walk, virt_construction
from .report import (
    FLAG_NAMES,
    count_colorings,
    invariant_report,
    parse_structure,
    render_report,
    structure_name,
)

BUDGET_ENV_VAR = "VKNOTS_BUDGET"
DEFAULT_TABULATE_BUDGET = 10**6


class InputError(Exception):
    pass


def _resolve_code(args):
    if getattr(args, "code", None) and getattr(args, "name", None):
        raise InputError("give either --code or --name, not both")
    if getattr(args, "code", None):
        return parse_gauss(args.code)
    if not getattr(args, "name", None):
        raise InputError("one of --code or --name is required")
    entries = catalog_by_name(getattr(args, "catalog_file", None))
    if args.name not in entries:
        known = ", ".join(sorted(entries))
        raise InputError(f"unknown catalog name {args.name!r} (have: {known})")
    return entries[args.name].code


def _selected_flags(args):
    if args.all:
        want = set(FLAG_NAMES)
    else:
        want = set()
        if args.f:
            want.add("f")
        if args.gen_alexander:
            want.add("gen_alexander")
        if args.quaternionic:
            want.add("quaternionic")
        if args.atom:
            want.add("atom")
        if args.colorings:
            want.add("colorings")
    if "colorings" in want and not args.colorings:
        want.discard("colorings")
    return want


def _structures(args, default=()):
    specs = args.colorings or list(default)
    return [parse_structure(s) for s in specs]


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


# --- invariants -------------------------------------------------------------


def cmd_invariants(args):
    code = _resolve_code(args)
    want = _selected_flags(args)
    structures = _structures(args)
    pairs = invariant_report(code, want, structures)
    _emit(render_report(pairs), args.out)
    return 0


# --- virt -------------------------------------------------------------------


def cmd_virt(args):
    code = _resolve_code(args)
    if not realizability_check(code):
        print(
            "warning: input code is not realizable; the construction "
            "expects a classical diagram",
            file=sys.stderr,
        )
    virt = virt_construction(code)
    structures = _structures(args, default=("dihedral-3", "dihedral-5"))
    pairs = [
        ("input", render_gauss(code)),
        ("virtualized", render_gauss(virt)),
        ("f_polynomial", f_polynomial(virt).render()),
    ]
    rows = []
    for s in structures:
        if hasattr(s, "table"):
            rows.append(
                (
                    structure_name(s),
                    f"{count_colorings(code, s)} -> {count_colorings(virt, s)}",
                )
            )
        else:
            rows.append((structure_name(s), str(count_colorings(virt, s))))
    if rows:
        pairs.append(("colorings (input -> virtualized)", rows))
    _emit(render_report(pairs), args.out)
    return 0


# --- fuzz -------------------------------------------------------------------


def invariant_snapshot(code, structures, full=True, _memo=None):
    """Hashable invariant tuple used by the fuzz harness.

    With ``full`` false (forbidden moves allowed) only involutory-quandle
    counts are included, since only those survive the over-forbidden move.
    """
    key = canonical_key(code)
    if _memo is not None and key in _memo:
        return _memo[key]
    parts = []
    if full:
        f = f_polynomial(code)
        parts.append(("f", f.render()))
        parts.append(("gen_alexander", gen_alexander(code).render()))
        study, gcd = quaternionic_invariant(code)
        parts.append(("quaternionic", (study.render(), gcd.render())))
        parts.append(("bracket_congruence", exponent_congruence(f)))
    for s in structures:
        if full or hasattr(s, "table"):
            parts.append((structure_name(s), count_colorings(code, s)))
    snap = tuple(parts)
    if _memo is not None:
        _memo[key] = snap
    return snap


def fuzz_walks(code, walks, steps, seed, allow_forbidden, structures,
               max_crossings=None, report=None):
    """Run the invariance fuzz; return the first divergence or None."""
    memo = {}
    full = not allow_forbidden
    base = invariant_snapshot(code, structures, full, memo)
    total_steps = 0
    for w in range(walks):
        trail = random_walk(
            code,
            steps,
            seed=seed + w,
            allow_forbidden=allow_forbidden,
            max_crossings=max_crossings,
        )
        for si, step_code in enumerate(trail[1:], start=1):
            total_steps += 1
            snap = invariant_snapshot(step_code, structures, full, memo)
            if snap != base:
                return {
                    "walk": w,
                    "step": si,
                    "code": render_gauss(step_code),
                    "expected": base,
                    "got": snap,
                }
    if report is not None:
        report["steps"] = total_steps
        report["distinct_codes"] = len(memo)
    return None


def cmd_fuzz(args):
    code = _resolve_code(args)
    structures = _structures(args, default=("dihedral-3", "alexander-5-2-3"))
    stats = {}
    divergence = fuzz_walks(
        code,
        walks=args.walks,
        steps=args.steps,
        seed=args.seed,
        allow_forbidden=args.allow_forbidden,
        structures=structures,
        max_crossings=args.max_crossings,
        report=stats,
    )
    if divergence is None:
        _emit(
            f"ok: {args.walks} walks x {args.steps} steps "
            f"({stats.get('steps', 0)} steps total, "
            f"{stats.get('distinct_codes', 0)} distinct codes), "
            "all invariants constant",
            args.out,
        )
        return 0
    lines = [
        "DIVERGENCE",
        f"walk: {divergence['walk']}",
        f"step: {divergence['step']}",
        f"code: {divergence['code']}",
        f"expected: {divergence['expected']}",
        f"got: {divergence['got']}",
    ]
    _emit("\n".join(lines), args.out)
    return 1


# --- tabulate ----------------------------------------------------------------


def _chord_patterns(n):
    """Cyclic double-occurrence words on n labels, first occurrences in order."""
    out = []

    def rec(seq, nxt, opens):
        if len(seq) == 2 * n:
            if not opens:
                out.append(tuple(seq))
            return
        if nxt <= n:
            rec(seq + [nxt], nxt + 1, opens | {nxt})
        for lab in sorted(opens):
            rec(seq + [lab], nxt, opens - {lab})

    if n == 0:
        return [()]
    rec([1], 2, {1})
    return out


def _chord_pattern_count(n):
    """len(_chord_patterns(n)) without building them: the matchings of 2n
    points, (2n - 1)!! (1 for n = 0)."""
    return prod(range(1, 2 * n, 2))


def enumerate_single_component(max_crossings, budget=None):
    """Canonical representatives of single-component codes up to the bound.

    Deduplicates by canonical form (codes, not knot types).  Raises
    BudgetError when the raw enumeration would exceed the budget.
    """
    if budget is None:
        budget = read_budget(BUDGET_ENV_VAR, DEFAULT_TABULATE_BUDGET)
    raw = sum(_chord_pattern_count(n) * 4**n for n in range(max_crossings + 1))
    if raw > budget:
        raise BudgetError(
            f"tabulation would enumerate {raw} codes, over the budget of "
            f"{budget} (override with {BUDGET_ENV_VAR})"
        )
    seen = {}
    for n in range(max_crossings + 1):
        for pat in _chord_patterns(n):
            for passages in itertools.product("OU", repeat=n):
                first = set()
                entries = []
                for lab in pat:
                    if lab not in first:
                        first.add(lab)
                        entries.append((passages[lab - 1], lab))
                    else:
                        entries.append(
                            ("U" if passages[lab - 1] == "O" else "O", lab)
                        )
                for signs in itertools.product("+-", repeat=n):
                    text = "".join(
                        f"{p}{lab}{signs[lab - 1]}" for p, lab in entries
                    )
                    code = parse_gauss(text if text else "()")
                    key = canonical_key(code)
                    if key not in seen:
                        seen[key] = canonicalize(code)
    return [seen[k] for k in sorted(seen)]


def cmd_tabulate(args):
    want = _selected_flags(args)
    structures = _structures(args)
    codes = enumerate_single_component(args.max)
    lines = [
        "# single-component signed Gauss codes up to "
        f"{args.max} crossings, deduplicated by canonical code form only "
        "(distinct lines may still be equivalent diagrams)"
    ]
    for code in codes:
        fields = [render_gauss(code)]
        f = f_polynomial(code) if want & {"f", "atom"} else None
        if "f" in want:
            fields.append(f"f={f.render()}")
        if "gen_alexander" in want:
            fields.append(f"G={gen_alexander(code).render()}")
        if "quaternionic" in want:
            study, gcd = quaternionic_invariant(code)
            fields.append(f"Q=({study.render()}; {gcd.render()})")
        if "atom" in want:
            fields.append(f"atom_congruence={exponent_congruence(f)}")
        if "colorings" in want:
            for s in structures:
                fields.append(
                    f"{structure_name(s)}={count_colorings(code, s)}"
                )
        lines.append("\t".join(fields))
    _emit("\n".join(lines), args.out)
    return 0


# --- catalog ------------------------------------------------------------------


def cmd_catalog(args):
    entries = load_catalog(args.file)
    lines = []
    failures = 0
    for e in entries:
        lines.append(f"{e.name}\t{render_gauss(e.code)}\t{e.note}")
        if args.check:
            for desc, ok, detail in e.run_assertions():
                status = "ok" if ok else "FAIL"
                lines.append(f"  [{status}] {desc}: {detail}")
                if not ok:
                    failures += 1
    _emit("\n".join(lines), args.out)
    return 1 if failures else 0


# --- parser -------------------------------------------------------------------


def _count(text):
    """A non-negative int option value (walks, steps, crossings)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _add_code_args(p):
    p.add_argument("--code", help="signed oriented Gauss code")
    p.add_argument("--name", help="built-in catalog entry name")
    p.add_argument(
        "--catalog-file", help="user catalog file (name<TAB>gauss-code lines)"
    )


def _add_selection_args(p):
    p.add_argument("--f", action="store_true", help="f-polynomial")
    p.add_argument("--gen-alexander", action="store_true",
                   help="generalized Alexander polynomial")
    p.add_argument("--quaternionic", action="store_true",
                   help="quaternionic biquandle pair")
    p.add_argument("--atom", action="store_true", help="atom profile")
    p.add_argument("--all", action="store_true", help="every invariant")


def _add_colorings_arg(p):
    p.add_argument(
        "--colorings",
        action="append",
        metavar="STRUCTURE",
        help="coloring structure: dihedral-N, alexander-P-S-T, "
        "biquandle:PATH, or quandle:PATH (repeatable)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vknots",
        description="Exact-arithmetic workbench for virtual knots and links "
        "given as signed oriented Gauss codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariant report for one diagram")
    _add_code_args(p)
    _add_selection_args(p)
    _add_colorings_arg(p)
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("virt", help="virtualization construction report")
    _add_code_args(p)
    _add_colorings_arg(p)
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_virt)

    p = sub.add_parser("fuzz", help="move-invariance property fuzzing")
    _add_code_args(p)
    _add_colorings_arg(p)
    p.add_argument("--walks", type=_count, default=50)
    p.add_argument("--steps", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-forbidden", action="store_true",
                   help="include the over-forbidden move "
                   "(only quandle counts are then asserted)")
    p.add_argument("--max-crossings", type=_count, default=6,
                   help="cap diagram growth during walks")
    p.add_argument("--out", help="write the summary to this path")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("tabulate", help="enumerate small single-component codes")
    p.add_argument("--max", type=_count, required=True,
                   help="maximum number of crossings")
    _add_selection_args(p)
    _add_colorings_arg(p)
    p.add_argument("--out", help="write the table to this path")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("catalog", help="list built-in diagrams")
    p.add_argument("--file", help="user catalog file to append")
    p.add_argument("--check", action="store_true",
                   help="run every entry's attached assertions")
    p.add_argument("--out", help="write the listing to this path")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GaussCodeError, InputError, BudgetError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
