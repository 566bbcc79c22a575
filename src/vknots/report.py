"""Structured-text invariant reports with deterministic serialization.

A report is a list of (key, value) pairs where a value may itself be a
list of pairs (a nested section).  Serialization is plain indented
``key: value`` text with keys in insertion order, which is fixed by
construction, so identical inputs and flags give byte-identical output.
"""

from .coloring import (
    count_biquandle_colorings,
    count_iq_colorings,
    load_biquandle_file,
    load_quandle_file,
    make_alexander_biquandle_modp,
    make_dihedral_quandle,
)
from .gausscode import (
    canonicalize,
    inter_component_parity,
    realizability_check,
    render_gauss,
)
from .invariants import (
    atom_profile,
    exponent_congruence,
    f_polynomial,
    gen_alexander,
    quaternionic_invariant,
    writhe,
)

FLAG_NAMES = ("f", "gen_alexander", "quaternionic", "atom", "colorings")


def parse_structure(spec):
    """Build a coloring structure from a CLI spec string.

    Accepted forms: ``dihedral-N``, ``alexander-P-S-T`` (mod-p linear
    biquandle), ``biquandle:PATH``, ``quandle:PATH``.
    """
    if spec.startswith("biquandle:"):
        return load_biquandle_file(spec[len("biquandle:"):])
    if spec.startswith("quandle:"):
        return load_quandle_file(spec[len("quandle:"):])
    parts = spec.split("-")
    if parts[0] == "dihedral" and len(parts) == 2:
        return make_dihedral_quandle(int(parts[1]))
    if parts[0] == "alexander" and len(parts) == 4:
        return make_alexander_biquandle_modp(*(int(x) for x in parts[1:]))
    raise ValueError(
        f"unknown coloring structure {spec!r}; expected dihedral-N, "
        "alexander-P-S-T, biquandle:PATH, or quandle:PATH"
    )


def structure_name(struct):
    return struct.name or f"size-{struct.n}"


def count_colorings(code, struct):
    if hasattr(struct, "table"):
        return count_iq_colorings(code, struct)
    return count_biquandle_colorings(code, struct)


def invariant_report(code, want, structures=()):
    """Build the (key, value) pair list for a report.

    ``want`` is a set of FLAG_NAMES members; ``structures`` is a list of
    coloring structures (used when 'colorings' is selected).
    """
    canon = canonicalize(code)
    pairs = [
        ("code", render_gauss(code)),
        ("canonical", render_gauss(canon)),
        ("crossings", str(code.n_crossings)),
        ("components", str(len(code.components))),
        ("writhe", str(writhe(code))),
        ("realizable", str(realizability_check(code)).lower()),
    ]
    n_comp = len(code.components)
    if n_comp > 1:
        rows = []
        for i in range(n_comp):
            row = " ".join(
                "0" if i == j else str(inter_component_parity(code, i, j))
                for j in range(n_comp)
            )
            rows.append((f"row{i}", row))
        pairs.append(("flat_parity", rows))
    # the atom section's bracket congruence reads the f-polynomial, which
    # is the bracket times a unit monomial
    f = f_polynomial(code) if want & {"f", "atom"} else None
    if "f" in want:
        pairs.append(("f_polynomial", f.render()))
    if "gen_alexander" in want:
        pairs.append(("gen_alexander", gen_alexander(code).render()))
    if "quaternionic" in want:
        study, gcd = quaternionic_invariant(code)
        pairs.append(
            ("quaternionic", [("study_det", study.render()),
                              ("codim1_gcd", gcd.render())])
        )
    if "atom" in want:
        prof = atom_profile(code)
        pairs.append(
            (
                "atom",
                [
                    ("genus", str(prof.genus)),
                    ("orientable", str(prof.orientable).lower()),
                    ("a_loops", str(prof.a_loops)),
                    ("b_loops", str(prof.b_loops)),
                    ("bracket_congruence", str(exponent_congruence(f))),
                ],
            )
        )
    if "colorings" in want:
        rows = [
            (structure_name(s), str(count_colorings(code, s)))
            for s in structures
        ]
        pairs.append(("colorings", rows))
    return pairs


def render_report(pairs, indent=0):
    lines = []
    pad = "  " * indent
    for key, value in pairs:
        if isinstance(value, list):
            lines.append(f"{pad}{key}:")
            lines.append(render_report(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)
