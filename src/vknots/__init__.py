"""Exact-arithmetic workbench for virtual knots and links.

Diagrams are signed oriented Gauss codes; every computation is exact
(integer / Laurent-polynomial arithmetic, no floating point).
"""

from .budget import BudgetError
from .catalog import CatalogEntry, builtin_entries, catalog_by_name, load_catalog
from .coloring import (
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
from .gausscode import (
    FlatCode,
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
from .invariants import (
    AtomProfile,
    arrow_expansion,
    atom_congruence_ok,
    atom_profile,
    bracket,
    bracket_congruence,
    f_polynomial,
    gen_alexander,
    jones_t_form,
    loop_count,
    quaternionic_invariant,
    writhe,
)
from .laurent import LaurentPoly, LaurentPoly2, normalize_leadpos, normalize_unit, poly_gcd
from .matrix import det_bareiss, det_cofactor
from .moves import (
    MOVE_KINDS,
    MoveSite,
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
from .quaternion import GaussianLaurent, Quaternion, double_matrix

__version__ = "0.1.0"
