import random
import re

import pytest
from hypothesis import strategies as st

from vknots.gausscode import parse_gauss, validate_code

# one line per acceptance criterion, emitted after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_code_text(rng, n, allow_multi=False):
    """A random valid single-component code with n crossings (text form)."""
    if n == 0:
        return "()"
    pat = list(range(1, n + 1)) * 2
    rng.shuffle(pat)
    passages = {lab: rng.choice("OU") for lab in range(1, n + 1)}
    signs = {lab: rng.choice("+-") for lab in range(1, n + 1)}
    first = set()
    parts = []
    for lab in pat:
        if lab not in first:
            first.add(lab)
            parts.append(f"{passages[lab]}{lab}{signs[lab]}")
        else:
            other = "U" if passages[lab] == "O" else "O"
            parts.append(f"{other}{lab}{signs[lab]}")
    return "".join(parts)


def random_link_text(rng, n, k, free=0):
    """A random valid code with n crossings on k non-empty components
    (1 <= k <= 2n), followed by `free` crossing-free circles."""
    entries = re.findall(r"[OU]\d+[+-]", random_code_text(rng, n))
    cuts = sorted(rng.sample(range(1, 2 * n), k - 1))
    bounds = [0] + cuts + [2 * n]
    comps = ["".join(entries[a:b]) for a, b in zip(bounds, bounds[1:])]
    return "/".join(comps + ["()"] * free)


def random_code(rng, n):
    code = parse_gauss(random_code_text(rng, n))
    assert not validate_code(code)
    return code


def catalog_and_walk_codes(max_crossings, walks, seed, steps=3):
    """Catalog codes, then the codes visited by `walks` random move walks
    of `steps` steps from random codes, all with at most max_crossings
    crossings."""
    from vknots.catalog import builtin_entries
    from vknots.moves import random_walk

    rng = random.Random(seed)
    codes = [e.code for e in builtin_entries()]
    for _ in range(walks):
        start = random_code(rng, rng.randint(1, max_crossings))
        codes += random_walk(
            start, steps, seed=rng.randrange(10**6), max_crossings=max_crossings
        )[1:]
    return [c for c in codes if c.n_crossings <= max_crossings]


def doubled_setup(code):
    """The determinant engine's QuaternionSetup of the code's quaternionic
    relation matrix without its free-circle columns, built from the
    relation terms (terms landing on one entry, at a kink, add up)."""
    from vknots.gausscode import edge_structure
    from vknots.invariants import _quaternionic_rows, _setup_of

    return _setup_of(_quaternionic_rows(edge_structure(code)))


@pytest.fixture
def rng():
    return random.Random(20240601)


# hypothesis strategy: valid single-component codes with up to 4 crossings
@st.composite
def small_codes(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return random_code(random.Random(seed), n)
