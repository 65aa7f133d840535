"""The public surface of ncb: what it exports, what it no longer has, the
names the benchmark calls, that its modules import nothing from the
tests and nothing they leave unused, and the bounds of its memos."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import ncb
from ncb import checks, formulas

PACKAGE = Path(ncb.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"

PUBLIC = [
    "AnnulusShape",
    "AnnulusTuple",
    "BPartition",
    "FinitePoset",
    "IntPolynomial",
    "PairStats",
    "SignedPermutation",
    "adjusted_orbits",
    "adjusted_orbits_inverse",
    "annulus_cell_count",
    "annulus_connectivity_count",
    "annulus_total",
    "annulus_tuples",
    "binom",
    "boundary_permutation",
    "connectivity",
    "decode_annulus",
    "decode_multichain",
    "encode_annulus",
    "encode_multichain",
    "genus_defect",
    "interval_perms",
    "kreweras",
    "max_chains",
    "meet_q1",
    "mobius_annulus",
    "mobius_disc",
    "mobius_q1",
    "nc_b_annulus",
    "nc_b_disc",
    "nc_b_multi",
    "pair_stats",
    "rank_coefficient",
    "rank_gen",
    "rank_gen_cells",
    "rank_gen_compact",
    "rank_gen_disc",
    "zeta_poly",
    "zeta_poly_q1",
]

# The references now in tests/oracles.py (the type-A side, the term-by-term
# polynomial product, the three-circle size, the token-string codec with
# the parenthesis strings that front it, and the hypersum cap tuples'
# generator), and wrappers and copies that were deleted.
RETIRED = [
    "ClassicalPartition",
    "DiscCounts",
    "OrbitStats",
    "ParenString",
    "_block_ends",
    "_boundary_tokens",
    "_check_token",
    "_circle_strings",
    "_compositions",
    "_cover_pairs",
    "_desk_size",
    "_down_rows",
    "_filled",
    "_hold",
    "_interval_images",
    "_left_shifts",
    "_made",
    "_orbit_stats",
    "_paren_flags",
    "_paren_type",
    "_place_maps",
    "_places",
    "_read_blocks",
    "_right_shifts",
    "_rotate",
    "_running",
    "_running_order",
    "_set_partitions",
    "_split_orbits",
    "abs_map",
    "canonical_block_order",
    "catalan",
    "disc_counts",
    "joint_orbit_count",
    "kreweras_perm",
    "legal_left_shifts",
    "legal_right_shifts",
    "multi3_total",
    "narayana",
    "nc_a",
    "orbit_stats",
    "read_partition",
    "schoolbook_mul",
]


def test_all_is_the_pinned_sorted_list():
    "ncb exports exactly these names, sorted, and binds every one."
    assert ncb.__all__ == PUBLIC == sorted(PUBLIC)
    assert all(hasattr(ncb, name) for name in PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_retired_names_are_gone(module):
    "No retired name is importable from ncb or its modules, or named in them."
    mod = ncb if module == "__init__" else importlib.import_module(f"ncb.{module}")
    classes = [c for c in vars(mod).values() if isinstance(c, type)]
    for name in RETIRED:
        assert not hasattr(mod, name), name
        assert not [c for c in classes if hasattr(c, name)], name
    source = (PACKAGE / f"{module}.py").read_text()
    named = [n for n in RETIRED if re.search(rf"\b{n}\b", source)]
    assert named == []


def imports(tree):
    "(module, bound name) for every import statement of a module's tree."
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.module or "", alias.asname or alias.name


@pytest.mark.parametrize("module", MODULES)
def test_no_test_imports_and_no_unused_imports(module):
    "Every import of a package module is used and none reaches into the tests."
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(ncb.__all__) if module == "__init__" else set()
    test_modules = {"tests", *(path.stem for path in TESTS.glob("*.py"))}
    for source, name in imports(tree):
        assert source.split(".")[0] not in test_modules, (module, source)
        assert name in used | exported, f"{module}.py imports {name} unused"


def assigned(path, name):
    "The literal a module assigns to name at top level, read without importing it."
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_the_benchmark_finds_the_names_it_calls():
    """The package still has every name `bench/` calls. A rename there fails
    bench operations, not a test, so ROADMAP item 2's walk-cover step,
    which would remove `masks=` and `pair_mask` (item 13), must change
    `bench/worker.py` first."""
    families = assigned(BENCH / "workloads.py", "VERIFY_FAMILIES")
    assert families and families == [n for n in checks.FAMILIES if n in families]
    closed_forms = assigned(BENCH / "worker.py", "_CLOSED_FORMS")
    assert closed_forms and [n for n in closed_forms if not hasattr(formulas, n)] == []
    assert "masks" in inspect.signature(ncb.FinitePoset).parameters
    assert hasattr(ncb.BPartition, "pair_mask")


# The memos allowed no bound: the shape-keyed caches that DESK_BOUND
# limits, and the argument parser, built once.  The walk memo
# `enumeration._interval` takes any bound, so it keeps only the walk in hand.
UNBOUNDED = {
    "checks._pair_tallies",
    "checks._walk_counts",
    "cli._build_parser",
    "enumeration._poset_for_sizes",
    "enumeration._preimages",
}


MEMO_MAKERS = {"lru_cache", "functools.lru_cache", "cache", "functools.cache"}


def makes_memo(node):
    "Whether a decorator or an assigned value is a memo maker or its call."
    while isinstance(node, ast.Call):
        node = node.func
    return ast.unparse(node) in MEMO_MAKERS


def memos():
    """Every memo a package module makes at module or class level, found by
    an AST scan (decorated functions and assigned calls), as the live
    object, by qualified name."""
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"ncb.{module}")
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            owner, nodes = mod, [node]
            if isinstance(node, ast.ClassDef):
                owner, nodes = getattr(mod, node.name), node.body
            for n in nodes:
                if isinstance(n, ast.FunctionDef) and any(map(makes_memo, n.decorator_list)):
                    name = n.name
                elif isinstance(n, ast.Assign) and makes_memo(n.value):
                    name = ast.unparse(n.targets[0])
                else:
                    continue
                found[f"{module}.{name}"] = inspect.getattr_static(owner, name)
    return found


def test_every_unbounded_memo_is_a_shape_cache_or_the_parser():
    """A memo with no bound grows with its traffic and shows in peak RSS; only
    the shape-keyed caches and the parser may have none, the codec's
    layout memo stays small, and the walk memo holds one walk."""
    inventory = {name: memo.cache_parameters()["maxsize"] for name, memo in memos().items()}
    unbounded = {name for name, bound in inventory.items() if bound is None}
    assert unbounded == UNBOUNDED, inventory
    assert max(b for b in inventory.values() if b is not None) <= 512, inventory
    assert inventory["bijection._layout"] == 16
    assert inventory["enumeration._interval"] == 1
