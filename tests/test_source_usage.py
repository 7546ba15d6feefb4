"""No test-only or dead code in src/: every function and class defined
under src/cmreduce is referred to from src/cmreduce, outside its own body,
or is exported in its module's __all__, or is on the allow-list below;
every export is referred to from src/cmreduce or imported by the
acceptance suite, which states the paper's criteria; every name a
module imports is used in that module or exported; no module imports
mpmath, which only the tests use, as their oracle; LLL and
Fincke-Pohst have one pair of callers, the lattice-vector enumerator; and
a quaternion element is an integer row (d, x): no module defines
`QuatElement`, the `Fraction` element class of the test oracles, and in
quatalg only the reduced norms and the masses are `Fraction`s."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cmreduce"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# read from outside src/: `from_json`, the reader of `classpoly --json`, by
# perfbench/workloads.py and the CI root check
ALLOWED = {"from_json"}


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _references(node: ast.AST, inside: frozenset, out: set) -> None:
    """Add every name `node` refers to outside a definition of that name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    names = []
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.ImportFrom):
        names = [alias.name for alias in node.names]
    out.update(n for n in names if n not in inside)
    for child in ast.iter_child_nodes(node):
        _references(child, inside, out)


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` for each unused definition in the module sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used: set[str] = set()
    for tree in trees.values():
        _references(tree, frozenset(), used)
    found = []
    for name, tree in sorted(trees.items()):
        exported = _exports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            d = node.name
            if d.startswith("__") and d.endswith("__"):
                continue
            if d not in used and d not in exported and d not in ALLOWED:
                found.append(f"{name}.{d}")
    return found


def unused_exports(sources: dict[str, str], acceptance: str) -> list[str]:
    """`module.name` for each name in a module's __all__ that no module
    refers to outside its own body and the acceptance suite does not import."""
    used: set[str] = set()
    for text in sources.values():
        _references(ast.parse(text), frozenset(), used)
    for node in ast.walk(ast.parse(acceptance)):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    found = []
    for name, text in sorted(sources.items()):
        found += [f"{name}.{d}" for d in sorted(_exports(ast.parse(text))) if d not in used]
    return found


def unused_imports(sources: dict[str, str]) -> list[str]:
    """`module.name` for each imported name its module never loads."""
    found = []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used = loaded | _exports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{name}.{bound}")
    return found


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_definition_in_src_is_used_in_src_or_exported():
    assert unreferenced(_sources()) == []


def test_a_function_only_its_own_body_calls_is_flagged():
    sources = _sources()
    sources["quadforms"] += "\n\ndef _planted(n):\n    return _planted(n - 1) if n else 0\n"
    assert unreferenced(sources) == ["quadforms._planted"]


def test_every_export_is_used_in_src_or_by_the_acceptance_suite():
    assert unused_exports(_sources(), ACCEPTANCE.read_text(encoding="utf-8")) == []


def test_an_export_only_tests_use_is_flagged():
    sources = _sources()
    sources["ssenum"] = sources["ssenum"].replace('"enumerate_ss",', '"enumerate_ss",\n    "nu_p",')
    sources["ssenum"] += "\n\ndef nu_p(locus):\n    return [1 / pt.weight for pt in locus.points]\n"
    assert unused_exports(sources, ACCEPTANCE.read_text(encoding="utf-8")) == ["ssenum.nu_p"]


def test_every_name_imported_in_src_is_used_or_exported():
    assert unused_imports(_sources()) == []


def test_an_unused_import_is_flagged():
    sources = _sources()
    sources["ssenum"] += "\n\ndef _planted():\n    from math import comb\n    return 0\n"
    sources["quadforms"] += "\nimport os.path\n"
    assert unused_imports(sources) == ["quadforms.os", "ssenum.comb"]


def mpmath_imports(sources: dict[str, str]) -> list[str]:
    """Each module that imports mpmath or one of its submodules."""
    found = []
    for name, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "mpmath" or m.startswith("mpmath.") for m in modules):
                found.append(name)
                break
    return found


def test_no_module_in_src_imports_mpmath():
    assert mpmath_imports(_sources()) == []


def test_an_mpmath_import_is_flagged():
    sources = _sources()
    sources["classpoly"] += "\n\ndef _planted():\n    from mpmath.libmp import to_fixed\n    return to_fixed\n"
    sources["cli"] += "\nimport mpmath\n"
    assert mpmath_imports(sources) == ["classpoly", "cli"]


# the one lattice-vector enumerator: LLL and Fincke-Pohst serve it alone
ENUMERATOR = {"lattice_shortest_vectors"}


def enumerator_callers(sources: dict[str, str]) -> list[str]:
    """`module.name` for each top-level definition outside ENUMERATOR, or
    `module.<module>` for a module-level statement, that refers to
    `_lll_gram` or `_fincke_pohst`."""
    found = []
    for name, text in sorted(sources.items()):
        for node in ast.parse(text).body:
            label = getattr(node, "name", "<module>")
            if label in ENUMERATOR:
                continue
            used: set[str] = set()
            _references(node, frozenset(), used)
            if {"_lll_gram", "_fincke_pohst"} & used and f"{name}.{label}" not in found:
                found.append(f"{name}.{label}")
    return found


def test_lll_and_fincke_pohst_serve_only_the_enumerator():
    assert enumerator_callers(_sources()) == []


def test_a_third_caller_of_the_enumerator_stages_is_flagged():
    sources = _sources()
    sources["reduction"] += "\n\ndef _planted(G):\n    return _lll_gram(G)\n"
    assert enumerator_callers(sources) == ["reduction._planted"]


def quat_element_definitions(sources: dict[str, str]) -> list[str]:
    """`module.QuatElement` for each module that defines or imports that name."""
    found = []
    for name, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            if "QuatElement" in names:
                found.append(f"{name}.QuatElement")
                break
    return found


def test_no_module_in_src_defines_quat_element():
    assert quat_element_definitions(_sources()) == []


def test_a_quat_element_class_is_flagged():
    sources = _sources()
    sources["quadforms"] += "\n\nclass QuatElement:\n    pass\n"
    sources["reduction"] += "\nQuatElement = tuple\n"
    assert quat_element_definitions(sources) == ["quadforms.QuatElement", "reduction.QuatElement"]


# the scalars of quatalg that stay Fractions: `LeftIdeal.reduced_norm`,
# `IdealClassSet.mass` and the mass sum of `ideal_classes`
FRACTION_USERS = {"LeftIdeal", "IdealClassSet", "ideal_classes"}


def fraction_users(sources: dict[str, str]) -> list[str]:
    """`quatalg.name` for each top-level definition outside FRACTION_USERS,
    or `quatalg.<module>` for a module-level statement other than an
    import, that refers to `Fraction`."""
    found = []
    for node in ast.parse(sources["quatalg"]).body:
        label = getattr(node, "name", "<module>")
        if label in FRACTION_USERS or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        used: set[str] = set()
        _references(node, frozenset(), used)
        if "Fraction" in used and f"quatalg.{label}" not in found:
            found.append(f"quatalg.{label}")
    return found


def test_quatalg_keeps_fractions_for_norms_and_masses_only():
    assert fraction_users(_sources()) == []


def test_a_fraction_coordinate_in_find_optimal_embedding_is_flagged():
    sources = _sources()
    text = sources["quatalg"]
    start = text.index("    return Embedding(disc=disc, v=")
    end = text.index("\n", start)
    planted = "    return Embedding(disc=disc, v=tuple(Fraction(x, gl.den) for x in row), order=order)"
    sources["quatalg"] = text[:start] + planted + text[end:]
    sources["quatalg"] += "\n_HALF = Fraction(1, 2)\n"
    assert fraction_users(sources) == ["quatalg.find_optimal_embedding", "quatalg.<module>"]
