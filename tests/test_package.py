"""Properties of the package source itself."""

import ast
import collections
import importlib
import importlib.util
import pathlib
import re

import monhom
from monhom.gamma_chain import COHOMOLOGICAL, HOMOLOGICAL, build_complex
from monhom.hc_modules import LEFT, RIGHT, trivial_module
from monhom.monoids import cyclic_group

PACKAGE = pathlib.Path(monhom.__file__).parent
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
GOLDEN = PERFBENCH / "golden.py"
README = pathlib.Path(__file__).parent.parent / "README.md"


def test_no_bare_assert_in_the_package():
    # asserts vanish under python -O; invariants raise typed errors instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(PACKAGE.glob("*.py")), "package sources not found"
    assert not found, f"bare assert statements: {found}"


def test_no_fractions_in_the_package():
    # the group algebra and the Eulerian idempotents are integral
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert list(PACKAGE.glob("*.py")), "package sources not found"
    assert not found, f"fractions imported: {found}"


def _tracer_value(tree, name):
    return next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name])


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these names from outside the program
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    layers = ast.literal_eval(_tracer_value(tree, "LAYERS"))
    assert layers, "no traced layers found"
    missing = [f"{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"monhom.{module}"), name, None))]
    assert not missing, f"traced names missing from monhom: {missing}"
    # and its size metrics (cells, nnz) hang on traced names
    traced = {f"{module}.{name}" for module, names in layers.items()
              for name in names}
    sized = [ast.literal_eval(key)
             for key in _tracer_value(tree, "SIZES").keys]
    assert sized and set(sized) <= traced, sized


def test_golden_imports_resolve():
    # the benchmark's answer check imports these names from the program
    tree = ast.parse(GOLDEN.read_text(encoding="utf-8"), str(GOLDEN))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "monhom"
                for alias in node.names]
    assert imported, "no monhom imports found"
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"names the benchmark imports are missing: {missing}"


def test_tracer_sizes_built_complexes():
    # the benchmark's size metric for build_complex reads the complex's
    # accessors; run it on both directions
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    monoid = cyclic_group(2)
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        cx = build_complex(monoid, trivial_module(monoid, side), 3, direction)
        sizes = tracer._complex_sizes((), {}, cx)
        assert sizes == {"basis": 15, "nnz": 17, "degenerate": 11}, direction


def _names(tree):
    """Every identifier the tree names outside a definition's own name:
    variables, attributes, imported names and identifier strings, such as
    the entries of __all__ and the tracer's tables."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_definition_has_a_caller():
    # a function or class that only its own tests name is dead weight;
    # tabulated_to_payload writes the input files of the CLI tests
    exempt = {"tabulated_to_payload"}
    sources = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sources}
    named = collections.Counter(name for tree in trees.values()
                                for name in _names(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__")
                                  and name.endswith("__")):
                continue
            inside = sum(1 for n in _names(node) if n == name)
            if named[name] == inside:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert len(trees) > 1, "sources not found"
    assert not unused, f"defined but named nowhere else: {unused}"


def _lru_cached(node):
    return any(getattr(target, "attr", getattr(target, "id", None))
               in ("lru_cache", "cache")
               for target in (getattr(dec, "func", dec)
                              for dec in node.decorator_list))


def test_every_process_cache_is_cleared_around_each_test(process_caches):
    # a table kept for the process that no test clears carries a broken
    # routine's output into the tests after it; the CLI's parser is no
    # table of results
    exempt = {("cli", "_build_parser")}
    cached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        cached.update((path.stem, node.name) for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and _lru_cached(node))
    assert exempt <= cached
    assert cached - exempt == {(f.__module__.rpartition(".")[2], f.__name__)
                               for f in process_caches}


def test_readme_names_only_defined_private_names():
    # a private name the README cites in backticks must still be defined
    # in the package: a deleted or renamed helper leaves a stale design note
    cited = set(re.findall(r"`(_\w+)", README.read_text(encoding="utf-8")))
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                defined.add(node.id)
    assert cited, "no private names found in the README"
    assert not cited - defined, f"README names undefined: {cited - defined}"
