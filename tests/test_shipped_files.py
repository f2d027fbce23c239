import ast
import os
import pathlib
import subprocess
import sys

import pytest

from sympla.catalog import build
from sympla.cli import ParsedFile, parse, run, serialize

ALGEBRAS = pathlib.Path(__file__).resolve().parent.parent / "algebras"
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sympla"
NAMES = ("g8", "g10", "fdim_metab", "cs6", "irr6", "filiform4")


@pytest.mark.parametrize("name", NAMES)
def test_shipped_file_matches_catalog(name):
    text = (ALGEBRAS / f"{name}.alg").read_text()
    parsed = parse(text)
    entry = build(name)
    assert parsed.algebra.table == entry.algebra.table
    assert parsed.algebra.labels == entry.algebra.labels
    assert parsed.symplectic.omega.rows == entry.symplectic.omega.rows
    assert parsed.marked == dict(entry.marked)
    # canonical files round-trip bytewise
    assert serialize(parsed) == text


@pytest.mark.parametrize("name", NAMES)
def test_shipped_file_validates_via_cli(name):
    code, out = run(["validate", str(ALGEBRAS / f"{name}.alg")])
    assert code == 0


def test_cli_analyze_file_agrees_with_catalog_source():
    code_f, out_f = run(["rank", str(ALGEBRAS / "g8.alg")])
    code_c, out_c = run(["rank", "catalog:g8"])
    assert code_f == code_c == 0
    assert out_f == out_c


def test_the_cli_does_not_import_endoalg():
    """No module the CLI imports reaches ``endoalg``: one unused import of it
    raised the peak memory of a cold ``cohomology`` run by about 10%."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, sympla.cli; print('sympla.endoalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    assert out.stdout.strip() == b"False"


def test_no_function_local_imports():
    """Every import of the package sits at module level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_module_imports_are_used():
    """Every module-level import of a package module (``__init__.py`` and
    ``from __future__`` aside) binds a name the module reads."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{path.name}:{name}" for name in bound if name not in read]
    assert unused == []


def test_no_assert_statements():
    """Invariant checks raise exceptions, which ``python -O`` cannot strip."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _indexes_bracket_basis(node: ast.AST) -> bool:
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "bracket_basis")


def test_structure_constants_read_through_nonzero():
    """Outside ``class LieAlgebra`` the constants are scanned through
    ``LieAlgebra.nonzero``: ``.table`` appears only as an operand of a
    comparison, and a ``bracket_basis(i, j)`` vector is used whole (mapped or
    compared), never indexed entry by entry, so no dense scan comes back."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_class, compared = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "LieAlgebra":
                in_class.update(id(n) for n in ast.walk(node))
            elif isinstance(node, ast.Compare):
                compared.update(id(n) for n in (node.left, *node.comparators))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in in_class and (
                      isinstance(node, ast.Attribute) and node.attr == "table"
                      and id(node) not in compared
                      or _indexes_bracket_basis(node))]
    assert found == []


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _calls_method(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def _pairs_over_two_loops(node: ast.AST) -> bool:
    """A comprehension over two or more loops (two generators, or a
    comprehension inside it) that calls ``.pair(...)``: a hand-built Gram."""
    if not isinstance(node, COMPREHENSIONS):
        return False
    inner = [n for n in ast.walk(node) if n is not node]
    return (any(_calls_method(n, "pair") for n in inner)
            and (len(node.generators) > 1 or any(isinstance(n, COMPREHENSIONS) for n in inner)))


def test_forms_go_through_gram_and_derive_form():
    """No cochain is evaluated through ``.evaluate(`` and no matrix of
    ``.pair(...)`` values is built in a nested comprehension: derived forms
    come from ``exactla.derive_form`` and restrictions from ``exactla.gram``."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _calls_method(node, "evaluate") or _pairs_over_two_loops(node)]
    assert found == []


def _is_full_subspace(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "full" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "Subspace")


def test_derived_algebra_is_read_from_the_algebra():
    """[g, g] is built only by ``liealg.derived_algebra``, which keeps it per
    algebra: outside ``liealg.py`` no ``bracket_span`` call takes
    ``Subspace.full(...)`` as both of its last two arguments."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "liealg.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "bracket_span" and len(node.args) >= 2
             and all(_is_full_subspace(a) for a in node.args[-2:])]
    assert found == []


def test_certificates_bracket_through_liealg():
    """``certificates.py`` reads neither ``.nonzero`` nor ``.integer_constants``:
    its double brackets go through ``liealg.integer_brackets``, the routine
    ``bracket_span`` uses."""
    tree = ast.parse((PACKAGE / "certificates.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("nonzero", "integer_constants")]
    assert found == []


ENVELOPE_SECTION = ("EnvelopeCertificate", "double_bracket_forms", "semidefinite",
                    "_is_abelian_ideal", "build_envelope_certificate",
                    "verify_no_abelian_escape", "abelian_envelope_candidate")


def test_envelope_takes_no_subsets_and_no_determinants():
    """The envelope certificate is one elimination per form: its section of
    ``certificates.py`` enumerates no subsets (``combinations``), and the file
    calls ``.det(`` only inside ``irreducible_structure_certificate``."""
    tree = ast.parse((PACKAGE / "certificates.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(ENVELOPE_SECTION) <= set(defs)
    subsets = [node.lineno for name in ENVELOPE_SECTION for node in ast.walk(defs[name])
               if isinstance(node, ast.Attribute) and node.attr == "combinations"
               or isinstance(node, ast.Name) and node.id == "combinations"]
    assert subsets == []
    allowed = {id(node) for node in ast.walk(defs["irreducible_structure_certificate"])}
    dets = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "det" and id(node) not in allowed]
    assert dets == []


def _called_names(module: str, function: str) -> set[str]:
    """Names called in the body of a module-level function: ``f(...)`` gives
    f and ``x.f(...)`` gives f."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_isotropy_is_read_from_the_integer_gram_matrix():
    """``isotropy_report`` computes no orthogonal and no intersection, and the
    enumeration takes isotropic parts without an ω-orthogonal: both go
    through the integer Gram matrix."""
    assert not _called_names("symplectic.py", "isotropy_report") & {
        "omega_orthogonal", "orthogonal_complement", "intersect"}
    assert "omega_orthogonal" not in _called_names("search.py", "_enumerate_cached")


def _call_name(node: ast.AST) -> str | None:
    """f for a call ``f(...)`` or ``x.f(...)``, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def test_every_kernel_goes_through_one_integer_null_space():
    """No Fraction kernel is left: ``_null_basis`` is gone, and
    ``kernel_basis`` is only defined (as ``Matrix.kernel_basis``, the rows of
    ``Matrix.null_space``, which the benchmark's tracer patches by name) and
    read nowhere; the span of an integer kernel,
    ``from_integer_rows(…, integer_kernel(…))``, is written only in
    ``exactla.null_space``; and ``integer_kernel`` is called only in
    ``exactla`` and ``symplectic`` (the Gram rank and the isotropic part)."""
    gone = {"kernel_basis", "_null_basis"}
    names, defined, spans, callers = [], [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {id(node): fn.name for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id in gone
                    or isinstance(node, ast.Attribute) and node.attr in gone):
                names.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name in gone:
                defined.append((path.name, node.name))
            if _call_name(node) == "integer_kernel":
                callers.add(path.stem)
            if _call_name(node) == "from_integer_rows" \
                    and any(_call_name(arg) == "integer_kernel" for arg in node.args):
                spans.append((path.name, enclosing.get(id(node))))
    assert names == []
    assert defined == [("exactla.py", "kernel_basis")]
    assert spans == [("exactla.py", "null_space")]
    assert callers <= {"exactla", "symplectic"}
