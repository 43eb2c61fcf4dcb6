"""Source-level rules for the package code."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import normbase
from normbase import poly2

SOURCES = sorted(Path(normbase.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements():
    # correctness checks must be raises: python -O strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found


def _referenced_names(top: ast.stmt):
    own = top.name if isinstance(top, ast.FunctionDef) else None
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name != own:  # a function's calls to itself do not keep it alive
            yield name


def test_every_public_function_is_referenced():
    # a public function that no module or test names, calls or imports is dead code
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES + TESTS]
    used = {name for tree in trees for top in tree.body for name in _referenced_names(top)}
    unused = [f"{path.stem}.{node.name}"
              for path, tree in zip(SOURCES, trees)
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used]
    assert TESTS
    assert not unused


def test_every_imported_name_is_used():
    # an import left behind by a deletion; __init__ imports only to re-export
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in used]
    assert not unused


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_oracle_does_not_use_the_field_kernel():
    # the audits check the production path, so the oracle keeps its own naive arithmetic
    # and builds its squaring tables from it: no kernel table, so a wrong one cannot leak in
    oracle = next(path for path in SOURCES if path.name == "oracle.py")
    production = {"elem_square", "frobenius", "_trace_mask", "_kernel", "corresponding_vector",
                  "is_normal", "gram", "trace_mask", "_square", "_trace", "_trace_form",
                  "_frobenius", "_frobenius_table", "_frobenius_tables", "_half_vector", "_held"}
    names = set(_names(ast.parse(oracle.read_text())))
    assert "_naive_square" in names  # the oracle's own helper is a different name
    assert not production & names


def test_normal_leaves_the_vector_read_to_field():
    # one module owns the squaring loop, the Frobenius table, its switch and its layout;
    # normal wraps field._half_vector and knows none of them
    normal = next(path for path in SOURCES if path.name == "normal.py")
    internals = {"_square", "_frobenius", "_frobenius_tables", "_linear", "_form", "_PARITY"}
    names = set(_names(ast.parse(normal.read_text())))
    assert "_half_vector" in names
    assert not internals & names


def _package_imports(name: str) -> set[str]:
    # the package modules that a module imports, relative or absolute
    source = next(path for path in SOURCES if path.name == name)
    modules = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    return {m for m in modules if m.startswith(".") or m.split(".")[0] == "normbase"}


def test_factor_builds_on_poly2_alone():
    # the factor solver reduces by poly2's _eliminate: no other package module, so no second
    # elimination routine or table map can come in through an import
    assert _package_imports("factor.py") == {".poly2"}


def _elimination_loops(tree: ast.AST):
    # a loop that XORs into a row a value read by subscript and steered by that row's own bits:
    # the row reduced by pivots it looks up.  A name bound in the loop stands for its value
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        bound = {node.targets[0].id: node.value for node in ast.walk(loop)
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        bound |= {node.target.id: node.value for node in ast.walk(loop)
                  if isinstance(node, ast.NamedExpr)}
        for node in ast.walk(loop):
            if not (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor)
                    and isinstance(node.target, ast.Name)):
                continue
            parts = [node.value] + [bound[name.id] for name in ast.walk(node.value)
                                    if isinstance(name, ast.Name) and name.id in bound]
            nodes = [sub for part in parts for sub in ast.walk(part)]
            if (any(isinstance(sub, ast.Subscript) for sub in nodes)
                    and any(isinstance(sub, ast.Name) and sub.id == node.target.id for sub in nodes)):
                yield node.lineno


def test_no_module_but_poly2_holds_an_elimination_loop():
    # poly2._eliminate is the package's one GF(2) elimination routine: the factor solver and the
    # oracle's lanes call it, and a second loop that reduces rows by pivots would be a second
    # routine for the audits to trust
    assert list(_elimination_loops(ast.parse(inspect.getsource(poly2._eliminate))))
    found = [f"{path.name}:{line}" for path in SOURCES if path.name != "poly2.py"
             for line in _elimination_loops(ast.parse(path.read_text(), str(path)))]
    assert not found


def test_oracle_imports_are_pinned():
    # the oracle takes rules and solvers from construct and factor, the spec from field and
    # ring arithmetic from poly2, never the normal module's vectors: a new import could bring the
    # production kernel in
    assert _package_imports("oracle.py") == {".construct", ".factor", ".field", ".poly2"}


def _names_imported_from(name: str, module: str) -> set[str]:
    # the names a module imports from one package module, relative or absolute
    source = next(path for path in SOURCES if path.name == name)
    return {alias.name
            for node in ast.walk(ast.parse(source.read_text()))
            if isinstance(node, ast.ImportFrom)
            and "." * node.level + (node.module or "") in (f".{module}", f"normbase.{module}")
            for alias in node.names}


def test_construct_takes_the_scan_and_the_vector_from_normal():
    # the default base reads the scan's (element, vector) pair once; find_normal or is_normal
    # would be a second way to the same element
    assert _names_imported_from("construct.py", "normal") == {"_scanned", "corresponding_vector"}


def test_construct_takes_the_bare_factor_map_from_factor():
    # _lift is the one spelling of a base's map, and its table tabulates it: factor's images or
    # its solvers in construct would be a second spelling of the same map
    assert _names_imported_from("construct.py", "factor") == {"_factor", "_odd_half_sum"}


def test_oracle_takes_the_spec_alone_from_field():
    # field keeps no helper for the oracle, and anything else from field would be the
    # production kernel
    assert _names_imported_from("oracle.py", "field") == {"FieldSpec"}


def test_oracle_takes_no_table_helper_from_poly2():
    # the oracle squares by its own naive squares alone: poly2's table helpers would be a second
    # way to square, and the elimination routine and ring arithmetic are all it takes
    assert _names_imported_from("oracle.py", "poly2") == {
        "CyclicPoly", "_eliminate", "cyclic_mul", "poly_mod", "reciprocal", "symmetric_vectors"}


def test_every_rent_site_names_its_fork_in_the_one_price_table():
    # each _rented call names a fork of poly2._PRICES by a string literal, or None for price 0,
    # every fork is named, and no module but poly2 keeps a price of its own
    forks, misnamed, priced = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_rented" in _names(node.func):
                fork = node.args[2] if len(node.args) > 2 else None
                if isinstance(fork, ast.Constant) and fork.value in {None, *poly2._PRICES}:
                    forks.append(fork.value)
                else:
                    misnamed.append(f"{path.name}:{node.lineno}")
        if path.name != "poly2.py":
            priced += [f"{path.name}:{name}" for name in set(_names(tree))
                       if name == "_PRICES" or name.endswith("RENT")]
    assert None in forks
    assert (misnamed, set(poly2._PRICES) - set(forks), priced) == ([], set(), [])


def _unbounded_cache(decorator: ast.expr) -> bool:
    # @cache, @functools.cache, @lru_cache(maxsize=None), @lru_cache(None)
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return name == "cache"  # a bare @lru_cache keeps 128 entries
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def test_no_unbounded_cache_keyed_on_a_field_spec():
    # per-field values belong to the FieldSpec, which frees them with itself
    found = [f"{path.name}:{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.FunctionDef) and node.args.args
             and "FieldSpec" in ast.unparse(node.args.args[0].annotation or ast.Pass())
             and any(_unbounded_cache(d) for d in node.decorator_list)]
    assert not found


def test_every_catalogued_mutant_names_one_text_and_existing_tests():
    # a stale entry of tools/mutants.py fails here at once, not only in its slow sweep: each old
    # text occurs once in its file, and each test id names a file and, after ::, a function in it
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    stale = [name for name, file, old, *_ in mutants.MUTANTS
             if (ROOT / file).read_text().count(old) != 1]
    ids = {test.partition("::") for *_, tests in mutants.MUTANTS for test in tests}
    texts = {path: (ROOT / path).read_text() for path, _, _ in ids if (ROOT / path).is_file()}
    missing = [path + sep + function for path, sep, function in ids
               if path not in texts or function and not re.search(
                   rf"^def {re.escape(function.split('[')[0])}\(", texts[path], re.M)]
    assert mutants.MUTANTS and ids
    assert (stale, missing) == ([], [])
