"""Every public name of the package has a user besides the tests.

A public top-level function, class or UPPER_CASE constant of
`src/trackseg` must be referenced outside its own definition somewhere in
`src/`, `perfbench/` or `pyproject.toml`.  A reference is a name or an
attribute in code, or a word inside a string that is not a docstring (the
benchmark tracer names its targets in strings).  Imports and `__all__`
entries do not count: a name that is only re-exported has no user.

A package `__init__.py` holds no import and no `__all__`: a re-export
can only hide a dead name, so code imports from the defining module.

A public attribute that a class assigns as `self.X = ...` must be read
(`obj.X` in a load) outside that class somewhere in `src/` or
`perfbench/`, so no state is kept that nothing reads.  Exception classes
are exempt: their attributes are diagnostics for whoever catches them.

A defaulted parameter of a public top-level function must be passed by
some call in `src/` or `perfbench/`; one that no call passes is a
constant in disguise.

Only `jsonio.write_atomic` writes a file of `src/trackseg` in place (its
temp sibling, renamed over the target): no other code calls
`.write_text`, `.write_bytes` or `open` in a mode that writes, so a
failed or killed run never leaves a truncated artifact.

The modules of `src/trackseg` form layers in one declared order, and a
module imports only from layers below its own (and from its own
package), so that, say, graph building never comes to depend on the
model.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trackseg"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# their fate is an open ROADMAP decision: wire into the pipeline or delete
ALLOWED_UNUSED = {"choose_threshold", "track_params"}

# defaulted parameters that only tests pass
ALLOWED_UNPASSED = {
    # the tests drive the CLI through argv
    ("main", "argv"),
    # criterion 5 and the composite gradient sweep pass unit scales to
    # keep their finite differences well conditioned
    ("total_loss", "tracking_scales"),
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)
            and CONSTANT.fullmatch(t.id)]


def public_definitions():
    """(module path, name, first line, last line) per public definition."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in _defined_names(node):
                if not name.startswith("_"):
                    yield path, name, node.lineno, node.end_lineno


def _is_dunder_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def references(path):
    """(word, line) for every reference in one Python file."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in ast.walk(tree):
        if _is_dunder_all(node) or (isinstance(node, ast.Expr) and
                                    isinstance(node.value, ast.Constant)):
            skipped.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in WORD.findall(node.value):
                yield word, node.lineno


def _code_files():
    for top in ("src", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def test_every_public_name_has_a_user_outside_the_tests():
    refs = {}
    for path in _code_files():
        for word, line in references(path):
            refs.setdefault(word, []).append((path, line))
    config_words = set(WORD.findall((ROOT / "pyproject.toml").read_text()))

    unused = []
    for path, name, first, last in public_definitions():
        used = name in config_words or any(
            not (ref_path == path and first <= line <= last)
            for ref_path, line in refs.get(name, ()))
        if not used and name not in ALLOWED_UNUSED:
            unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []


def test_package_inits_export_nothing():
    exporting = []
    for path in sorted(PACKAGE.rglob("__init__.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    _is_dunder_all(node):
                exporting.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert exporting == []


def _is_exception_class(node):
    """Derives from Exception or from a class named ...Error."""
    return any(isinstance(b, ast.Name) and
               (b.id == "Exception" or b.id.endswith("Error"))
               for b in node.bases)


def assigned_attributes():
    """(module path, class, attribute, first line, last line) for every
    public `self.X = ...` in a method of a non-exception class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or \
                    _is_exception_class(node):
                continue
            for sub in ast.walk(node):
                targets = sub.targets if isinstance(sub, ast.Assign) else \
                    [sub.target] if isinstance(sub, ast.AnnAssign) else []
                for t in targets:
                    if (isinstance(t, ast.Attribute) and
                            isinstance(t.value, ast.Name) and
                            t.value.id == "self" and
                            not t.attr.startswith("_")):
                        yield (path, node.name, t.attr, node.lineno,
                               node.end_lineno)


def test_every_assigned_attribute_is_read_outside_its_class():
    reads = {}
    for path in _code_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))

    unread = sorted({
        f"{path.relative_to(ROOT)}: {cls}.{attr}"
        for path, cls, attr, first, last in assigned_attributes()
        if all(ref_path == path and first <= line <= last
               for ref_path, line in reads.get(attr, ()))})
    assert unread == []


def test_attribute_check_sees_the_package_classes():
    found = {(cls, attr) for _, cls, attr, _, _ in assigned_attributes()}
    assert {("Model", "layers"), ("Model", "flat"),
            ("Model", "params")} <= found
    assert not any(cls.endswith("Error") for cls, _ in found)


def test_allowlist_names_exist():
    names = {name for _, name, _, _ in public_definitions()}
    assert ALLOWED_UNUSED <= names


def defaulted_parameters():
    """(module path, function, parameter, position) for every parameter
    with a default of a public top-level function; keyword-only
    parameters have position None."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield path, node.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path, node.name, arg.arg, None


def passed_parameters():
    """{function name: (most positional arguments, keyword names)} over
    every call in `src/` and `perfbench/`; a call that unpacks
    *args or **kwargs counts as passing everything."""
    passed = {}
    for path in _code_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            n_pos, keywords = passed.setdefault(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                n_pos = float("inf")
            passed[name] = (max(n_pos, len(node.args)),
                            keywords | {k.arg for k in node.keywords})
    return passed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    passed = passed_parameters()
    unpassed = []
    for path, func, param, position in defaulted_parameters():
        n_pos, keywords = passed.get(func, (0, set()))
        if param in keywords or (position is not None and position < n_pos):
            continue
        if (func, param) not in ALLOWED_UNPASSED:
            unpassed.append(f"{path.relative_to(ROOT)}: {func}({param})")
    assert unpassed == []


def test_unpassed_allowlist_names_exist():
    found = {(func, param) for _, func, param, _ in defaulted_parameters()}
    assert ALLOWED_UNPASSED <= found


# the one function that writes a file in place: its own temp sibling
ATOMIC_WRITER = ("jsonio.py", "write_atomic")


def _calls(node, scope=None):
    """(innermost enclosing function name, call) for every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)


def _writes_a_file(call):
    """Path.write_text/.write_bytes, or open / Path.open in a mode that
    writes, appends or creates; a mode that is not a literal counts."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    index = 1 if isinstance(func, ast.Name) else 0  # open(f, mode)
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[index] if len(call.args) > index else None)
    return mode is not None and not (
        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        and set(mode.value).isdisjoint("wax+"))


def file_writes():
    """(module file name, enclosing function, line) per file write."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for scope, call in _calls(ast.parse(path.read_text())):
            if _writes_a_file(call):
                yield path.name, scope, call.lineno


def test_every_file_write_is_atomic():
    assert [w for w in file_writes() if w[:2] != ATOMIC_WRITER] == []


def test_write_check_sees_the_atomic_writer():
    assert any(w[:2] == ATOMIC_WRITER for w in file_writes())


# lowest first; `neural` and `harness` are packages, `__main__` is the
# entry point above them all
LAYERS = ("errors", "angles", "jsonio", "kinematics", "ellipses", "events",
          "graphs", "neural", "tracknet", "postprocess", "harness",
          "__main__")


def _layer(path):
    """The layer of a package file: its top-level module or package."""
    return path.relative_to(PACKAGE).parts[0].removesuffix(".py")


def imported_layers(path):
    """(layer, line) for every import of a package module in one file."""
    package = path.relative_to(PACKAGE).parent.parts
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            base = (*package[:len(package) + 1 - node.level],
                    *(node.module.split(".") if node.module else ()))
            # `from .. import tracknet` names the modules themselves
            names = [["trackseg", *base]] if base else \
                [["trackseg", a.name] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module.split(".")]
        else:
            continue
        for parts in names:
            if parts[0] == "trackseg" and len(parts) > 1:
                yield parts[1], node.lineno


def _package_files():
    return [path for path in sorted(PACKAGE.rglob("*.py"))
            if path.name != "__init__.py"]


def test_every_module_has_a_layer():
    assert {_layer(path) for path in _package_files()} == set(LAYERS)


def test_modules_import_only_lower_layers():
    upward = []
    for path in _package_files():
        layer = _layer(path)
        for imported, line in imported_layers(path):
            own_package = imported == layer and path.parent != PACKAGE
            if not own_package and \
                    LAYERS.index(imported) >= LAYERS.index(layer):
                upward.append(f"{path.relative_to(ROOT)}:{line}: "
                              f"{layer} imports {imported}")
    assert upward == []


def test_import_check_sees_the_package_imports():
    def layers(name):
        return {layer for layer, _ in imported_layers(PACKAGE / name)}
    assert {"graphs", "neural", "errors"} <= layers("tracknet.py")
    assert {"tracknet", "harness", "graphs"} <= layers("harness/pipeline.py")
    assert {"neural", "errors"} <= layers("neural/nn.py")
    assert layers("__main__.py") == {"harness"}
