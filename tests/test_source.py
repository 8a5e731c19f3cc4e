"""Checks on the package source as a whole."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hwpoly"


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check that exactness
    # depends on must raise; it raises a named exception, not the
    # AssertionError that a test failure also raises
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or _raises_assertion_error(node)]
    assert found == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _unused_imports(paths):
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        # a name that appears only inside a quoted annotation counts as
        # unused, since the annotation is a string constant to ast
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(ROOT)}:{line} {name}"
                  for line, name in _imported_names(tree) if name not in used]
    return found


def test_no_unused_imports_in_the_package():
    # __init__.py imports to re-export, so it is the one exception
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert _unused_imports(modules) == []


def test_no_unused_imports_in_the_tools_and_demos():
    scripts = sorted([*(ROOT / "tools").glob("*.py"),
                      *(ROOT / "demos").glob("*.py")])
    assert scripts
    assert _unused_imports(scripts) == []


def _module_level_assigned(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and not leaf.id.startswith("__"):
                    yield node.lineno, leaf.id


def test_no_unread_module_level_names_in_the_package():
    # a module-level name counts as read when its own module loads it or
    # another module of the package imports it by name
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    imported = {(node.module, alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    found = []
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        found += [f"{mod}.py:{line} {name}"
                  for line, name in _module_level_assigned(tree)
                  if name not in loaded and (mod, name) not in imported]
    assert found == []


def test_only_the_package_init_assigns_all():
    # the package's _HOMES table is the one export list; a module's own
    # __all__ would be a second one to keep in step with it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "__all__"
                  and isinstance(node.ctx, ast.Store)]
    assert found == []


def _reads_environment(node):
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in ("environ", "getenv"))
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(a.name in ("environ", "getenv") for a in node.names)
    return False


def test_no_environment_reads_in_the_package():
    # every input of a command is an argument: an environment variable
    # would change answers without showing in the command line
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _reads_environment(node)]
    assert found == []


def _is_named_tuple(node):
    return isinstance(node, ast.ClassDef) and any(
        isinstance(base, ast.Name) and base.id == "NamedTuple"
        for base in node.bases)


def test_no_unread_instance_attributes():
    # an attribute stored on self, or a NamedTuple field, counts as read
    # when any module of the package loads an attribute of that name
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    found = [f"{name}:{node.lineno} self.{node.attr}"
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Store)
             and isinstance(node.value, ast.Name) and node.value.id == "self"
             and node.attr not in loaded]
    found += [f"{name}:{field.lineno} {node.name}.{field.target.id}"
              for name, tree in trees.items() for node in ast.walk(tree)
              if _is_named_tuple(node)
              for field in node.body if isinstance(field, ast.AnnAssign)
              and field.target.id not in loaded]
    assert found == []


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _loaded(node):
    """The Name ids and Attribute names that node loads, at any depth."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _extends_its_base(method):
    """Whether method calls super().<its own name>: an override that its
    base class calls."""
    return any(isinstance(n, ast.Attribute) and n.attr == method.name
               and isinstance(n.value, ast.Call)
               and isinstance(n.value.func, ast.Name)
               and n.value.func.id == "super"
               for n in ast.walk(method))


def _definitions(tree, module):
    """(qualname, name, loads, owner) of each top-level function and
    class and each method.  A class loads what its statements load
    outside its methods, and a method its whole subtree.  owner is the
    method's class when the method extends its base's, which the base
    calls wherever the class is used, and None otherwise."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{module}.{node.name}", node.name, _loaded(node), None
        elif isinstance(node, ast.ClassDef):
            cls, own = f"{module}.{node.name}", set()
            for part in node.bases + node.keywords + node.decorator_list:
                own |= _loaded(part)
            for stmt in node.body:
                if isinstance(stmt, _DEFS):
                    yield (f"{cls}.{stmt.name}", stmt.name, _loaded(stmt),
                           cls if _extends_its_base(stmt) else None)
                else:
                    own |= _loaded(stmt)
            yield cls, node.name, own, None


def _exported(tree):
    """The names in the package's _HOMES table."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_HOMES"
                        for t in node.targets)):
            return {c.value for names in node.value.values
                    for c in ast.walk(names) if isinstance(c, ast.Constant)}
    raise LookupError("no _HOMES table")


def test_every_definition_in_the_package_is_reached():
    # a definition is reached from the package's exports, from what its
    # modules run at import (the CLI's command table and entry point
    # among it), or from the tools and demos.  It reaches every name it
    # loads, and a name reaches every definition so called.  A dunder
    # method is reached by the protocol that calls it, and an override
    # that extends its base's method by that base, with its class.
    # What is left unreached only the tests could call.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defs = [d for mod, tree in trees.items() for d in _definitions(tree, mod)]
    assert defs
    names = _exported(trees["__init__"])
    for tree in trees.values():
        names |= {name for node in tree.body
                  if not isinstance(node, _DEFS + (ast.ClassDef,))
                  for name in _loaded(node)}
    for script in sorted(ROOT.glob("tools/*.py")) + sorted(
            ROOT.glob("demos/*.py")):
        names |= _loaded(ast.parse(script.read_text(), filename=str(script)))
    reached, grew = set(), True
    while grew:
        grew = False
        for qualname, name, loads, owner in defs:
            if qualname not in reached and (
                    name in names or owner in reached
                    or (name.startswith("__") and name.endswith("__"))):
                reached.add(qualname)
                names |= loads
                grew = True
    assert sorted(q for q, _, _, _ in defs if q not in reached) == []
