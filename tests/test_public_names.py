"""Every public name in bigtor has a user inside the package or in the
benchmark harness, and every field of a public record is read there.

A public top-level function or class, or a public method, that no other
part of src/bigtor refers to and that perfbench does not call (child.py)
or hook (layers.METHODS) serves tests alone, and the command line never
runs it.  Uses are matched by name over the syntax trees, so a method
counts as used when any attribute of that name is read.

The fields are those of public NamedTuples and the public attributes a
public class sets in __init__.  A field is read when src/bigtor,
perfbench/child.py or perfbench/layers.py loads an attribute of its name
as a value; calling a method of the same name does not count.  A field
that is only ever set is computed for nobody.

Every name a src/bigtor module imports is read in that module: an import
left behind by deleted code is a dependency nobody uses.

No value type (a subclass of intlinalg._Immutable) defines __eq__ or
__hash__: the base owns equality and hashing, over each type's _key.

src/bigtor/*.py holds fewer than 3,300 lines in all, the standing size
rule of ROADMAP.md: a route that adds code must delete what it makes
redundant.
"""

import ast
import collections
import pathlib

import bigtor

PACKAGE = pathlib.Path(bigtor.__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _definitions(tree):
    """(name, node) for public top-level functions and classes and the
    public methods of public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _names_read(tree):
    """How often each name is read in tree, as a Name id or Attribute attr."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _perfbench_names():
    names = set(_names_read(ast.parse((PERFBENCH / "child.py").read_text())))
    for node in ast.parse((PERFBENCH / "layers.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets
        ):
            names |= {meth for _, _, meth, _ in ast.literal_eval(node.value)}
    return names


def unused_public_names():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    reads = sum((_names_read(tree) for tree in trees), collections.Counter())
    pinned = _perfbench_names()
    unused = []
    for path, tree in zip(sorted(PACKAGE.glob("*.py")), trees):
        for qualified, node in _definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            # the definition's own body does not count as a use
            if name not in pinned and reads[name] == _names_read(node)[name]:
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []


def _fields(tree):
    """(class name, field) for the fields of public NamedTuples and the
    public attributes public classes set in __init__, by assignment to
    self or by object.__setattr__(self, "name", ...)."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        names = []
        if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases):
            names += [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
        for init in node.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            for sub in ast.walk(init):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    names.append(sub.attr)
                elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "__setattr__" and len(sub.args) == 3
                        and isinstance(sub.args[1], ast.Constant)):
                    names.append(sub.args[1].value)
        yield from ((node.name, name) for name in dict.fromkeys(names) if not name.startswith("_"))


def _attributes_loaded(tree):
    """Attribute names loaded as values: the callee of a call, as in
    pres.coordinates(...), reads a method of that name, not a field."""
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in callees}


def unread_fields():
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    loaded = set()
    for tree in trees + [ast.parse((PERFBENCH / name).read_text()) for name in ("child.py", "layers.py")]:
        loaded |= _attributes_loaded(tree)
    return [f"{path.stem}.{cls}.{field}" for path, tree in zip(paths, trees)
            for cls, field in _fields(tree) if field not in loaded]


def test_every_record_field_is_read_outside_the_tests():
    assert unread_fields() == []


def unused_imports():
    """module.name for each name a src/bigtor module imports, at any depth,
    and never loads as a Name; __future__ features are not names."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in loaded]
    return unused


def test_every_import_is_read_in_its_module():
    assert unused_imports() == []


def own_equality():
    """module.Class.method for each __eq__ or __hash__ that a class
    derived from _Immutable in src/bigtor defines itself."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "_Immutable" for base in node.bases):
                found += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in ("__eq__", "__hash__")]
    return found


def test_value_types_take_equality_and_hashing_from_the_base():
    assert own_equality() == []


LINE_CAP = 3300


def test_package_stays_under_the_line_cap():
    total = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert total < LINE_CAP, f"src/bigtor/*.py has {total} lines, the cap is {LINE_CAP}"
