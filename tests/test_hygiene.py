"""Source hygiene: every name imported in the package is used, every
module-level private name is read somewhere in the package, every name a
module exports in __all__ is bound in it, and every public function, class,
method, property and dataclass field is used outside the tests or
allowlisted."""
import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "selberg3"
MODULES = sorted(SRC.glob("*.py"))

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class _Scope:
    """The module or one function: what it binds, imports and reads."""

    def __init__(self, node, parent):
        self.parent = parent
        self.bound, self.globals = set(), set()
        self.imports = {}        # name -> line of the import binding it
        self.reads = []
        self.children = []
        if isinstance(node, FUNCTIONS):
            a = node.args
            self.bound.update(arg.arg for arg in
                              a.posonlyargs + a.args + a.kwonlyargs
                              + [a.vararg, a.kwarg] if arg)
            body = node.body if isinstance(node.body, list) else [node.body]
        else:
            body = node.body
        nonlocal_names = set()
        stack = list(body)
        while stack:
            n = stack.pop()
            if isinstance(n, FUNCTIONS):
                self.children.append(_Scope(n, self))
                # decorators, defaults and annotations run in this scope
                stack.extend(d for d in n.args.defaults + n.args.kw_defaults if d)
                if not isinstance(n, ast.Lambda):
                    self.bound.add(n.name)
                    stack.extend(n.decorator_list)
                    stack.extend(arg.annotation for arg in ast.walk(n.args)
                                 if isinstance(arg, ast.arg) and arg.annotation)
                    if n.returns:
                        stack.append(n.returns)
                continue
            if isinstance(n, ast.Import):
                for alias in n.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = n.lineno
            elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
                for alias in n.names:
                    self.imports[alias.asname or alias.name] = n.lineno
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                self.reads.append(n.id)
            elif isinstance(n, ast.Name):
                self.bound.add(n.id)
            elif isinstance(n, ast.ClassDef):
                self.bound.add(n.name)
            elif isinstance(n, ast.ExceptHandler) and n.name:
                self.bound.add(n.name)
            elif isinstance(n, ast.Global):
                self.globals.update(n.names)
            elif isinstance(n, ast.Nonlocal):
                nonlocal_names.update(n.names)
            elif (isinstance(n, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in n.targets)):
                self.reads.extend(ast.literal_eval(n.value))
            stack.extend(ast.iter_child_nodes(n))
        self.bound |= set(self.imports)
        self.bound -= self.globals | nonlocal_names

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def unused_imports(source: str) -> list:
    """(line, name) of each import whose binding is never read.

    Each read is resolved as Python does: to the innermost enclosing
    function that binds the name, else to the module.  So an import inside
    one function is not kept alive by a read of the same name in another.
    Class bodies count as part of their enclosing scope; names in __all__
    count as read, and __future__ imports are skipped.
    """
    module = _Scope(ast.parse(source), None)
    used = set()
    for scope in module.walk():
        for name in scope.reads:
            owner = module if name in scope.globals else scope
            while owner.parent is not None and name not in owner.bound:
                owner = owner.parent
            used.add((id(owner), name))
    return sorted((line, name) for scope in module.walk()
                  for name, line in scope.imports.items()
                  if (id(scope), name) not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exported_names_are_bound(path):
    name = "selberg3" if path.stem == "__init__" else f"selberg3.{path.stem}"
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom typing import Optional\n"
              "__all__ = ['Optional']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os")]


def test_detector_resolves_function_local_imports():
    source = ("import sys\n"
              "def reads():\n"
              "    import os\n"
              "    return os.sep\n"
              "def ignores():\n"
              "    import os\n"
              "    return 1\n"
              "def closure():\n"
              "    from math import pi\n"
              "    return lambda: pi + len(sys.argv)\n")
    assert unused_imports(source) == [(6, "os")]


def test_detector_local_binding_shadows_module_import():
    source = ("import os\n"
              "def f(os):\n"
              "    return os\n")
    assert unused_imports(source) == [(1, "os")]


def _private_definitions(stmt) -> list:
    """Private (single underscore, not dunder) names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level private name read nowhere.

    sources maps a module name to its source.  A read is a name load or a
    from-import anywhere in any of the modules, outside the top-level
    statement that defines the name, so a recursive call does not keep a
    helper alive.
    """
    reads = {}               # name -> {(module, statement index)}
    definitions = []
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            definitions.extend((module, stmt.lineno, i, name)
                               for name in _private_definitions(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add((module, i))
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        reads.setdefault(alias.name, set()).add((module, i))
    return sorted((module, line, name) for module, line, i, name in definitions
                  if not reads.get(name, set()) - {(module, i)})


def test_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_detector_sees_unread_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n__version__ = '1'\n"
                 "def _helper(n):\n    return _helper(n - 1) if n else _LIMIT\n"
                 "def _shared():\n    return 1\n"
                 "class _Orphan:\n    pass\n"),
        "b.py": "from a import _shared\nvalue = _shared()\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_SPARE"), ("a.py", 4, "_helper"), ("a.py", 8, "_Orphan")]


# public names that only tests call, each kept for a reason
TEST_ONLY_ALLOWLIST = {
    "spectral_divisor": "spectral side of the divisor, fed externally supplied eigenvalues",
    "functional_factor_psi": "product factor of the functional equation",
    "delta": "the point-pair invariant cosh d(P, Q), which acceptance "
             "criterion 9 reads to check the action's isometry",
}
CALLERS = [SRC, SRC.parent.parent / "demos", SRC.parent.parent / "perfbench"]


def public_names_named_nowhere(sources: dict, defining: set) -> list:
    """(module, name) of each public top-level function or class of a
    defining module that no source names outside its own definition.

    sources maps a path to its source.  A name counts when it is read as
    an attribute or from-imported, so `module.name` and
    `from module import name` both keep it, or when it is loaded as a bare
    name in a module that defines or imports it at top level, so a
    parameter or local that shares the name does not; a string in __all__
    does not count.
    """
    reads = {}               # name -> {(path, statement index)}
    definitions = []
    for path, source in sources.items():
        body = ast.parse(source).body
        top = {alias.asname or alias.name.split(".")[0] for stmt in body
               if isinstance(stmt, (ast.Import, ast.ImportFrom))
               for alias in stmt.names}
        top |= {stmt.name for stmt in body if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for i, stmt in enumerate(body):
            if (path in defining and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((path, i, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id] if node.id in top else []
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    reads.setdefault(name, set()).add((path, i))
    return sorted((path, name) for path, i, name in definitions
                  if not reads.get(name, set()) - {(path, i)})


def test_public_names_are_used_outside_tests():
    sources = {p.name if p.parent == SRC else f"{p.parent.name}/{p.name}":
               p.read_text() for d in CALLERS for p in sorted(d.glob("*.py"))}
    unused = public_names_named_nowhere(sources, {p.name for p in MODULES})
    assert sorted(name for _, name in unused) == sorted(TEST_ONLY_ALLOWLIST)


def test_detector_sees_public_names_named_nowhere():
    sources = {
        "a.py": ("__all__ = ['orphan']\n"
                 "def orphan():\n    return orphan()\n"
                 "def by_attribute():\n    return 1\n"
                 "def by_import():\n    return 1\n"
                 "class Used:\n    pass\n"
                 "def _private():\n    return Used()\n"),
        "b.py": ("import a\nfrom a import by_import\n"
                 "def orphan():\n    return a.by_attribute()\n"),
    }
    assert public_names_named_nowhere(sources, {"a.py"}) == [("a.py", "orphan")]


def test_detector_parameter_does_not_keep_a_public_name():
    sources = {
        "a.py": ("def distance(p, q):\n    return abs(p - q)\n"
                 "def helper():\n    return distance(1, 2)\n"
                 "def unused():\n    return 0\n"),
        "b.py": ("def kernel(unused):\n    return unused + 1\n"
                 "def other():\n    unused = 2\n    return unused\n"),
    }
    assert public_names_named_nowhere(sources, {"a.py"}) == [
        ("a.py", "helper"), ("a.py", "unused")]


# public methods and properties that only tests read, each kept for a reason
TEST_ONLY_METHODS = {
    "XiBlocks.e_constant": "linear coefficient of the functional equation's "
                           "exponent, which the divisor work needs",
}


def public_methods_read_nowhere(sources: dict, defining: set) -> list:
    """(path, "Class.method") of each public method or property of a class
    in a defining module that no source reads outside the method's body.

    A method is reached through an attribute (obj.method, Class.method),
    so only attribute reads count; a bare name or a parameter that shares
    the method's name does not keep it.
    """
    reads = {}               # attribute name -> [reading nodes]
    definitions = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
            elif path in defining and isinstance(node, ast.ClassDef):
                definitions.extend(
                    (path, node.name, stmt) for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not stmt.name.startswith("_"))
    unread = []
    for path, cls, stmt in definitions:
        own = {id(n) for n in ast.walk(stmt)}
        if all(id(n) in own for n in reads.get(stmt.name, [])):
            unread.append((path, f"{cls}.{stmt.name}"))
    return sorted(unread)


def test_public_methods_are_used_outside_tests():
    sources = {p.name if p.parent == SRC else f"{p.parent.name}/{p.name}":
               p.read_text() for d in CALLERS for p in sorted(d.glob("*.py"))}
    unread = public_methods_read_nowhere(sources, {p.name for p in MODULES})
    assert sorted(name for _, name in unread) == sorted(TEST_ONLY_METHODS)


def test_detector_sees_methods_read_nowhere():
    sources = {
        "a.py": ("class Box:\n"
                 "    def used(self):\n        return self._hidden()\n"
                 "    def recursive(self, n):\n"
                 "        return self.recursive(n - 1) if n else 0\n"
                 "    @property\n    def size(self):\n        return 1\n"
                 "    def shadowed(self):\n        return 2\n"
                 "    def _hidden(self):\n        return 3\n"
                 "def shadowed(size):\n    return size\n"),
        "b.py": "import a\nvalue = a.Box().used()\n",
    }
    assert public_methods_read_nowhere(sources, {"a.py"}) == [
        ("a.py", "Box.recursive"), ("a.py", "Box.shadowed"),
        ("a.py", "Box.size")]


# public dataclass fields that only tests read, each kept for a reason
TEST_ONLY_FIELDS = {
    "SingularData.V_prime_infinity": "basis of the non-singular cusp space, "
                                     "kept beside V_infinity for the open "
                                     "scattering-matrix work",
    "TestFunctionTriple.k": "point-pair kernel of a triple, which the "
                            "transform checks derive h from",
}


def dataclass_fields_read_nowhere(sources: dict, defining: set) -> list:
    """(path, "Class.field") of each public field of a @dataclass class in
    a defining module that no source reads as an attribute.

    A field is an annotated assignment in the class body.  Only attribute
    loads count: building the record with field=value writes the field,
    and a class body's own annotation does not read it.
    """
    reads = set()
    definitions = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                reads.add(node.attr)
            elif (path in defining and isinstance(node, ast.ClassDef)
                  and any("dataclass" in ast.unparse(d)
                          for d in node.decorator_list)):
                definitions.extend(
                    (path, f"{node.name}.{stmt.target.id}")
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not stmt.target.id.startswith("_"))
    return sorted((path, name) for path, name in definitions
                  if name.split(".")[1] not in reads)


def test_dataclass_fields_are_read_outside_tests():
    sources = {p.name if p.parent == SRC else f"{p.parent.name}/{p.name}":
               p.read_text() for d in CALLERS for p in sorted(d.glob("*.py"))}
    unread = dataclass_fields_read_nowhere(sources, {p.name for p in MODULES})
    assert sorted(name for _, name in unread) == sorted(TEST_ONLY_FIELDS)


def test_detector_sees_dataclass_fields_read_nowhere():
    sources = {
        "a.py": ("from dataclasses import dataclass\n"
                 "@dataclass(frozen=True)\n"
                 "class Record:\n"
                 "    used: int\n    written: int = 0\n    _private: int = 0\n"
                 "    LIMIT = 3\n"
                 "class Plain:\n    unread: int = 0\n"
                 "def build():\n    return Record(used=1, written=2)\n"),
        "b.py": "import a\nvalue = a.build().used\n",
    }
    assert dataclass_fields_read_nowhere(sources, {"a.py"}) == [
        ("a.py", "Record.written")]
