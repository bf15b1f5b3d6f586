"""Static layout guard: ``src/reebtwist`` holds only what something in
``src/`` reaches, or what an allow-list below names with its reason; and
a function keeps a float path beside its array path only where a second
allow-list names the scalar hot path that needs it.

The guard reads the syntax trees of the package modules; it imports
nothing.  A top-level function or class, or a method of a top-level
class, other than a dunder (a module's ``__getattr__``, a class's
``__post_init__``), counts as reached when its name occurs (as a name
or an attribute) somewhere in ``src/`` outside its own body; a string,
such as an ``__all__`` entry, does not count.  A dataclass field counts
as read when some attribute of that name is loaded somewhere in
``src/``.  Both are name checks: a field that shares its name with
another attribute read (an array's ``.shape``, say) passes without
being read itself.  No ``fft`` name or attribute occurs in ``src/``,
and ``solve_ivp`` only in ``numerics.py``.

Every parameter with a default, of a function or method anywhere in
``src/``, is passed by some call in ``src/`` or ``tests/``: by keyword,
or by position (a method's calls skip ``self``; a class's calls reach
its ``__init__``).  Calls match by bare name, as above; a ``*args`` or
``**kwargs`` in a call counts as passing every parameter of its kind.
A default that no call overrides is a constant.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reebtwist"

# What src/ keeps although nothing in src/ reaches it: name -> (the file
# that uses it, why it stays).  The guard checks that each entry is
# still unreached and that its file names it.
BENCH = ROOT / "bench" / "tracing.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TESTS = ROOT / "tests"

ALLOWED = {
    "geometry.random_binding_point": (
        BENCH, "draws the points of the geometry.reeb_field_us benchmark"),
    "lincr.cone_invariance_check": (ACCEPTANCE, "criterion 07 calls it"),
    "orbits.orbit_space_homology": (ACCEPTANCE, "criterion 11 calls it"),
    "orbits.OrbitSpaceReport.betti": (ACCEPTANCE, "criterion 11 reads it"),
    "index.random_symplectic_path": (ACCEPTANCE, "criterion 03 calls it"),
    "lincr.KernelReport.angles": (TESTS, "diagnostic: principal angles"),
    "orbits.OrbitLevel.target": (TESTS, "diagnostic: g/(2 pi) of the level"),
    "orbits.OrbitSpaceReport.degenerate": (
        TESTS, "diagnostic: n = 2 lies outside the Betti formulas"),
    "profiles.PullbackReport.n_samples": (TESTS, "diagnostic: sample count"),
    "numerics.solve_ivp": (
        BENCH, "a traced run proxies it: no run integrates an ODE"),
    "numerics.OdeResult.nfev": (
        BENCH, "the solve_ivp.nfev counters of a traced run read it"),
    "numerics.OdeResult.t": (
        BENCH, "the solve_ivp.steps counters of a traced run read it"),
    "numerics.OdeResult.status": (
        TESTS, "the DOP853 comparison with scipy reads it"),
    "geometry.PointBatch.phi": (
        TESTS, "the polar angle of a point: the model's fields do not "
        "depend on it, the tests rebuild points with it"),
}


# The functions that branch on ``isinstance(..., np.ndarray)``: name ->
# the scalar callers that need the float path, or the reason for the
# branch.  Everything else takes one path for a float and an array.
SCALAR_FORKS = {
    "profiles.piecewise": (
        "the profiles' point checks (validate, orbit levels, the twist "
        "build, the plane's scalar lookups): 195 of the 542 piecewise "
        "calls of a default `all` and 31 of 205 of a `lincr` on k = -2, "
        "n = 3, k_max = 8 are floats, at under 1 us against 9-20 us on a "
        "one-element array"),
    "plane.Quintic.__call__": (
        "the plane's float lookups between rho = 1 and exp(x_max), r_end "
        "and t_max (4 of 41 calls in a default `all`, 3 of 42 in that "
        "`lincr`) and the per-point oracles of the tests: 2 us on a float "
        "against 21 us on a one-element array"),
    "cli._jsonable": "serialization by type",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _names(node) -> Counter:
    """How often each name and attribute occurs under node."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(qualified name, bare name, node) of every checked definition,
    and (qualified name, field) of every dataclass field."""
    defs, fields = [], []
    for mod, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                defs.append((f"{mod}.{node.name}", node.name, node))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    defs.append((f"{mod}.{node.name}.{item.name}",
                                 item.name, item))
                elif (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    fields.append((f"{mod}.{node.name}.{item.target.id}",
                                   item.target.id))
    return defs, fields


def _unreached(modules):
    everywhere = Counter()
    loaded = set()
    for tree in modules.values():
        everywhere.update(_names(tree))
        loaded.update(sub.attr for sub in ast.walk(tree)
                      if isinstance(sub, ast.Attribute)
                      and isinstance(sub.ctx, ast.Load))
    defs, fields = _definitions(modules)
    bad = {qual for qual, name, node in defs
           if everywhere[name] - _names(node)[name] <= 0}
    bad |= {qual for qual, name in fields if name not in loaded}
    return bad


def _ndarray_forks(modules):
    """Qualified names of the top-level functions, the methods of
    top-level classes and the other top-level statements (``line n``)
    that call ``isinstance`` with ``np.ndarray`` (alone or in a tuple);
    a nested function or lambda counts to the definition holding it."""
    def is_fork(node):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            return False
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(isinstance(k, ast.Attribute) and k.attr == "ndarray"
                   for k in kinds)

    found = set()
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{mod}.{node.name}.{item.name}", item)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            else:
                name = getattr(node, "name", f"line {node.lineno}")
                scopes = [(f"{mod}.{name}", node)]
            found |= {qual for qual, scope in scopes
                      if any(map(is_fork, ast.walk(scope)))}
    return found


def _users(modules, name):
    """The modules in which ``name`` occurs as a name or attribute."""
    return {mod for mod, tree in modules.items() if _names(tree)[name]}


def _defaulted_parameters(modules):
    """(qualified name, the name calls use, parameter, position) of every
    parameter with a default; position is the index of the positional
    argument that fills it, None for a keyword-only one."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", child.name)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, prefix, cls)
                continue
            qual = f"{prefix}.{child.name}"
            called = cls if child.name == "__init__" and cls else child.name
            bound = cls is not None and not any(
                getattr(dec, "id", None) == "staticmethod"
                for dec in child.decorator_list)
            args = child.args
            pos = args.posonlyargs + args.args
            first = len(pos) - len(args.defaults)
            found.extend((qual, called, arg.arg, i - bound)
                         for i, arg in enumerate(pos[first:], start=first))
            found.extend((qual, called, arg.arg, None)
                         for arg, dflt in zip(args.kwonlyargs,
                                              args.kw_defaults)
                         if dflt is not None)
            visit(child, qual, None)

    for mod, tree in modules.items():
        visit(tree, mod, None)
    return found


def _calls(trees) -> dict:
    """Bare name -> (positional count, starred, keywords) of each call;
    a ``**`` argument shows as the keyword None."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (n_pos, n_pos < len(node.args),
                 {kw.arg for kw in node.keywords}))
    return calls


def _unset_parameters(modules, callers):
    """(qualified name, parameter) of every defaulted parameter in
    ``modules`` that no call in ``modules`` or ``callers`` passes."""
    calls = _calls([*modules.values(), *callers])
    return {(qual, param)
            for qual, called, param, pos in _defaulted_parameters(modules)
            if not any((pos is not None and (n_pos > pos or starred))
                       or param in kws or None in kws
                       for n_pos, starred, kws in calls.get(called, ()))}


def test_every_defaulted_parameter_is_passed():
    tests = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(TESTS.glob("*.py"))]
    assert sorted(_unset_parameters(_modules(), tests)) == []


@pytest.mark.parametrize("source, expected", [
    ("def f(x, n=3):\n    return x\n\nf(1)\n", {("m.f", "n")}),
    ("def f(x, n=3):\n    return x\n\nf(1, 2)\n", set()),
    ("def f(x, n=3):\n    return x\n\nf(1, n=2)\n", set()),
    ("def f(x, *, n=3, k=1):\n    return x\n\nf(1, **opts)\n", set()),
    ("def f(x, n=3):\n    return x\n\nf(*args)\n", set()),
    ("class C:\n    def m(self, x, n=3):\n        return x\n\n"
     "C().m(1)\n", {("m.C.m", "n")}),
    ("class C:\n    def m(self, x, n=3):\n        return x\n\n"
     "C().m(1, 2)\n", set()),
    ("class C:\n    def __init__(self, n=3):\n        self.n = n\n\n"
     "C(4)\n", set()),
    ("def f():\n    def g(x, tol=1e-9):\n        return x\n"
     "    return g(0.0)\n\nf()\n", {("m.f.g", "tol")}),
])
def test_parameter_guard_flags_defaults_nothing_passes(source, expected):
    assert _unset_parameters({"m": ast.parse(source)}, []) == expected


def test_parameter_guard_reads_the_callers():
    module = {"m": ast.parse("def f(x, n=3):\n    return x\n")}
    assert _unset_parameters(module, []) == {("m.f", "n")}
    assert _unset_parameters(module, [ast.parse("m.f(1, 2)\n")]) == set()


def test_no_fft_in_src():
    # the SZ check's angular integrals are exact on the drawn modes; an
    # FFT over an angle grid would be a second path beside it (that path
    # is the oracle in tests/test_lincr.py)
    assert sorted(_users(_modules(), "fft")) == []


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\n\nhat = np.fft.fft(vals, axis=1)\n", {"m"}),
    ("from numpy import fft\n\nhat = fft.rfft(vals)\n", {"m"}),
    ("hat = vals.sum(axis=1)\n", set()),
])
def test_fft_guard_finds_fft_uses(source, expected):
    assert _users({"m": ast.parse(source)}, "fft") == expected


def test_solve_ivp_only_in_numerics():
    # a run integrates no ODE: the flow closure is a rotation in closed
    # form, the plane's x and t are quadratures between radial knots, and
    # lincr's shooting and cone check take Magnus steps; an ODE
    # integration beside them would be a second path (DOP853 is their
    # oracle in the tests)
    assert _users(_modules(), "solve_ivp") - {"numerics"} == set()


@pytest.mark.parametrize("source, expected", [
    ("from . import numerics\n\nsol = numerics.solve_ivp(f, (0, 1), y0)\n",
     {"m"}),
    ("from .numerics import solve_ivp\n\nsol = solve_ivp(f, (0, 1), y0)\n",
     {"m"}),
    ('"""The plane, without solve_ivp."""\n', set()),
    ("x = numerics.quad(f, 0.0, 1.0)\n", set()),
])
def test_solve_ivp_guard_finds_solve_ivp_uses(source, expected):
    assert _users({"m": ast.parse(source)}, "solve_ivp") == expected


def test_every_definition_and_field_is_reached():
    unreached = _unreached(_modules())
    assert sorted(unreached - ALLOWED.keys()) == []


def _top_level_names(tree) -> set:
    """The names a module's own statements bind at the top: functions,
    classes and assignment targets (imports do not count)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            names.update(sub.id for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return names


def _stale_exports(modules):
    """(module, entry) of every ``__all__`` entry that names no top-level
    definition or assignment of its module; a starred entry (``__init__``
    spreads its tuple of lazy submodules) must name one itself."""
    stale = set()
    for mod, tree in modules.items():
        names = _top_level_names(tree)
        for node in tree.body:
            if not (isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "__all__"):
                continue
            for elt in node.value.elts:
                entry = (elt.value.id if isinstance(elt, ast.Starred)
                         else elt.value)
                if entry not in names:
                    stale.add((mod, entry))
    return stale


def test_every_export_is_defined():
    assert sorted(_stale_exports(_modules())) == []


@pytest.mark.parametrize("source, expected", [
    ("__all__ = ['f', 'C', 'X', 'Y']\n\ndef f():\n    pass\n\n"
     "class C:\n    pass\n\nX = Y = 1\n", set()),
    ("__all__ = ['gone']\n\ndef kept():\n    pass\n", {("m", "gone")}),
    ("from os import path\n\n__all__ = ['path']\n", {("m", "path")}),
    ("_PARTS = ('a',)\n__all__ = [*_PARTS, 'v']\nv: str = '1'\n", set()),
    ("__all__ = [*_PARTS]\n", {("m", "_PARTS")}),
])
def test_export_guard_flags_stale_entries(source, expected):
    assert _stale_exports({"m": ast.parse(source)}) == expected


def test_every_module_is_a_lazy_submodule():
    # ``reebtwist.<name>`` resolves through __init__'s _SUBMODULES; a
    # module missing there raises AttributeError after ``import
    # reebtwist``
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "_SUBMODULES")
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(listed) == sorted(modules)


def test_scalar_array_forks_are_allowed():
    assert sorted(_ndarray_forks(_modules()) - SCALAR_FORKS.keys()) == []


def test_allow_list_is_current():
    # an entry names something the guard would flag, and the file that
    # is its reason reads that name as an attribute; every fork the
    # second list allows is still there
    modules = _modules()
    assert sorted(SCALAR_FORKS.keys() - _ndarray_forks(modules)) == []
    unreached = _unreached(modules)
    assert sorted(ALLOWED.keys() - unreached) == []
    for qual, (user, _why) in ALLOWED.items():
        read = "." + qual.rsplit(".", 1)[-1]
        paths = sorted(user.glob("test_*.py")) if user.is_dir() else [user]
        assert any(read in p.read_text(encoding="utf-8") for p in paths), qual


@pytest.mark.parametrize("source, expected", [
    ("def used():\n    pass\n\ndef caller():\n    used()\n",
     {"m.caller"}),
    ("def recursive(n):\n    return recursive(n - 1)\n", {"m.recursive"}),
    ("__all__ = ['listed']\n\ndef listed():\n    pass\n", {"m.listed"}),
    ("from dataclasses import dataclass\n\n@dataclass\nclass C:\n"
     "    read: int\n    unread: int\n\n    def use(self):\n"
     "        return self.read\n\nC(1, 2).use()\n", {"m.C.unread"}),
])
def test_guard_flags_what_nothing_reaches(source, expected):
    assert _unreached({"m": ast.parse(source)}) == expected


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\n\ndef f(x):\n    def g(y):\n"
     "        return isinstance(y, np.ndarray)\n    return g\n", {"m.f"}),
    ("import numpy as np\n\nclass C:\n    def m(self, x):\n"
     "        return isinstance(x, (float, np.ndarray))\n", {"m.C.m"}),
    ("h = lambda x: isinstance(x, np.ndarray)\n", {"m.line 1"}),
    ("def f(x):\n    return isinstance(x, float)\n", set()),
])
def test_fork_guard_finds_ndarray_checks(source, expected):
    assert _ndarray_forks({"m": ast.parse(source)}) == expected
