"""Every defaulted parameter of the library is a choice some caller makes.

A default that no call in the package, the tests or the benchmark ever
overrides is a fixed numerical choice, and belongs in a module constant
where it can be read, not in a signature where it looks like a knob.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "ergolab"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _modules(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _functions(tree):
    """(function, is_method) for every def, methods being the defs directly
    in a class body that are not static methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(fn)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, defs)
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    }
    for fn in ast.walk(tree):
        if isinstance(fn, defs):
            yield fn, id(fn) in methods


def defaulted_parameters():
    """(module, function, parameter, position, is_method) of every library
    parameter with a default; position counts self, and is None for
    keyword-only parameters."""
    out = []
    for path, tree in _modules(LIBRARY):
        for fn, method in _functions(tree):
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for pos, arg in enumerate(positional[first:], start=first):
                out.append((path.stem, fn.name, arg.arg, pos, method))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((path.stem, fn.name, arg.arg, None, method))
    return out


def _calls():
    """Every call in the callers, keyed by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _modules(*CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, name: str, position: int | None, method: bool) -> bool:
    """Whether the call passes the parameter: by keyword, through a * or **
    splat, or by position past its index."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) + method > position


def test_every_defaulted_parameter_is_set_by_some_caller():
    params = defaulted_parameters()
    assert params, "no defaulted parameters found; the scan lost the library"
    calls = _calls()
    unset = [
        f"{module}.{fn}({name})"
        for module, fn, name, pos, method in params
        if not any(_sets(c, name, pos, method) for c in calls.get(fn, []))
    ]
    assert not unset, "defaulted parameters that no caller sets: " + ", ".join(unset)


def _parameters(fn):
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [a.arg for a in (*named, args.vararg, args.kwarg) if a is not None]


def test_every_parameter_is_read():
    # a parameter the body never reads is a knob that turns nothing;
    # lambdas are exempt, since a callback's signature is fixed by its caller
    unread = []
    for path, tree in _modules(LIBRARY):
        for fn, _ in _functions(tree):
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [f"{path.stem}.{fn.name}({p})" for p in _parameters(fn) if p not in read]
    assert not unread, "parameters that the body never reads: " + ", ".join(unread)


def _argument_stores(fn, method):
    """Each assignment in `fn` to an attribute of one of its own
    parameters, at any depth (``p.x = ...``, ``p.x.y += ...``,
    ``p[i].x = ...``), as "p.x (line n)"; a method's self and an ``out``
    buffer are exempt."""
    params = set(_parameters(fn)[1:] if method else _parameters(fn)) - {"out"}
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            base = node.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name) and base.id in params:
                yield f"{base.id}.{node.attr} (line {node.lineno})"


def test_no_function_stores_into_its_arguments():
    # results travel as return values: a function that stores into its
    # argument leaves state behind for every later caller of that object
    stores = [
        f"{path.stem}.{fn.name}: {store}"
        for path, tree in _modules(LIBRARY)
        for fn, method in _functions(tree)
        for store in _argument_stores(fn, method)
    ]
    assert not stores, "functions that store into their arguments: " + ", ".join(stores)


def _environment_reads(tree):
    """The line of each read of the environment: every ``os.getenv`` and
    every ``os.environ`` that is not the target of a plain key store
    (``os.environ[k] = v``), so ``.get``, a subscript load and ``in`` all
    count."""
    stores = {
        id(target.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Subscript)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "environb", "getenv", "getenvb")
            and id(node) not in stores
        ):
            yield node.lineno


def test_the_library_reads_no_environment_variable():
    # a run is fixed by its config and the CPUs it may use: a variable that
    # the library read would be a knob outside the config; storing the BLAS
    # thread caps (cli._configure_threads) reads nothing
    reads = [f"{path.name}:{line}" for path, tree in _modules(LIBRARY) for line in _environment_reads(tree)]
    assert not reads, "reads of the environment: " + ", ".join(reads)
