"""Every public name and public method of the package is reached from the CLI or kept
for a stated reason.

Reachability is by identifier: starting from ``cli.main`` and the
module-level statements of ``experiments`` (the registry calls), every
``Name`` and ``Attribute`` identifier in reached code reaches the
top-level definition, or method, of that name.  A class body is reached
without its public methods, which are reached by attribute.  Public
methods may also be reached from a ``KEPT`` name.
"""
import ast
from pathlib import Path

from fracwiener.experiments import EXPERIMENTS

SRC = Path(__file__).resolve().parents[1] / "src" / "fracwiener"

# names no CLI route reaches, with the live route they check or the test that pins them
KEPT = {
    "singular_inner_product": "oracle of integrand_norm and integrand_inner (test_sobolev)",
    "integrand_inner": "covariance-route oracle of integrand_norm (test_sobolev), the squared "
                       "kernel norms of LpKernelField",
    "sobolev_norm_step": "oracle of sobolev_norm_fourier in norm-identity (test_sobolev)",
    "cosine_tail_constant": "constant of the sobolev_norm_step oracle",
    "sobolev_norm_gagliardo": "oracle of sobolev_norm_fourier in norm-identity (test_sobolev)",
    "dh_norm_smooth": "oracle of the dh_norm_exponential shell identity (mode_norm) for H > 1/2",
    "assemble_kernel_field": "oracle of existence_report (test_spde)",
    "hermite_covariance": "oracle of simulate_hermite_k2 in isometry (test_processes)",
    "affine_norm_pair": "paper object pinned by c11",
    "restricted_norm": "paper object pinned by c11",
    "mesh_average_step": "paper object pinned by c11",
    "condition_singular": "finiteness condition of the domain, rough drivers (test_integrals)",
    "condition_regular": "finiteness condition of the domain, smooth drivers (test_integrals)",
    "HSOperator": "Hilbert-Schmidt integrand of the cylindrical integral (test_integrals)",
    "cylindrical_integral": "cylindrical Wiener integral (test_integrals)",
    "LpKernelField": "the paper's pointwise-kernel gamma-norm, and the composed oracle of "
                     "existence_report through assemble_kernel_field",
    "gamma_norm_lp": "the paper's pointwise-kernel gamma-norm, and the composed oracle of "
                     "existence_report through assemble_kernel_field",
}


# public methods of public classes that neither the CLI nor a KEPT name reaches
KEPT_METHODS = {
    "StepFunction.indicator": "the README session, and the isometry anchor (test_integrals)",
    "PathEnsemble.paths": "node values for tests (c05 reads them) and users; "
                          "every program route reads the increments",
    "HSOperator.hs_norm_sq": "the paper's Hilbert-Schmidt norm of the cylindrical integrand",
    "HSOperator.column_norms_sq": "the paper's Hilbert-Schmidt norm of the cylindrical integrand",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _identifiers(node):
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        for child in ast.iter_child_nodes(n):
            method = isinstance(child, ast.FunctionDef) and not child.name.startswith("__")
            if not (isinstance(n, ast.ClassDef) and method):
                stack.append(child)


def _reached(modules, kept=()) -> set:
    """Identifiers reached from the CLI roots and from the top-level names ``kept``."""
    defs = {}
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs.setdefault(item.name, []).append(item)
    roots = [n for n in modules["cli"].body if getattr(n, "name", None) == "main"]
    roots += [n for n in modules["experiments"].body
              if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    roots += [n for tree in modules.values() for n in tree.body
              if getattr(n, "name", None) in kept]
    seen, todo = {"main", *kept}, list(roots)
    while todo:
        for name in _identifiers(todo.pop()):
            if name not in seen:
                seen.add(name)
                todo.extend(defs.get(name, ()))
    return seen


def _public(modules) -> dict:
    out = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                out.update((ast.literal_eval(e), mod) for e in node.value.elts)
    return out


def test_public_names_are_reached_or_kept():
    modules = _modules()
    public, reached = _public(modules), _reached(modules)
    unreached = sorted(f"{mod}.{name}" for name, mod in public.items()
                       if name not in reached and name not in KEPT)
    assert unreached == [], "public but reached only by tests: delete, or add to KEPT with a reason"
    stale = sorted(name for name in KEPT if name in reached or name not in public)
    assert stale == [], "KEPT entries that the CLI reaches or that are not public"


def _public_methods(modules) -> list:
    public = _public(modules)
    return sorted(
        f"{node.name}.{item.name}"
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and public.get(node.name) == mod
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    )


def test_public_methods_are_reached_or_kept():
    modules = _modules()
    methods, reached = _public_methods(modules), _reached(modules, KEPT)
    unreached = [m for m in methods if m.split(".")[1] not in reached and m not in KEPT_METHODS]
    assert unreached == [], "public method reached only by tests: delete, or add to KEPT_METHODS"
    stale = sorted(m for m in KEPT_METHODS if m not in methods or m.split(".")[1] in reached)
    assert stale == [], "KEPT_METHODS entries that are reached or that are not public methods"


def test_no_function_takes_a_thread_count():
    # the worker count is the run-level rng.worker_threads setting, never an argument
    found = sorted(
        f"{mod}.{getattr(node, 'name', '<lambda>')}"
        for mod, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "threads" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    )
    assert found == []


# public keyword options: the defaulted parameters of the __all__ functions and
# of the public methods of __all__ classes; a new option has to raise this bound
MAX_KEYWORD_OPTIONS = 15


def _keyword_options(modules) -> dict:
    public, out = _public(modules), {}
    for mod, tree in modules.items():
        for node in tree.body:
            if public.get(getattr(node, "name", None)) != mod:
                continue
            if isinstance(node, ast.FunctionDef):
                funcs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            else:
                funcs = []
            for name, f in funcs:
                n = len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
                if n:
                    out[f"{mod}.{name}"] = n
    return out


def test_keyword_options_stay_within_bound():
    options = _keyword_options(_modules())
    assert sum(options.values()) <= MAX_KEYWORD_OPTIONS, options


# config values: the required and optional keys of every experiment kind; a
# new key has to raise this bound
MAX_CONFIG_VALUES = 48


def test_config_values_stay_within_bound():
    counts = {name: len(exp.required) + len(exp.optional) for name, exp in EXPERIMENTS.items()}
    assert sum(counts.values()) <= MAX_CONFIG_VALUES, counts
