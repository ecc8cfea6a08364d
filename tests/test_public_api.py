"""The package exports what it runs, and its modules share private names only where listed.

Every name ``spinphase/__init__.py`` imports must be read, as a name or an
attribute, by a module of ``src/spinphase`` outside its own definition, or be
one of the paper's quantities listed below.  Every private name one module of
the package imports from another must be listed below with its reason, and
every private name a module defines at its top level must be read somewhere in
the package, so a fold leaves no dead helper behind.  The modules are parsed,
not searched as text, so a docstring mention does not count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spinphase"

# exported for what they are, with no caller in the library
PAPER_QUANTITIES = {
    "spinor_solution": "the closed-form second-order spinor solution",
    "classical_solution": "the closed-form second-order classical spin solution",
    "spinor_to_bloch": "the validating inverse of bloch_to_spinor",
    "magnus4_schrodinger": "the fixed-step fourth-order propagator of a cyclic run",
    "exponential_midpoint_schrodinger": "the second-order reference stepper of a cyclic run",
    "phi2_decomposition": "the second-order phase split into its velocity and acceleration terms",
    "aa_geometric_phase_coordinate": "the exact geometric phase, by the azimuth integral",
    "aa_geometric_phase_solid_angle": "the exact geometric phase, as a solid angle",
    "constant": "the static field, the zero-rate limit of every profile kind",
    "uniform_rotation": "the uniformly rotating field, the exactly solvable kind",
    "polynomial_angle": "the in-plane field with a polynomial angle",
    "cone_3d": "the field on a cone, the out-of-plane kind",
    "user_tabulated": "a field given by tables of its spherical data",
}


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Names and attribute names read under ``node``, except a name within its own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
        found.add(node.id)
    elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
          and node.attr not in inside):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _referenced(child, inside)
    return found


def test_every_export_has_a_caller_in_the_library_or_is_a_paper_quantity():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    exported = _exported()
    assert sorted(exported - used - set(PAPER_QUANTITIES)) == []
    # the list holds only exported names that need it
    assert sorted(set(PAPER_QUANTITIES) - (exported - used)) == []


# private names one module imports from another, and why each is shared; a renderer
# imported back into a module that computes would show up here
SHARED_PRIVATE = {
    "_check_cfg": "the integrators and the convergence runner state one rule for a config",
    "_check_count": "the steppers, the loop sampler, the convergence runner and the CLI state "
                    "one rule for a count",
    "_compose": "the steppers carry a state across blocks by the chain's SU(2) product",
    "_field_vector": "the solvers and steppers read the field without building a FieldSample",
    "_number": "IntegratorConfig checks its settings as FieldProfile checks its own",
    "_finite": "the CLI checks its params as FieldProfile checks its own",
    "_GRID_MULTIPLE": "the trajectory integrals' Romberg strides run up to the multiple that "
                      "every default grid's interval count has",
    "_spin_components": "the geometric phases read a spinor path as mean-spin components",
    "_unwrap": "the azimuth of the exact geometric phase unwraps as the total phase does",
}


def _private_imports(tree: ast.Module) -> set[str]:
    """Private names imported from a spinphase module, or read as attributes of one."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "spinphase"):
            if node.module is None or node.module == "spinphase":  # from . import module
                modules |= {alias.asname or alias.name for alias in node.names}
            else:
                names |= {alias.name for alias in node.names if alias.name.startswith("_")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            names.add(node.attr)
    return names


def test_private_names_cross_modules_only_where_listed():
    shared = set()
    for path in SRC.glob("*.py"):
        shared |= _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(shared) == sorted(SHARED_PRIVATE)


def _private_definitions(tree: ast.Module) -> set[str]:
    """Private functions, classes and constants a module defines at its top level; dunder
    names are exempt."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def test_every_private_definition_is_read_in_the_library():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    read = set().union(*map(_referenced, trees))
    defined = set().union(*map(_private_definitions, trees))
    assert sorted(defined - read) == []
