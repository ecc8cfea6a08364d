"""The package exports what it runs.

Every name ``spinphase/__init__.py`` imports must be referenced, as a name or
an attribute, by a module of ``src/spinphase`` outside its own definition, or
be one of the paper's quantities listed below.  The modules are parsed, not
searched as text, so a docstring mention does not count.
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
    """Names and attribute names used under ``node``, except a name within its own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    found = set()
    if isinstance(node, ast.Name) and node.id not in inside:
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
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
