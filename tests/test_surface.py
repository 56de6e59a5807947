"""The library's public surface, pinned name by name."""

import ast
import importlib
import inspect
from pathlib import Path

import parafrob

# Each module's public top-level names: what its own statements define.
# A name joins or leaves this list only together with the code behind it.
LIBRARY_SURFACE = {
    "cli": {"EXIT_INPUT", "EXIT_MISMATCH", "EXIT_RESOURCE", "EXIT_UNCHECKED",
            "compute", "crosscheck", "entry", "fit", "main", "pilp_cmd",
            "series"},
    "eqpfit": {"Fit", "NoFit", "fit_quasipolynomial"},
    "errors": {"DEFAULT_POINT_CAP", "InputError", "ParafrobError",
               "ResourceLimitError", "frozen"},
    "formats": {"format_coins", "format_extended", "format_poly_expr",
                "format_poly_list", "format_rational", "format_series",
                "parse_coins", "parse_extended", "parse_family", "parse_poly",
                "parse_rational", "parse_series", "parse_system_file"},
    "frobenius": {"APERY_LIMIT", "AperyTable", "Coins", "EXACT_LIMIT",
                  "apery_table", "rep_count_exact", "window_end"},
    "pilp": {"EQ", "ExclusionProblem", "LE", "MAX_SWEEPS",
             "ParametricConstraintSystem", "Row", "exclusion_profile",
             "lattice_profile", "propagated_box"},
    "qpoly": {"BOTTOM", "Poly", "QuasiPolynomial", "SampleSeries",
              "eventually_positive"},
    "reduction": {"CrosscheckReport", "CrosscheckRow", "DIFF", "EQUAL",
                  "G_OFFSET", "PolyFamily", "SKIPPED", "box_exponent",
                  "crosscheck", "frobenius_to_exclusion", "window_bound_poly"},
}


def defined_names(module) -> set:
    """Public names bound by the module's top-level def, class and
    assignment statements; imported names are not its own."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_library_surface_is_pinned():
    modules = {path.stem for path in Path(parafrob.__file__).parent.glob("*.py")}
    assert modules - {"__init__"} == LIBRARY_SURFACE.keys()
    for name, surface in LIBRARY_SURFACE.items():
        module = importlib.import_module(f"parafrob.{name}")
        assert defined_names(module) == surface, name
    assert set(parafrob.__all__) == {"BOTTOM", "Poly", "QuasiPolynomial",
                                     "__version__"}


ROOT = Path(__file__).resolve().parent.parent


def referenced_names(paths) -> set:
    """Every name the files load, read as an attribute, or import."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_that_ships():
    shipped = [*Path(parafrob.__file__).parent.glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    used = referenced_names(shipped)
    unused = {name for surface in LIBRARY_SURFACE.values() for name in surface
              if name not in used}
    assert unused == set()


def test_only_row_and_instantiate_read_a_rows_sense():
    # pilp's engine reads one row form, the <= halves _instantiate gives:
    # past Row's check and _instantiate, nothing tells == from <=.
    source = (Path(parafrob.__file__).parent / "pilp.py").read_text()
    readers = set()
    for statement in ast.parse(source).body:
        for node in ast.walk(statement):
            if (isinstance(node, ast.Name) and node.id == "EQ"
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute)
                    and node.attr == "sense"):
                readers.add(getattr(statement, "name", None))
    assert readers == {"Row", "_instantiate"}


def test_visit_only_ever_consumes_leaf_runs():
    # In pilp.py visit has one meaning, visit(first, step, length): every
    # call passes three arguments, and visit is read nowhere else but as
    # the argument _stream hands to _iter_points, so no other name is
    # bound to it.
    source = (Path(parafrob.__file__).parent / "pilp.py").read_text()
    allowed, reads = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            if name == "visit":
                assert len(node.args) == 3 and not node.keywords
                allowed.add(node.func)
            elif name == "_iter_points":
                allowed.update(node.args)
        elif (isinstance(node, ast.Name) and node.id == "visit"
              and isinstance(node.ctx, ast.Load)):
            reads.append(node)
    assert reads and all(node in allowed for node in reads)


def test_only_reduction_makes_crosscheck_verdicts():
    # Every row and report of a crosscheck comes from its comparison: no
    # other module builds a CrosscheckRow or a CrosscheckReport.
    builders = set()
    for path in Path(parafrob.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name in ("CrosscheckRow", "CrosscheckReport"):
                    builders.add(path.stem)
    assert builders == {"reduction"}
