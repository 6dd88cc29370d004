"""The package's shape: which of its modules import which, its public names,
and which module binds which tolerance.

The solver modules never import the test references in ``oracle``, and
only ``oracle`` takes convex envelopes through ``pwl``: the curtain walk
gives both the table and the shadow, and the verifiers work without an
envelope.  The curtain walk is the one convex-order verdict, and only
``oracle`` evaluates the potential gap ``P_nu - P_mu``.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import leftcurtain
from leftcurtain import build_curtain, coupling, random_cx_pair

SRC = Path(leftcurtain.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SOLVER_MODULES = ("measures", "decompose", "curtain", "shadow", "verify", "cli")

PUBLIC_NAMES = [
    "CurtainTable",
    "DecomposeError",
    "Decomposition",
    "DiscreteMeasure",
    "IrreducibleComponent",
    "LiftedCoupling",
    "OrderResult",
    "VerificationReport",
    "build_curtain",
    "check_convex_order",
    "coupling",
    "curtain_incremental",
    "curve_rows",
    "decompose",
    "joint_tv",
    "measure_from_json",
    "measure_to_json",
    "quantile_left",
    "quantize_density",
    "random_cx_pair",
    "sample_y_many",
    "shadow",
    "verify_all",
    "verify_coupling",
    "verify_left_monotone",
    "verify_marginal_identity",
    "verify_shadow_consistency",
]


def package_imports(module):
    """The modules of the package that ``module``'s source imports."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "leftcurtain":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # ``from . import oracle`` names the module among the imported names
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "leftcurtain" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_is_classified():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert modules == {*SOLVER_MODULES, "oracle", "pwl", "__init__"}


@pytest.mark.parametrize("module", SOLVER_MODULES)
def test_solver_modules_do_not_import_the_oracle(module):
    assert "oracle" not in package_imports(module)


def test_only_the_oracle_takes_envelopes():
    users = {m for m in (*SOLVER_MODULES, "oracle") if "pwl" in package_imports(m)}
    assert users == {"oracle"}


def test_public_names_are_the_listed_ones_and_resolve():
    assert leftcurtain.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(leftcurtain, name), name


def calls_outside(path, name):
    """Whether the source at ``path`` calls ``name``, by name or as an
    attribute, outside a top-level definition of ``name`` itself."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and name in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None)
            ):
                return True
    return False


def test_every_public_function_has_a_caller_besides_the_tests():
    # a public function is called by the package itself or by the benchmark
    # harness; one that only tests call does not belong on the surface
    sources = [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
    functions = [n for n in leftcurtain.__all__ if inspect.isfunction(getattr(leftcurtain, n))]
    assert functions
    uncalled = [n for n in functions if not any(calls_outside(p, n) for p in sources)]
    assert not uncalled


def test_no_structured_dtype_in_the_package():
    # the table's rows and the coupling's are one (N, 5) float array with
    # named columns in _COUPLING_ROW_KEYS; no module builds a record dtype
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            specs = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if getattr(node.func, "attr", None) == "dtype":
                specs += node.args
            fields = [s for s in specs if isinstance(s, (ast.List, ast.Tuple, ast.Dict, ast.ListComp))]
            assert not fields, (path.stem, node.lineno)


def imported_or_used_names(module):
    """The names ``module``'s source imports or reads as an attribute."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return imported | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_cli_leaves_the_order_check_to_the_build():
    # build_curtain checks convex order and raises DecomposeError (exit 3),
    # so the command line does not check it a second time
    assert "check_convex_order" not in imported_or_used_names("cli")


def test_the_build_sweeps_the_pair_without_decomposing_it():
    # one sweep over the whole pair; the typed order error lives in measures
    assert "decompose" not in package_imports("curtain")
    assert "decompose" not in imported_or_used_names("curtain")


def test_decompose_reads_the_coupling_and_evaluates_no_potential():
    names = imported_or_used_names("decompose")
    assert not names & {"_put_values", "put_potential", "_order_with_gap"}


def called_names(node):
    """The names and attributes that the code under ``node`` reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def function_defs(module):
    """The top-level functions of ``module``, by name."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_the_curtain_reads_no_potential():
    # the walk uses up the target's atoms, and its outcome is the order
    # check: the build reads no potential and walks the pair once
    tree = ast.parse((SRC / "curtain.py").read_text())
    names = imported_or_used_names("curtain") | called_names(tree)
    assert not names & {
        "_pair_gap", "_order_and_gap", "_PairGap", "_rise", "_put_values", "put_potential"
    }
    fns = function_defs("curtain")
    assert "check_convex_order" in fns
    walkers = {name for name, fn in fns.items() if "_walk" in called_names(fn) - {name}}
    assert walkers == {"_ordered_walk"}
    import leftcurtain.measures as measures

    assert not hasattr(measures, "_rise")


def test_the_walk_is_the_one_order_verdict():
    # the build, the verify command, the shadow's full-mass branch and the
    # public check all take the verdict of one helper beside the walk
    callers = {
        (module, name)
        for module in SOLVER_MODULES
        for name, fn in function_defs(module).items()
        if "_ordered_walk" in called_names(fn)
    }
    assert callers == {
        ("curtain", "_check_pair"), ("curtain", "check_convex_order"), ("shadow", "shadow")
    }
    # the walk judges its own overdraw, by one rule whatever the source's
    # mass, so no caller of the walk judges it a second time
    judges = {
        (module, name)
        for module in (*SOLVER_MODULES, "oracle")
        for name, fn in function_defs(module).items()
        if "_check_overdraw" in called_names(fn)
    }
    assert judges == {("curtain", "_walk")}
    import leftcurtain.measures as measures

    assert not hasattr(measures, "check_convex_order")
    assert not hasattr(measures, "OrderResult")


def test_only_the_oracle_evaluates_a_potential_gap():
    # put_potential evaluates one potential; a gap is a difference of two,
    # by _put_values or by prefix sums over the union of both supports
    readers = {
        (module, name)
        for module in SOLVER_MODULES
        for name, fn in function_defs(module).items()
        if called_names(fn) & {"_put_values", "put_potential"}
    }
    assert not readers
    import leftcurtain.measures as measures

    for name in ("put_potential", "_put_values", "restricted_measure"):
        assert not hasattr(measures, name), name
    gap_sums = {
        (module, name)
        for module in SOLVER_MODULES
        for name, fn in function_defs(module).items()
        if {"cumsum", "union1d"} <= called_names(fn)
    }
    assert not gap_sums
    assert "_put_values" not in imported_or_used_names("shadow")


def test_the_shadow_reads_the_walk():
    # the shadow is the mass the curtain walk uses up, and reads no potential
    tree = ast.parse((SRC / "shadow.py").read_text())
    (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "shadow")
    names = called_names(fn)
    assert "_walk" in names
    assert not names & {"_pair_gap", "convex_hull", "_put_values", "cumsum", "union1d"}
    import leftcurtain.measures as measures

    assert not hasattr(measures, "_pair_gap")
    assert not hasattr(measures, "_PairGap")


def test_the_shadow_signals_through_the_walks_error():
    # one order error for every failure of the shadow, and no tolerance of
    # its own: its checks take those of measures
    tree = ast.parse((SRC / "shadow.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    floats = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, float)]
    assert not floats
    raised = {
        n.exc.func.id for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None
    }
    assert raised == {"DecomposeError"}
    assert not hasattr(leftcurtain, "ShadowInvalid")
    assert "ShadowInvalid" not in (SRC / "cli.py").read_text()


def test_the_sample_points_need_no_union():
    # the identity's sample points read the atoms sorted, repeats and all
    import leftcurtain.measures as measures

    assert not hasattr(measures, "_union")
    assert not called_names(ast.parse((SRC / "verify.py").read_text())) & {"_union", "union1d"}


def test_the_coupling_reads_the_tables_own_rows():
    # a row is fixed by its levels and its kernel (x, r, s), with phi at its
    # start beside it; the coupling's rows are the table's array itself
    mu, nu = random_cx_pair(5, 6, 4)
    table = build_curtain(mu, nu)
    assert coupling(table, mu).intervals is table.intervals
    assert table.intervals.shape == (len(table.phi_lo), 5)
    assert table.intervals.dtype == np.float64 and not table.intervals.flags.writeable


def test_the_verifiers_read_no_table():
    # every residual judges the coupling it is given: phi comes from its
    # rows, and no verifier builds a coupling of its own
    tree = ast.parse((SRC / "verify.py").read_text())
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert not {"CurtainTable", "coupling"} & imported_or_used_names("verify")
    assert "phi_lo" not in called_names(tree) | strings


def test_one_atom_binning_reads_the_coupling_file():
    # verify matches the joint's points and the rows' sends to atoms by
    # atom_index alone, the rows once per coupling through the cached
    # _destinations, and builds no measure to compare marginals
    tree = ast.parse((SRC / "verify.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert not [c for c in calls if getattr(c.func, "id", None) == "DiscreteMeasure"]
    assert not called_names(tree) & {"_run_starts", "_merge_atoms", "tv_distance"}
    assert not hasattr(leftcurtain.LiftedCoupling, "first_marginal")
    assert not hasattr(leftcurtain.LiftedCoupling, "second_marginal")
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("verify_coupling", "verify_shadow_consistency"):
        assert "_destinations" in called_names(fns[name])
    matching = {name for name, fn in fns.items() if "atom_index" in called_names(fn)}
    assert matching == {"_destinations", "verify_coupling"}


def test_the_verify_command_builds_no_table():
    # the command checks the pair as the build does, then reads only the file
    tree = ast.parse((SRC / "cli.py").read_text())
    (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_cmd_verify")
    names = called_names(fn)
    assert "build_curtain" not in names
    assert "_check_pair" in names


def test_the_csv_commands_write_their_rows_in_blocks():
    # sample and curtain --curves hand their columns to one writer, which
    # joins the rows of one block at a time inside its loop over blocks:
    # no function joins all the rows into one string
    fns = function_defs("cli")
    for name in ("_cmd_sample", "_cmd_curtain"):
        assert "_write_csv" in called_names(fns[name])
        assert "join" not in called_names(fns[name])
    assert "_write_text" not in called_names(fns["_cmd_sample"])
    assert {name for name, fn in fns.items() if "join" in called_names(fn)} == {"_write_csv"}
    (loop,) = (n for n in ast.walk(fns["_write_csv"]) if isinstance(n, ast.For))
    joins = [n for n in ast.walk(fns["_write_csv"]) if getattr(n, "attr", None) == "join"]
    assert joins and all(n in set(ast.walk(loop)) for n in joins)


def test_sample_builds_no_array_of_the_number_of_draws():
    # sample draws, looks up and writes its rows a block at a time: --n
    # reaches the check on its sign, its error message, the writer's row
    # count and the advance of the second generator, and no array
    # constructor; every size= is a block's
    fn = function_defs("cli")["_cmd_sample"]

    def is_n(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "n"
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        )

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
    takers = {name(c) for c in calls if any(map(is_n, ast.walk(c)))}
    assert takers == {"ValueError", "_write_csv", "advance"}
    allowed = [c for c in calls if name(c) in takers] + [
        n for n in ast.walk(fn) if isinstance(n, ast.Compare)
    ]
    inside = {id(n) for node in allowed for n in ast.walk(node)}
    uses = [n for n in ast.walk(fn) if is_n(n)]
    assert uses and all(id(n) in inside for n in uses)
    sizes = [k.value for c in calls for k in c.keywords if k.arg == "size"]
    assert sizes and not any(is_n(n) for size in sizes for n in ast.walk(size))


def test_the_left_monotone_count_reads_one_row_format():
    tree = ast.parse((SRC / "verify.py").read_text())
    (fn,) = (
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "verify_left_monotone"
    )
    assert "isinstance" not in called_names(fn)


def test_the_verifiers_loop_over_no_rows():
    # the monotonicity count and the certificate are array code: a Python
    # loop over rows or atoms made the count quadratic and the certificate
    # a per-event sweep
    tree = ast.parse((SRC / "verify.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert not [c for c in calls if isinstance(c.func, ast.Attribute) and c.func.attr == "tolist"]
    loops = [n.iter for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))]
    over_rows = [
        it
        for it in loops
        if isinstance(it, ast.Call)
        and getattr(it.func, "id", None) == "range"
        and "len" in {n.id for n in ast.walk(it) if isinstance(n, ast.Name)}
    ]
    assert not over_rows


def test_the_destination_law_builds_no_points_by_rows_block():
    # the quantile-form identity sums one leaf of rows per point as a block
    # and every later leaf from prefix sums over its sorted lower values
    tree = ast.parse((SRC / "verify.py").read_text())
    assert "_CDF_BLOCK" not in called_names(tree)
    (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_destination_cdf")
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [n for n in ast.walk(fn) if isinstance(n, loops)]


@pytest.mark.parametrize(
    "module, name, ends",
    [("curtain", "sample_y_many", "u_hi"), ("measures", "quantile_left", "cum_weights")],
)
def test_both_level_lookups_share_one_search(module, name, ends):
    # a draw's row is found by _level_index alone, which picks the guide
    # table or the binary search by one size rule for both lookups
    tree = ast.parse((SRC / f"{module}.py").read_text())
    (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    assert not called_names(fn) & {"searchsorted", "digitize", "_guide", "_guide_table"}
    lookups = [
        n
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_level_index"
    ]
    assert len(lookups) == 1
    inside = {id(n) for n in ast.walk(lookups[0])}
    reads = [
        n
        for n in ast.walk(fn)
        if (isinstance(n, ast.Constant) and n.value == ends)
        or (isinstance(n, ast.Attribute) and n.attr == ends)
        or (isinstance(n, ast.Name) and n.id == ends and isinstance(n.ctx, ast.Load))
    ]
    assert reads and all(id(n) in inside for n in reads)
    defined = [
        m.stem
        for m in SRC.glob("*.py")
        for n in ast.walk(ast.parse(m.read_text()))
        if isinstance(n, ast.FunctionDef) and n.name == "_level_index"
    ]
    assert defined == ["measures"]


def float_constants(path):
    """The names that the module at ``path`` binds to a float literal at top level."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.UnaryOp):
            value = value.operand
        if isinstance(value, ast.Constant) and isinstance(value.value, float):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_one_tolerance_policy():
    # a point, a level and a residual mass are compared with the tolerances
    # of measures (DEFAULT_TOL judges the verifiers' residuals and the walk's
    # overdraw alike, whatever the source's mass); the others are the
    # references' own
    found = {path.stem: float_constants(path) for path in SRC.glob("*.py")}
    assert found == {
        "__init__": set(),
        "measures": {"MASS_TOL", "POS_TOL", "POS_EPS", "DEFAULT_TOL"},
        "verify": set(),
        "shadow": set(),
        "oracle": {"CONTACT_EPS", "_PIVOT_EPS"},
        "curtain": set(),
        "pwl": set(),
        "decompose": set(),
        "cli": set(),
    }
