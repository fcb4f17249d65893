"""The package decides its arithmetic conventions in `weylcore` alone: one
root-of-unity table, one pole threshold, one polynomial product.  The
rational-slice shift polynomials have one home too, `baxter.shift_polys`,
and the package's one polynomial fit is the DFT of `baxter.plus_pairing_coeffs`.
The commutator check builds one dense T(1) per call, reads it as its 2^L
shift diagonals, and forms, diagonal by diagonal and never densely, only
the pairs whose x-degrees differ, the degree taken from the shift pattern.  The
dense transfer matrix is laid out from the Weyl path table, and the
L-operator chain that the tests hold it to, in `tests/oracle.py`, shares
none of that machinery.
The package holds only what a command runs or the benchmark holds: no
definition under `src/` is reached from the tests alone.  Only `transfer`
reads the path-entry table behind T(x), and the Theorem 1 check forms no e or o
vector: (i) is one weight row on the node rows that the (ii) plus rows read.
The curve's A, B, C, D are one y-coefficient array that `curves` evaluates
with no polynomial objects and no import from the Bethe solver.  A point of
the rational curve is two arrays x and l, taken alike by both Baxter checks,
and a set of points of the curve W is three arrays x, xi0 and xi2, whose one
fiber average is `averaged_baxter`.  The (N, L) geometry tables behind T(x)
are cached, and every cache is bounded.  The Bethe solver holds Lambda and Q
as ascending arrays; `ComplexPolynomial` is only the record it exports.
What an integer is, `weylcore` alone decides: `check_int` refuses the rest.
Every command sizes every branch it runs before its first N: its size
refusal sits under no `if`."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import hofchain
import oracle
from hofchain import baxter, bethe, cli, curves, transfer, weylcore

SRC = Path(__file__).resolve().parent.parent / "src" / "hofchain"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((SRC.parent.parent / "tests").glob("*.py"))
ORACLE = SRC.parent.parent / "tests" / "oracle.py"
PERFBENCH = sorted((SRC.parent.parent / "perfbench").glob("*.py"))
RUN_FILES = tuple(SRC / name
                  for name in ("transfer.py", "weylcore.py", "cli.py"))

# the fast path behind T(x) and the sector blocks: the oracle imports and
# reaches none of it
FAST_PATH = frozenset({"path_table", "path_weights", "_path_entries",
                       "_path_columns", "weyl_monomial", "sector_monomial",
                       "sector_orbits", "sector_pencil", "transfer_T"})

# reached by no command, but named by perfbench (its wrapped targets and
# workloads) or called by a name it names; they leave with ROADMAP item 5
PERFBENCH_HELD = frozenset({
    "kron", "sector_basis", "sector_project", "TransferPencil",
    "transfer_pencil", "sector_pencil", "sector_spectrum",
    "hofstadter_hamiltonian", "baxter_vector", "sector_vectors",
    "oracle_spectrum", "cluster_eigenvalues", "sample_W", "epsilon_rank"})


def _indexed_product(node):
    """The base of a product of constant-index subscripts x[0] * x[1] ..., else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left, right = _indexed_product(node.left), _indexed_product(node.right)
        return left if left is not None and left == right else None
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return ast.unparse(node.value)
    return None


def _sum_terms(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _sum_terms(node.left) + _sum_terms(node.right)
    return [node]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_conventions_stay_in_one_place(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("omega_pows", "polynomial"), node.lineno
        elif isinstance(node, ast.Import):
            assert not any("polynomial" in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "polynomial" not in (node.module or "")
            assert not any(a.name == "polynomial" for a in node.names)
        elif isinstance(node, ast.FunctionDef):
            assert node.name != "omega_pows"
        elif isinstance(node, ast.Constant) and node.value == 1e-13:
            # the pole threshold is weylcore.POLE_TOL
            assert path.name == "weylcore.py", node.lineno


def test_shift_polynomials_have_one_home():
    assert bethe.shift_polys is baxter.shift_polys
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.FunctionDef)
                       and node.name == "_shift_polys"
                       for node in ast.walk(tree)), path.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_symmetric_sums(path):
    # c[0] + c[1] + c[2] and c[0] * c[1] + ... are coefficients of
    # Delta_+(x, 0); `shift_polys` gives them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            bases = {_indexed_product(t) for t in _sum_terms(node)}
            assert len(bases) > 1 or None in bases, (path.name, node.lineno)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_least_squares_fit(path):
    # plus_pairing_coeffs interpolates exactly on equispaced nodes; no
    # Vandermonde matrix, least-squares solve or separate node sampler
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("lstsq", "vander"), node.lineno
        elif isinstance(node, ast.Name):
            assert node.id not in ("lstsq", "vander"), node.lineno
        elif isinstance(node, ast.FunctionDef):
            assert node.name != "_fit_nodes", node.lineno


def _called_names(fn):
    return {node.func.id for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_commutator_check_forms_no_dense_product():
    # commutator_residual and the transfer helpers it reaches, other than
    # the dense builder transfer_T, which they must read and not bypass, and
    # _path_columns, the chain-free (N, L) geometry of the path table from
    # which _shift_diagonals reads its columns
    tree = ast.parse((SRC / "transfer.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    assert "transfer_T" in _called_names(defs["commutator_residual"])
    assert "_path_columns" in _called_names(defs["_shift_diagonals"])
    assert [a.arg for a in defs["_path_columns"].args.args] == ["N", "L"]
    assert not _called_names(defs["_path_columns"]) & {"path_weights",
                                                       "_path_entries"}
    checked, todo = set(), ["commutator_residual"]
    while todo:
        name = todo.pop()
        checked.add(name)
        todo += ((_called_names(defs[name]) & defs.keys()) - checked
                 - {"transfer_T", "_path_columns"})
    assert len(checked) > 1, checked
    for name in checked:
        for node in ast.walk(defs[name]):
            assert not (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.MatMult)), (name, node.lineno)
            ref = (node.attr if isinstance(node, ast.Attribute)
                   else node.id if isinstance(node, ast.Name) else None)
            assert ref not in ("dot", "matmul", "tensordot", "einsum",
                               "path_table", "path_weights",
                               "_path_entries"), (name, node.lineno)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_power_sum_over_the_transfer_terms(path):
    # transfer_apply adds each path of _path_entries into one output; a reader
    # elsewhere would lay the path table out again with its own powers of x
    refs = {node.attr if isinstance(node, ast.Attribute) else
            node.id if isinstance(node, ast.Name) else node.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias))}
    assert path.name == "transfer.py" or "_path_entries" not in refs
    assert "transfer_terms" not in refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # a cache keeps its tables for the life of the process, so each one
    # names a fixed integer maxsize: no functools.cache, no lru_cache(None)
    # and no bare @lru_cache
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            assert node.name != "cache", path.name
        elif isinstance(node, ast.Attribute):
            assert ast.unparse(node) != "functools.cache", node.lineno
        if (node.attr if isinstance(node, ast.Attribute) else node.id
                if isinstance(node, ast.Name) else None) == "lru_cache":
            call = calls.get(id(node))
            assert call is not None, (path.name, node.lineno)
            (size,) = call.args or [k.value for k in call.keywords
                                    if k.arg == "maxsize"]
            assert isinstance(size, ast.Constant) \
                and type(size.value) is int and size.value > 0, node.lineno


def test_the_geometry_tables_are_cached_and_bounded():
    # the walk above has caches to read, and each reports its bound
    found = {name: fn.cache_parameters()["maxsize"]
             for module in (weylcore, transfer, baxter, bethe, curves, cli)
             for name, fn in vars(module).items()
             if hasattr(fn, "cache_parameters")}
    assert {"_digits", "path_table", "_path_columns"} <= found.keys()
    assert all(type(size) is int for size in found.values()), found


def test_theorem1_forms_no_e_or_o_vectors():
    # sector_vectors forms the e and o rows, which Theorem 1 reads only
    # through the weight row of (i); the kept name is the same function
    assert baxter.theorem1_ii_residual is baxter.theorem1_residual
    tree = ast.parse((SRC / "baxter.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["theorem1_residual"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += (_called_names(defs[name]) & defs.keys()) - reached
    assert {"_plus_weights", "_node_rows"} <= reached
    assert "sector_vectors" not in reached


def _reached(*roots, files=RUN_FILES):
    """Every name referenced from roots across the files (by default
    transfer.py, weylcore.py and cli.py), following the functions they name
    and the methods of the classes."""
    defs = {}
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = [node]
            elif isinstance(node, ast.ClassDef):
                defs[node.name] = [n for n in node.body
                                   if isinstance(n, ast.FunctionDef)]
    refs, todo = set(), list(roots)
    while todo:
        for fn in defs[todo.pop()]:
            for node in ast.walk(fn):
                ref = (node.attr if isinstance(node, ast.Attribute)
                       else node.id if isinstance(node, ast.Name) else None)
                if ref in defs and ref not in refs and ref not in roots:
                    todo.append(ref)
                refs.add(ref)
    return refs


def test_dense_transfer_and_its_oracle_are_independent():
    # transfer_T lays out the path table; the oracle's chain_L(...).trace_aux()
    # multiplies local L-operators, so each checks the other.  The oracle
    # side is tests/oracle.py with the package modules it imports from
    fast = _reached("transfer_T")
    assert {"path_table", "path_weights", "weyl_monomial"} <= fast
    assert not fast & {"chain_L", "local_L", "kron", "BlockOperator2x2"}
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    assert not {a.name for node in imports for a in node.names} & FAST_PATH
    sources = {node.module for node in imports}
    assert "hofchain.weylcore" in sources and "hofchain.transfer" not in sources
    files = [ORACLE] + [SRC / f"{module.split('.')[1]}.py" for module in
                        sorted(sources) if module.startswith("hofchain.")]
    roots = [node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert {"chain_L", "local_L", "BlockOperator2x2"} <= set(roots)
    reached = _reached(*roots, files=files)
    assert {"kron", "weyl_matrices", "identity_op", "aux_product"} <= reached
    assert not reached & FAST_PATH


def test_sector_suites_and_their_oracle_are_independent():
    # degeneracy and divisibility reduce the sector blocks and lift their
    # eigenvectors from the path tables, with no N^2 x N^2 array; the dense
    # reduction in the tests reads a dense block and none of that machinery
    fast = _reached("_suite_degeneracy", "_suite_divisibility")
    assert {"commutant_reduction", "sector_left_eigenvectors",
            "path_monomials", "sector_monomial"} <= fast
    assert not fast & {"sector_pencil", "transfer_T", "sector_basis",
                       "sector_project", "solve", "slogdet"}
    tree = ast.parse((SRC.parent.parent / "tests" / "test_commutant.py")
                     .read_text(encoding="utf-8"))
    (oracle,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "dense_reduction"]
    assert "sector_monomial" in _called_names(oracle)
    assert not _called_names(oracle) & {
        "commutant_reduction", "path_monomials", "sector_left_eigenvectors",
        "lift", "sector_pencil"}


def test_no_max_or_min_over_a_bare_generator():
    # max(r for r in ...) drops a NaN that does not come first; residuals
    # go through weylcore.worst, which returns NaN if any residual is NaN
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("max", "min")
                  and len(node.args) == 1 and not node.keywords
                  and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp,
                                                ast.SetComp))]
    assert sites == []


def test_one_worst_reduction():
    from hofchain import cli, weylcore
    assert not hasattr(cli, "_worst")
    assert cli.worst is weylcore.worst and oracle.worst is weylcore.worst


def test_curve_polynomials_are_one_array():
    # abcd_polys returns the product's coefficients; eta_roots evaluates
    # them at y and rebuilds nothing from the chain
    tree = ast.parse((SRC / "curves.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.ImportFrom) and "bethe" in (
        node.module, *(a.name for a in node.names)) for node in ast.walk(tree))
    assert list(inspect.signature(curves.eta_roots).parameters) == ["y", "P"]
    for path in MODULES + TESTS:
        assert "ABCDPolys" not in _names(path), path.name


def _names(path) -> set:
    """Every attribute, name, import, class and function that path names."""
    return {node.attr if isinstance(node, ast.Attribute) else
            node.id if isinstance(node, ast.Name) else node.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias,
                                 ast.ClassDef, ast.FunctionDef))}


def test_rational_points_are_plain_arrays():
    # a point (x, l) of the rational curve is two arrays that broadcast, with
    # no point class and no shift map; both Baxter checks take it alike
    for path in MODULES + TESTS:
        assert not _names(path) & {"RationalPoint", "tau"}, path.name
    assert [list(inspect.signature(fn).parameters) for fn in (
        baxter.t_action_residual, baxter.theorem1_residual)] == [
        ["chain", "x", "l", "ctx"]] * 2
    assert list(inspect.signature(baxter.delta_pm).parameters)[:3] == [
        "x", "l", "sign"]


def test_curve_points_are_plain_arrays():
    # a set of W points is three arrays x, xi0, xi2 that broadcast, with no
    # point class, no restacking and no second fiber average; the descended
    # check takes them as the rational-curve checks take (x, l)
    for path in MODULES + TESTS:
        assert not _names(path) & {"WPoint", "_stack", "_averaged_rows",
                                   "evaluation_vectors"}, path.name
    assert list(inspect.signature(curves.descended_t_residual).parameters) \
        == ["chain", "x", "xi0", "xi2", "ctx"]
    for fn in (curves.averaged_baxter, curves.descended_delta, curves.tau_W):
        assert list(inspect.signature(fn).parameters)[:3] == ["x", "xi0", "xi2"]


def test_the_bethe_record_stays_a_record():
    # bethe computes on coefficient arrays: ComplexPolynomial is the
    # exported Lambda or Q of a BetheSolution, made in _solution alone
    (cls,) = [node for node in ast.parse((SRC / "bethe.py").read_text(
        encoding="utf-8")).body if isinstance(node, ast.ClassDef)
        and node.name == "ComplexPolynomial"]
    assert [node.name for node in cls.body
            if isinstance(node, ast.FunctionDef)] == ["degree"]
    makers = set()
    for path in MODULES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "ComplexPolynomial" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    makers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert makers == {"bethe._solution"}
    for path in MODULES + TESTS:
        assert not _names(path) & {"_lambda_poly", "from_array"}, path.name


def _package_walk(*roots):
    """(defs, reached): every top-level function and class of src/hofchain
    by (module, name), and the (module, name) of every package name reached
    from the roots, given as (module, name), and from each module's
    top-level code other than definitions and imports.  A name is followed
    through its module's `from .x import` aliases to the definition, and a
    reached definition's whole body is walked."""
    defs, scopes, todo = {}, {}, []
    for path in MODULES:
        module = path.stem
        scope = scopes[module] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                scope[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    scope.update({a.asname or a.name:
                                  (node.module or "__init__", a.name)
                                  for a in node.names})
            elif not isinstance(node, ast.Import):
                todo.append((module, node))
                scope.update({t.id: (module, t.id) for t in ast.walk(node)
                              if isinstance(t, ast.Name)
                              and isinstance(t.ctx, ast.Store)})

    def resolve(key):
        while scopes.get(key[0], {}).get(key[1], key) != key:
            key = scopes[key[0]][key[1]]
        return key

    todo += [(key[0], defs[key]) for key in roots]
    reached = set()
    while todo:
        module, node = todo.pop()
        for ref in ast.walk(node):
            if isinstance(ref, ast.Name) and ref.id in scopes[module]:
                key = resolve((module, ref.id))
                if key not in reached:
                    reached.add(key)
                    if key in defs:
                        todo.append((key[0], defs[key]))
    return defs, reached


def test_the_package_holds_only_what_runs():
    # every definition under src/ is reached from a command or held by
    # perfbench; what only the tests reach lives under tests/
    defs, reached = _package_walk(("cli", "main"))
    assert len(defs) > 100
    unreached = {name for _, name in defs.keys() - reached}
    assert unreached <= PERFBENCH_HELD, sorted(unreached - PERFBENCH_HELD)
    # the allow-list holds no name that a command reaches, and each of its
    # names is named in perfbench or called by one that is
    reached_names = {name for _, name in reached}
    assert not reached_names & PERFBENCH_HELD
    named = {name for name in PERFBENCH_HELD for path in PERFBENCH
             if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))}
    _, held = _package_walk(*(key for key in defs if key[1] in named))
    held_names = named | {name for _, name in held}
    assert PERFBENCH_HELD <= held_names, sorted(PERFBENCH_HELD - held_names)
    for name in hofchain.__all__:
        assert hasattr(hofchain, name), name
        assert name in reached_names | PERFBENCH_HELD, name


def test_no_duplicate_ansatz_or_fiber_root_wrappers():
    # BetheSolution.ansatz_residuals holds what bethe_ansatz_residuals
    # recomputed, and eta_roots returns its degenerate mask with the roots
    for path in MODULES + TESTS:
        assert not _names(path) & {"bethe_ansatz_residuals", "_eta_roots"}, \
            path.name


def test_one_integer_rule():
    # is_int and check_int in weylcore decide every integer the package
    # takes: no other module tests a type or a dtype for one, and RunConfig
    # checks N and P with check_context, which builds no root table
    for path in MODULES:
        tests = {node.attr for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and (
                node.attr in ("Integral", "unsignedinteger") or node.attr
                == "kind" and getattr(node.value, "attr", None) == "dtype")}
        assert not tests or path.name == "weylcore.py", (path.name, tests)
    for path in MODULES + TESTS:
        assert not _names(path) & {"_check_label", "_check_sector"}, path.name
    (post_init,) = [node for node in ast.walk(ast.parse(
        (SRC / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
    called = {getattr(node.func, "id", None) for node in ast.walk(post_init)
              if isinstance(node, ast.Call)}
    assert "check_context" in called and "make_context" not in called


def test_every_command_refuses_before_it_runs():
    # each cmd_* calls _refuse_oversized as a statement of its own body, so
    # no branch of it (solve's --L 1 and 2 were unsized) runs unsized
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")]
    assert len(commands) == 4, [fn.name for fn in commands]
    for fn in commands:
        top = {ast.unparse(stmt.value.func) for stmt in fn.body
               if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)}
        assert "_refuse_oversized" in top, fn.name
