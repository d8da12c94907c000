"""Source-layout guards, checked on the syntax trees of src/ringflow and tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringflow"
TESTS = Path(__file__).resolve().parent
EIGENSOLVERS = {"eigh", "eigsh", "eigvalsh", "lobpcg", "_lobpcg"}


def _trees(*dirs):
    paths = sorted(p for d in dirs or (PACKAGE,) for p in d.glob("*.py"))
    assert PACKAGE / "eigen.py" in paths
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def test_one_eigensolver_call_in_eigen_module():
    # the in-house LOBPCG and one eigh, which serves both LOBPCG's start block
    # and its Rayleigh-Ritz step, nothing else
    calls = sorted(
        (name, _callee(node))
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) in EIGENSOLVERS
    )
    assert calls == [("eigen.py", "_lobpcg"), ("eigen.py", "eigh")], calls


def test_package_does_not_import_scipy():
    # numpy serves every numerical step; scipy is a test-only oracle
    modules = [
        (name, node.lineno, module)
        for name, tree in _trees()
        for node in ast.walk(tree)
        for module in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        )
    ]
    assert [m for m in modules if m[2].split(".")[0] == "scipy"] == []


def test_kernel_entries_read_only_by_dense_paths():
    # the N x N entries are for BackflowKernel.dense, eigen.py's LOBPCG start
    # block and verify.py's entry oracles; everything else uses the operator
    readers = {
        (name, func.name, _callee(node))
        for name, tree in _trees()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and _callee(node) in ("dense", "kernel_entries")
    }
    assert readers == {
        ("kernel.py", "dense", "kernel_entries"),
        ("eigen.py", "min_eigen", "kernel_entries"),
        ("verify.py", "beta_shift_deviation", "kernel_entries"),
        ("verify.py", "kernel_asymmetry", "dense"),
        ("verify.py", "check_kernel_entries", "dense"),
    }, readers


def test_no_assert_statements():
    # assert is stripped under python -O; checks must raise explicitly
    found = [
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_sinc_called_only_in_kernel_and_twomode():
    # kernel_entries is the one evaluation of the kernel formula; twomode's
    # closed forms are the only other sinc users
    callers = {
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "sinc"
    }
    assert callers == {"kernel.py", "twomode.py"}, callers


def _is_scaling_map(node) -> bool:
    # two_mode_p_min(0, 1, ...) / b, the right-hand side of the two-mode scaling map
    call = node.left if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) else None
    args = [getattr(a, "value", None) for a in getattr(call, "args", [])[:2]]
    return isinstance(call, ast.Call) and _callee(call) == "two_mode_p_min" and args == [0, 1]


def test_shared_oracles_written_only_in_verify():
    # ringflow.verify is the one home of what ringflow verify, the acceptance
    # gate and the unit tests share
    nodes = [(name, node) for name, tree in _trees(PACKAGE, TESTS) for node in ast.walk(tree)]
    defines = {n for n, node in nodes if isinstance(node, ast.FunctionDef)
               and node.name == "random_state"}
    assert defines == {"verify.py"}, defines
    scaling = {n for n, node in nodes if _is_scaling_map(node)}
    assert scaling == {"verify.py"}, scaling


def test_one_truncation_ladder_and_one_fit():
    # solve_ladder is the one place a solve starts from another's eigenvector,
    # and extrapolate.py holds the one least-squares fit
    lstsq = {name for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _callee(node) == "lstsq"}
    assert lstsq == {"extrapolate.py"}, lstsq
    started = {
        (name, func.name)
        for name, tree in _trees()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and _callee(node) == "min_eigen"
        and (len(node.args) > 1 or any(k.arg == "start" for k in node.keywords))
    }
    assert started == {("extrapolate.py", "solve_ladder")}, started


def _writes_a_file(call: ast.Call) -> bool:
    # open with a mode that writes, appends or creates, or a Path writer
    if _callee(call) in ("write_text", "write_bytes"):
        return True
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return _callee(call) == "open" and any(
        not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_only_manifest_writes_files():
    # manifest.py's _write_json and _write_csv write every data file and manifest
    writers = {(name, node.lineno) for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _writes_a_file(node)}
    assert {name for name, _ in writers} == {"manifest.py"}, writers


def test_outdir_made_only_by_emit():
    # cli._emit makes the outdir just before its first write, so a run that
    # fails leaves no outdir behind
    trees = _trees()
    makes = [node for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _callee(node) in ("mkdir", "makedirs")]
    makers = {
        (name, func.name)
        for name, tree in trees
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if node in makes
    }
    assert len(makes) == 1 and makers == {("cli.py", "_emit")}, makers


def test_commands_return_results_and_main_alone_emits():
    # each cmd_<name>(args) computes from its options and returns a Result;
    # main alone writes the outputs and manifest, prints and picks the exit code
    trees = _trees()
    cli = dict(trees)["cli.py"]
    commands = [f for f in cli.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 9
    for func in commands:
        assert [a.arg for a in func.args.args] == ["args"] and func.args.vararg is None, func.name
        calls = {_callee(node) for node in ast.walk(func) if isinstance(node, ast.Call)}
        assert not calls & {"_emit", "print"}, func.name
        returns = [node.value for node in ast.walk(func) if isinstance(node, ast.Return)]
        assert returns and all(isinstance(value, ast.Call) and _callee(value) == "Result"
                               for value in returns), func.name
    emitters = [
        (name, func.name)
        for name, tree in trees
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and _callee(node) == "_emit"
    ]
    assert emitters == [("cli.py", "main")], emitters


def test_write_csv_takes_no_row_format():
    # _write_csv formats every column as %.17g; no caller passes a row format
    trees = _trees()
    defs = [node for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_write_csv"]
    assert [[a.arg for a in d.args.args] for d in defs] == [["path", "head"]]
    formats = [
        (name, node.lineno)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "_write_csv"
        for arg in node.args
        if isinstance(arg, ast.Constant) and "%" in str(arg.value)
    ]
    assert formats == [], formats


def test_one_reduction_mod_two_pi():
    # kernel._turned is the one routine that counts whole turns, and so the one
    # that knows where the reduction stops holding; state.py forms no phase
    # product of its own
    rounders = [
        (name, func.name)
        for name, tree in _trees()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and _callee(node) == "rint"
    ]
    assert rounders == [("kernel.py", "_turned")], rounders
    state = dict(_trees())["state.py"]
    products = [node.lineno for node in ast.walk(state)
                if isinstance(node, ast.Call) and _callee(node) == "_two_prod"
                and any(isinstance(a, ast.Name) and a.id == "phase_rate" for a in node.args)]
    assert products == [], products
