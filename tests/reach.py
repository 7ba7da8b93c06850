"""Defs of the package that nothing the package is for ever calls.

    python tests/reach.py

Under a `sys.setprofile` hook that records every Python function entered,
it runs what the name rule of tests/test_hygiene.py counts as reaching:
every argv of tests/corpus.py through `cli.main`, the acceptance tests
(tests/test_acceptance.py), and one 1 s run of each benchmark workload
(perfbench/run.py, untraced).  It then prints each def in src/morreykit,
methods and nested defs included, that was never called, skipping dunders
and the names that tests/test_hygiene.py keeps in UNREACHED, and exits 1
if it printed any, or if a stage failed.  The name rule misses a def whose
name is read elsewhere (a local variable, an attribute of another object);
this trace does not.  pytest does not collect this file.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "morreykit"
WORKLOADS = ("norm-cli", "decompose-trace", "campaign")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def defs(path: Path) -> dict:
    """{first line of the code object: qualified name} of every def in the
    file but dunders.  A decorated def's code starts at its first
    decorator."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[first] = prefix + name
                walk(child, f"{prefix}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


@contextlib.contextmanager
def profiled(called: set):
    """Add the code object of every Python function entered to called."""
    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)


def run_stages(called: set) -> list:
    """Run the corpus, the acceptance tests and the workloads under the
    hook; return a message per stage that failed."""
    import pytest
    failed = []
    corpus = _load(ROOT / "tests" / "corpus.py")
    with profiled(called):
        lines = list(corpus.run_all())
    print(f"corpus: {len(lines)} argvs", file=sys.stderr)
    with profiled(called):
        code = pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                            "-p", "no:cacheprovider"])
    if code != 0:
        failed.append(f"acceptance tests exited {code}")
    bench = _load(ROOT / "perfbench" / "run.py")
    bench.import_program()
    for name in WORKLOADS:
        with profiled(called), contextlib.redirect_stdout(io.StringIO()):
            result, _ = bench.run_workload(name, 1, 1.0, 0, 0.0)
        print(f"{name}: {result['attempted']} ops, {result['failed']} failed",
              file=sys.stderr)
        if result["failed"]:
            failed.append(f"{name}: {result['failed']} ops failed")
    return failed


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    import morreykit
    where = Path(morreykit.__file__).resolve().parent
    if where != SRC:
        print(f"morreykit imported from {where}, not {SRC}", file=sys.stderr)
        return 1
    kept = set(_load(ROOT / "tests" / "test_hygiene.py").UNREACHED)
    called = set()
    failed = run_stages(called)
    entered = {(Path(c.co_filename).resolve(), c.co_firstlineno)
               for c in called}
    total = 0
    never = []
    for path in sorted(SRC.glob("*.py")):
        for line, qualname in sorted(defs(path).items()):
            total += 1
            if (path, line) not in entered \
                    and qualname.rsplit(".", 1)[-1] not in kept:
                never.append(f"{path.relative_to(ROOT)}:{line} {qualname}")
    for line in never + failed:
        print(line)
    print(f"{len(never)} of {total} defs never called"
          f" ({len(kept)} kept in UNREACHED)", file=sys.stderr)
    return 1 if never or failed else 0


if __name__ == "__main__":
    sys.exit(main())
