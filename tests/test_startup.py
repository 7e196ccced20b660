"""Start-up of the package and of ``dpl``: imports that load no numpy, and the BLAS thread cap.

The cap only works if it is set before numpy loads, so these tests run fresh
interpreters: the test process has loaded numpy long before they start.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import darwinlab
from darwinlab.cli import main
from darwinlab.state import ModeSpec, synthesize
from darwinlab.stateio import write_state

SRC = Path(darwinlab.__file__).parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_python(code, *args, **env):
    """Run `code` in a fresh interpreter whose thread variables are only `env`."""
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                            os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=child_env,
                          capture_output=True, text=True, timeout=120)


class TestLazyImport:
    @pytest.mark.parametrize("module", ["darwinlab", "darwinlab.cli"])
    def test_import_loads_no_numpy(self, module):
        res = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_submodule_import_still_works(self):
        res = run_python("import json, darwinlab; from darwinlab import suites; "
                         "print(json.dumps([darwinlab.kgrid.__name__, suites.__name__]))")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == ["darwinlab.kgrid", "darwinlab.suites"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="thread count is read from /proc/self/status")
class TestThreadCap:
    PROBE = ("import sys\n"
             "from darwinlab.cli import main\n"
             "rc = main(sys.argv[1:])\n"
             "with open('/proc/self/status') as fh:\n"
             "    print(next(l.split()[1] for l in fh if l.startswith('Threads:')))\n"
             "sys.exit(rc)\n")

    @pytest.fixture(scope="class")
    def statefile(self, tmp_path_factory, g16):
        path = tmp_path_factory.mktemp("startup") / "state.dpst"
        write_state(path, synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=1.0,
                                               helicity=1)], g16))
        return path

    def threads(self, statefile, **env):
        res = run_python(self.PROBE, "check", statefile, "--suites", "algebra", **env)
        assert res.returncode == 0, res.stderr
        return int(res.stdout.splitlines()[-1])

    def test_one_thread_by_default(self, statefile):
        assert self.threads(statefile) == 1

    @pytest.mark.skipif(CPUS < 2, reason="a pool of 2 threads needs 2 CPUs")
    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS"])
    def test_explicit_count_is_honoured(self, statefile, var):
        assert self.threads(statefile, **{var: "2"}) == 2


class TestInProcessCall:
    def test_environment_left_unchanged(self, tmp_path, monkeypatch, g16):
        # numpy is loaded in this process, so the pools are already sized and
        # the thread variables must not leak into it or its later subprocesses
        path = tmp_path / "state.dpst"
        write_state(path, synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=1.0,
                                               helicity=1)], g16))
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        assert main(["check", str(path), "--suites", "algebra"]) == 0
        assert dict(os.environ) == before


def _import_time_imports(tree):
    """Top-level names of the modules an import of `tree` loads; function bodies excluded."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "").partition(".")[0]
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("filename", ["__init__.py", "cli.py"])
def test_entry_modules_import_only_the_standard_library(filename):
    # `dpl` loads these two before it caps the thread pools; a module-level
    # import of numpy, or of a darwinlab module that imports it, would start
    # the pools first and silently defeat the cap
    path = SRC / filename
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [name for name in _import_time_imports(tree)
                 if name not in sys.stdlib_module_names]
    assert offenders == []
