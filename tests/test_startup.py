"""Start-up of the package and of ``dpl``: lazy exports and the BLAS thread cap.

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
from darwinlab import ModeSpec, synthesize
from darwinlab.cli import main
from darwinlab.stateio import write_state

SRC = Path(darwinlab.__file__).parent
THREAD_VARS = ("DPL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# the package's public names, module by module; adding or dropping one is an API change
EXPORTS = {
    "algebra": ["GammaSet", "build_gamma_set", "build_sigma", "commutator_h_spin_residual",
                "hamiltonian_matrix", "helicity_frame", "helicity_vectors",
                "projected_spin_matrices", "spin_direction_spectrum", "transverse_projector",
                "verify_matrix_identities"],
    "dynamics": ["ConservationReport", "EvolutionResult", "MaxwellReport",
                 "continuity_and_conservation", "dirac_residual", "evolve",
                 "maxwell_residual"],
    "fieldbridge": ["ClassicalField", "ComplexFieldPair", "KernelCheckReport",
                    "classical_from_state", "extract_positive_frequency", "kernel_pair_check",
                    "nonlocal_relation_check", "state_from_classical"],
    "kgrid": ["Field", "KGrid", "k_gradient", "momentum_field", "position_field",
              "spectral_curl", "to_momentum", "to_position"],
    "observables": ["DensityCandidates", "ObservableReport", "density_candidates",
                    "nonlocal_spin_density", "oam_momentum", "oam_position",
                    "observable_report", "probability", "spin_canonical", "spin_projected"],
    "state": ["ModeSpec", "PhotonState", "branch_residual", "normalize", "synthesize",
              "transversality_residual"],
}

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

    def test_exports_are_the_module_attributes(self):
        listed = dir(darwinlab)
        for module, names in EXPORTS.items():
            owner = getattr(darwinlab, module)
            for name in names:
                assert getattr(darwinlab, name) is getattr(owner, name), name
                assert name in listed, name
        assert sorted(darwinlab.__all__) == sorted(n for names in EXPORTS.values() for n in names)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            darwinlab.no_such_name  # noqa: B018

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
    @pytest.mark.parametrize("var", ["DPL_THREADS", "OPENBLAS_NUM_THREADS"])
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


class TestThreadCapValidation:
    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_not_a_positive_integer_exits_2(self, value, monkeypatch, capsys, tmp_path):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("DPL_THREADS", value)
        assert main(["check", str(tmp_path / "missing.dpst")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "DPL_THREADS" in err
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_rejected_before_numpy_loads(self):
        res = run_python("import sys\n"
                         "from darwinlab.cli import main\n"
                         "rc = main(['check', 'missing.dpst'])\n"
                         "print('numpy' in sys.modules)\n"
                         "sys.exit(rc)\n", DPL_THREADS="abc")
        assert res.returncode == 2
        assert res.stdout.strip() == "False"
        assert len(res.stderr.splitlines()) == 1


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
