"""The names that users and the benchmark tracer rely on all resolve, and
no function or method of the package, public or private, takes a per-call
tolerance, rank or cap override. Neither
importing the package nor running a sample problem changes numpy's ufunc
buffer size or error settings.

``perfbench/spans.py`` wraps each (module, qualname) in its ``TARGETS`` and
fails with AttributeError at install time if one is gone, which would break
every traced benchmark run. The file is loaded by path and not modified.
"""

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np

import liprec
from liprec import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_public_name_resolves():
    assert len(set(liprec.__all__)) == len(liprec.__all__)
    missing = [name for name in liprec.__all__ if not hasattr(liprec, name)]
    assert missing == []


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, qualname, _ in spans.TARGETS:
        module = importlib.import_module(f"liprec.{module_name}")
        if "." in qualname:  # a method: install() reads the class's own namespace
            cls_name, attr = qualname.split(".")
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, qualname, None))
        if not found:
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def _is_override(name):
    return name.startswith("tol") or name in ("rank_tol", "cap")


def _module_callables():
    """Every function, method, classmethod and staticmethod defined in the
    package's own modules, private ones included, by qualified name."""
    for info in pkgutil.iter_modules(liprec.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"liprec.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported, not defined here
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)  # class/staticmethods
                    if inspect.isfunction(func):
                        yield f"{info.name}.{name}.{attr}", func


def test_no_public_call_takes_a_tolerance_rank_or_cap_override():
    # TOL_*, RANK_TOL and ENUMERATION_CAP are the package's fixed policy:
    # no exported function, method or classmethod lets a caller change one,
    # and no private one does either, so each reads the constants itself.
    found, scanned = [], set()
    for name in liprec.__all__:
        obj = getattr(liprec, name)
        callables = [(name, obj)] if callable(obj) else []
        if inspect.isclass(obj):
            callables += [(f"{name}.{attr}", getattr(obj, attr))
                          for attr, member in vars(obj).items()
                          if isinstance(member, (classmethod, staticmethod))
                          or inspect.isfunction(member)]
        for qualname, func in [*callables, *_module_callables()]:
            try:
                params = inspect.signature(func).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            scanned.add(qualname)
            found += [f"{qualname}({p})" for p in params if _is_override(p)]
    assert found == []
    # the walk reaches classmethods and methods, not only functions, and
    # the private helpers of every module
    assert {"LabeledSet.from_arrays", "MwetHypothesis.evaluate", "rip_delta",
            "lipschitz._scan_sample", "lipschitz._tight", "covering._cell_indices",
            "core.LabeledSet._find_duplicate", "mwet.MwetHypothesis._evaluate_rows",
            "cli.run_certify"} <= scanned


def _numpy_state():
    return np.getbufsize(), np.geterr()


def test_import_keeps_the_numpy_state():
    # The kernels set numpy's ufunc buffer inside their own blocks only:
    # importing the package leaves the buffer size and error settings of a
    # fresh interpreter as numpy sets them.
    code = ("import numpy as np\n"
            "before = (np.getbufsize(), np.geterr())\n"
            "import liprec\n"
            "print(before == (np.getbufsize(), np.geterr()), np.getbufsize())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["True", "8192"]


def test_every_problem_keeps_the_callers_numpy_state(tmp_path):
    # `liprec run` on every sample problem, in this process, under a
    # caller's own ufunc buffer size and error settings: both are as the
    # caller set them after each run.
    old_err = np.seterr(all="ignore")
    old_size = np.setbufsize(1 << 12)
    try:
        state = _numpy_state()
        for problem in sorted((ROOT / "problems").glob("*.json")):
            cli.main(["run", str(problem), "--out", str(tmp_path / problem.name)])
            assert _numpy_state() == state, problem.name
    finally:
        np.setbufsize(old_size)
        np.seterr(**old_err)
