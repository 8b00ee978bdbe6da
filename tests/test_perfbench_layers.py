"""The benchmark names program functions and pins program output.

`perfbench/tracer.py` rebinds every name in its LAYERS table inside
`wellcov.<layer>`; a rename or deletion there would break the traced
benchmark run without failing any other test.  `perfbench/workloads.py`
records the digest of each `wellcov analyze` output it requests, and a
changed byte there would fail only the benchmark.  Each source is
executed into a fresh module object, so no file under `perfbench/` is
written or changed.
"""

import importlib
import sys
import types
from pathlib import Path

from wellcov import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str, monkeypatch) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = load("tracer", monkeypatch)
    missing = []
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"wellcov.{layer}")
        for name in names:
            target = getattr(module, name, None)
            if target is None:
                missing.append(f"{layer}.{name}")
            elif name in tracer.CLASSES and "__post_init__" not in vars(target):
                missing.append(f"{layer}.{name}.__post_init__")
    assert missing == []


def test_analyze_output_matches_the_recorded_digests(capsys, monkeypatch):
    # workloads.py imports its sibling streamgen; keep bytecode out of perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = load("workloads", monkeypatch)
    assert set(workloads.ANALYZE_EXPECTED) == set(workloads.SPECS)
    for spec, (digest, _) in workloads.ANALYZE_EXPECTED.items():
        assert cli.main(["analyze", spec]) == 0
        out = capsys.readouterr().out
        assert workloads.sha256(out) == digest, spec
