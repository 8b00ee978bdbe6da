"""The benchmark's per-layer tracer names program functions by string.

`perfbench/tracer.py` rebinds every name in its LAYERS table inside
`wellcov.<layer>`; a rename or deletion there would break the traced
benchmark run without failing any other test.  The tracer source is
executed into a fresh module object, so no file under `perfbench/` is
written or changed.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
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
