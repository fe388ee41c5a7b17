"""Every function and method the per-layer tracer of the benchmark wraps
still exists where the tracer looks for it.

bench/tracer.py reads each traced method from its owner's own __dict__ and
each traced function from its module, so deleting, renaming or moving a
traced public name makes install() raise; this test runs it once.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_installs_and_uninstalls():
    tracer = load_tracer()
    modules = {
        name: importlib.import_module(f"{tracer.PACKAGE}.{name}")
        for _, name, _ in tracer.TARGETS
    }
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    t = tracer.Tracer()
    try:
        t.install()
        assert t._undo
    finally:
        t.uninstall()
    for name, mod in modules.items():
        assert dict(vars(mod)) == before[name]
