"""The benchmark's layer tracer wraps hexsaw functions by name; every
name it lists must exist, or a traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

from hexsaw.cyclo import Cyclo48

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hexsaw_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _, _ in tracer.TARGETS
        if not hasattr(importlib.import_module(f"hexsaw.{modname}"), attr)
    ]
    missing += [f"Cyclo48.{op}" for op in tracer.CYCLO_OPS if op not in vars(Cyclo48)]
    assert not missing
