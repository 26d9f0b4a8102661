"""The benchmark's layer tracer wraps hexsaw functions by name; every
name it lists must exist, or a traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

from hexsaw.cyclo import Cyclo48
from hexsaw.strip import build_transfer

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


def test_transfer_hook_counts_the_operator():
    """--trace 1 counts each operator built: its states and transitions."""
    tracer = _load_tracer()
    tr = tracer.Tracer()
    op = build_transfer(3)
    tracer._HOOKS["strip.build_transfer"](tr, (3,), {}, op, 0.0, 0.0)
    assert tr.counts["strip.transfer.states"] == op.state_count
    assert tr.counts["strip.transfer.transitions"] == len(op.slot)
