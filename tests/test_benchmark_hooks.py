"""The benchmark's tracer finds every function it wraps, by the names it uses.

`perfbench/spans.py` looks each traced function up by module and attribute
name and binds the arguments its count hooks read by parameter name, so a
rename in the package would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_function_resolves():
    missing, unbound = [], []
    for module, attr, _metric, hook in _targets():
        obj = importlib.import_module(f"raycanopy.{module}")
        try:
            for part in attr.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        if hook is not None:
            params = inspect.signature(obj).parameters
            read = re.findall(r'\ba\["(\w+)"\]', inspect.getsource(hook))
            unbound += [f"{module}.{attr}({name})" for name in read if name not in params]
    assert not missing, f"TARGETS name functions the package lacks: {missing}"
    assert not unbound, f"count hooks read parameters the functions lack: {unbound}"
