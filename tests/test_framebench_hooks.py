"""The frame benchmark's tracer patches program functions by name.

``framebench/tracing.py`` lists each hook as (owner, attribute) in
``TARGETS`` and installs it with ``owner.__dict__[attribute]``, so deleting
or moving one of those functions breaks ``framebench/run.py --trace 1``
while every other test still passes. The module is compiled from its
source here, so the test writes nothing under ``framebench/``.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "framebench" / "tracing.py"


def test_tracing_targets_still_defined():
    namespace = {"__name__": "framebench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert missing == []
