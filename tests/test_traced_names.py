"""The benchmark's span recorder finds every function it traces.

`perfbench/spans.py` wraps mdgsp functions by module and name, so a refactor
that renames or moves one of them stops a traced benchmark run; this catches
it in the ordinary test suite.
"""

import importlib.util
import sys
from pathlib import Path

import mdgsp.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_is_found_and_restored():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up by name
    main = mdgsp.cli.main
    try:
        spec.loader.exec_module(spans)
        patched = spans.install(spans.Recorder())  # raises TraceError on a missing name
        try:
            assert mdgsp.cli.main is not main
        finally:
            spans.uninstall(patched)
    finally:
        del sys.modules[spec.name]
    assert mdgsp.cli.main is main
