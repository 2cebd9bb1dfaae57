import importlib.util
from pathlib import Path

import numpy

SPANS = Path(__file__).resolve().parents[1] / "glsbench" / "spans.py"


def test_traced_benchmark_finds_every_hooked_name():
    # the traced benchmark run wraps package callables by name; a renamed or
    # deleted one makes install() raise
    spec = importlib.util.spec_from_file_location("glsbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    svd = numpy.linalg.svd
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert numpy.linalg.svd is svd
