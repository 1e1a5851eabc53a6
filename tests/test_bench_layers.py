"""The names the benchmark's traced run wraps must exist in the package.

``bench/layers.py`` wraps functions and methods by name; a renamed or
removed name would otherwise surface only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import ridgecover.cli
import ridgecover.coverage
import ridgecover.kde
import ridgecover.risk
import ridgecover.scms

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

OWNERS = (
    ridgecover.cli,
    ridgecover.coverage,
    ridgecover.kde,
    ridgecover.risk,
    ridgecover.scms,
    ridgecover.risk.RiskCurve,
    ridgecover.scms.RidgeSet,
)


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_restores_them():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_layers().Tracer()
    try:
        tracer.install()
        assert tracer._patched
        for owner, attr, original in tracer._patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, saved in zip(OWNERS, before):
        for attr, value in saved.items():
            assert vars(owner)[attr] is value, f"{owner.__name__}.{attr} not restored"
