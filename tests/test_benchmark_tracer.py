"""The benchmark reaches into the package by name; keep those names alive.

``perfbench/spans.py`` wraps functions, classes and methods of ``hesslens``
by attribute name when a traced run starts, and ``perfbench/workloads.py``
reads attributes of attack reports.  A rename or deletion in the package
would fail only there, so check both here.
"""

import os
import re
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from hesslens import attacks  # noqa: E402
from oracles import tiny_models  # noqa: E402
from perfbench import spans  # noqa: E402


def test_tracer_installs_and_restores_every_patched_name():
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in spans._targets()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, original in before:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original


@pytest.mark.parametrize("name", ["fgsm", "fhsm"])
def test_attack_reports_expose_what_the_workloads_read(name):
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as f:
        read = set(re.findall(r"\brep\.(\w+)", f.read()))
    assert read >= {"x_adv", "eps", "pre_clamp_norms", "cg_converged", "dampings"}
    model = tiny_models()[0]
    x = np.full((2,) + model.in_shape, 0.5)
    report = attacks.attack_batch(model, model.init_params(seed=0), x,
                                  np.array([0, 1]), name, eps=0.01)
    assert [a for a in sorted(read) if not hasattr(report, a)] == []
