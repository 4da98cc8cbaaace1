"""The benchmark's span tracer patches package names; keep them patchable.

``perfbench/spans.py`` wraps functions, classes and methods of ``hesslens``
by attribute name when a traced run starts.  A rename or deletion in the
package would fail only there, so install and uninstall it here.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

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
