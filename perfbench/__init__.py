"""The hesslens benchmark (see README.md).

``BENCHMARK.json`` at the repository root names the workloads and the
metrics with their units; the code reads them from there and nowhere else.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(section):
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in file order."""
    return {m["name"]: m["unit"] for m in spec()[section]}


def workload_names():
    return tuple(w["name"] for w in spec()["workloads"])
