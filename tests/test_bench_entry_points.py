"""The traced benchmark run (bench/layers.py) wraps package functions by
name.  Every name it lists must still exist, so that deleting or renaming
one fails here instead of crashing a traced run."""

import importlib.util
import os

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "layers.py")


def test_traced_entry_points_exist():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = ["%s (%s)" % (name, attr)
               for name, owner, attr, _note in layers.ENTRY_POINTS
               if attr not in owner.__dict__]
    assert missing == []
