"""Import shim kept for ``perfbench/workloads.py``.

The study-as-a-service daemon that lived here is gone.  The package
holds only :mod:`repro.serve.protocol`, which re-exports the canonical
study-config builder from the module path the benchmark imports it
from; see that module for when both files go.
"""
