"""Re-export of :func:`repro.core.pipeline.build_study_config`.

``perfbench/workloads.py`` imports the builder from this path at
module top, and the benchmark's files change only together with the
benchmark.  The next change to ``perfbench/`` imports it from
:mod:`repro.core.pipeline` and deletes this file and the package's
``__init__.py``.
"""

from repro.core.pipeline import build_study_config

__all__ = ["build_study_config"]
