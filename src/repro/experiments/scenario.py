"""Canonical study scenarios shared by benchmarks, tests and examples.

Building a full study takes tens of seconds, so the scenarios are
memoized per process: every benchmark file reuses the same converged
study instead of rebuilding the world.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.pipeline import Study, StudyConfig, StudyResults, build_study_config

#: The seed every reported experiment uses.
DEFAULT_SEED = 0


@lru_cache(maxsize=None)
def default_study(seed: int = DEFAULT_SEED) -> StudyResults:
    """The full-scale scenario behind all reported tables and figures."""
    return Study(StudyConfig(seed=seed)).run()


@lru_cache(maxsize=None)
def quick_study(seed: int = DEFAULT_SEED) -> StudyResults:
    """A small scenario for fast tests (seconds, not half a minute).

    Delegates to :func:`repro.core.pipeline.build_study_config` so the
    quick parameter block has exactly one home — the CLI and this
    helper cannot drift apart.
    """
    config = build_study_config(seed=seed, scale="small")
    return Study(config).run()
