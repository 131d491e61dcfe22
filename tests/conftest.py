"""Shared fixtures for the test suite.

Randomized-suite reproducibility: every RNG entry point — the repo's
:func:`repro.utils.rng.make_rng` streams, numpy's legacy global state,
and the per-test ``fuzz_rng`` generators the differential suites draw
from — is seeded from the ``PYTEST_SEED`` environment variable
(decimal or ``0x..`` hex).  When the variable is unset the default is
the paper seed, so a plain ``pytest`` run reproduces the pinned
expectations exactly.  Failing tests print the active seed so any
randomized failure can be replayed with
``PYTEST_SEED=<seed> pytest <nodeid>``.
"""

import contextlib
import io
import json
import os
import signal
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nvdla.config import CoreConfig
from repro.utils.intrange import INT4, INT8
from repro.utils.rng import (
    GLOBAL_SEED,
    make_rng,
    set_global_seed,
    stable_hash,
)


def _seed_from_env() -> int:
    raw = os.environ.get("PYTEST_SEED")
    if raw is None:
        return GLOBAL_SEED
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise pytest.UsageError(
            f"PYTEST_SEED={raw!r} is not an integer "
            "(decimal or 0x-prefixed hex)"
        ) from exc


PYTEST_SEED = _seed_from_env()

# Redirect every make_rng stream (synthesized weights, inputs, biases,
# placement annealing, ...) at the chosen seed before any test module
# builds a model.  With PYTEST_SEED unset this is a no-op.
set_global_seed(PYTEST_SEED)


def pytest_report_header(config):
    return (
        f"randomized-suite seed: PYTEST_SEED={PYTEST_SEED} "
        f"({'default' if 'PYTEST_SEED' not in os.environ else 'from env'})"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append(
            (
                "randomized seed",
                f"PYTEST_SEED={PYTEST_SEED}  "
                f"(reproduce with: PYTEST_SEED={PYTEST_SEED} "
                f"pytest {item.nodeid!r})",
            )
        )


# ---------------------------------------------------------------------
# Hang watchdog for the serving suites.  The multi-process serving
# tests coordinate workers, queues and deadlines; a supervision bug
# tends to show up as an *indefinite block* on a queue, which would
# stall the whole suite instead of failing one test.  Every test under
# tests/serve/ therefore runs under a SIGALRM deadline
# (``SERVE_TEST_TIMEOUT`` seconds, default 120; 0 disables) that trips
# with the active randomized seed in the message, so a hung chaos test
# is reported as an ordinary replayable failure.
SERVE_TEST_TIMEOUT = float(os.environ.get("SERVE_TEST_TIMEOUT", "120"))


def _wants_watchdog(item) -> bool:
    return (
        SERVE_TEST_TIMEOUT > 0
        and hasattr(signal, "SIGALRM")  # unix only
        and threading.current_thread() is threading.main_thread()
        and "serve" in Path(str(item.fspath)).parts
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _wants_watchdog(item):
        yield
        return

    def _trip(signum, frame):
        raise TimeoutError(
            f"serve-test watchdog: {item.nodeid} still running after "
            f"{SERVE_TEST_TIMEOUT:g}s — likely a hung worker or queue "
            f"deadlock.  Replay with PYTEST_SEED={PYTEST_SEED} "
            f"pytest {item.nodeid!r} (raise/disable via the "
            "SERVE_TEST_TIMEOUT env var)."
        )

    previous = signal.signal(signal.SIGALRM, _trip)
    signal.setitimer(signal.ITIMER_REAL, SERVE_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _seed_numpy_global(request) -> None:
    """Pin numpy's legacy global RNG per test, derived from the session
    seed and the test id, so stray ``np.random.*`` draws are
    reproducible too."""
    np.random.seed(
        (PYTEST_SEED ^ stable_hash(request.node.nodeid)) & 0xFFFFFFFF
    )


@pytest.fixture(scope="session")
def fuzz_seed() -> int:
    """The session's randomized-suite seed (``PYTEST_SEED`` env var)."""
    return PYTEST_SEED


@pytest.fixture
def fuzz_rng(request) -> np.random.Generator:
    """Per-test generator for randomized differential suites: seeded
    from PYTEST_SEED plus the test's nodeid, so each test draws an
    independent, replayable stream."""
    return np.random.default_rng(
        [PYTEST_SEED & 0xFFFFFFFFFFFFFFFF, stable_hash(request.node.nodeid)]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return make_rng("tests")


@pytest.fixture
def small_config() -> CoreConfig:
    """A small array that keeps cycle-accurate sims fast."""
    return CoreConfig(k=2, n=4, precision=INT8)


@pytest.fixture
def int4_config() -> CoreConfig:
    return CoreConfig(k=2, n=2, precision=INT4)


@pytest.fixture(scope="session")
def paper_quick(tmp_path_factory) -> SimpleNamespace:
    """One ``python -m repro bench paper --quick`` run for the session,
    into a nested ``--out`` directory: its exit code, stdout, artifact
    directory and parsed ``BENCH_paper.json`` payload."""
    from repro.__main__ import main

    out_dir = tmp_path_factory.mktemp("paper") / "nested" / "artifacts"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bench", "paper", "--quick", "--out", str(out_dir)])
    artifact = out_dir / "BENCH_paper.json"
    return SimpleNamespace(
        code=code,
        stdout=stdout.getvalue(),
        out_dir=out_dir,
        payload=json.loads(artifact.read_text()) if code == 0 else None,
    )
