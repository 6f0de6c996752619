"""Shared helpers for the benchmark suites.

Each suite's pytest entry points print a timing table and save it under
``benchmarks/out/`` so the numbers survive pytest's output capture.  The
paper's own numbers are checked by ``repro report`` (``repro.perf.claims``).
"""
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


class ReportWriter:
    """Persists report blocks to ``<directory>/<module>.txt``.

    A module's file starts fresh the first time that module emits in a
    session and is appended to afterwards; files of modules that did not
    run are left as they were.
    """

    def __init__(self, directory: pathlib.Path):
        self.directory = pathlib.Path(directory)
        self._started: set[str] = set()

    def write(self, module: str, text: str) -> None:
        self.directory.mkdir(exist_ok=True)
        mode = "a" if module in self._started else "w"
        self._started.add(module)
        with open(self.directory / f"{module}.txt", mode) as fh:
            fh.write(text + "\n\n")


@pytest.fixture(scope="session")
def report_writer():
    return ReportWriter(OUT_DIR)


@pytest.fixture()
def emit(report_writer, request):
    """Print a report block and persist it to out/<test_module>.txt."""

    def _emit(text: str):
        print()
        print(text)
        report_writer.write(request.module.__name__, text)

    return _emit
