"""``benchmarks/conftest.py``'s report writer: one module's run must not
touch the committed outputs of the modules that did not run."""
import importlib.util
import pathlib

_CONFTEST = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"


def _load_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest_under_test", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_emit_truncates_only_its_own_module(tmp_path):
    sibling = tmp_path / "bench_sibling.txt"
    sibling.write_text("committed sibling output\n")
    own = tmp_path / "bench_own.txt"
    own.write_text("stale output from an earlier session\n")

    writer = _load_conftest().ReportWriter(tmp_path)
    writer.write("bench_own", "first block")
    writer.write("bench_own", "second block")

    assert sibling.read_text() == "committed sibling output\n"
    assert own.read_text() == "first block\n\nsecond block\n\n"
