"""The Spark driver heap that the root conftest picks before the JVM starts."""
import importlib.util
import io
from pathlib import Path

import pytest

ROOT_CONFTEST = Path(__file__).resolve().parents[1] / "conftest.py"
GIB_KB = 1 << 20


@pytest.fixture
def driver_mem(monkeypatch):
    """The root conftest's ``_driver_mem`` with its file reads stubbed.

    ``driver_mem(files)`` runs it with no ``SPARK_DRIVER_MEM`` set, where
    ``files`` maps a path to its text and every other path is missing.
    """
    spec = importlib.util.spec_from_file_location("root_conftest", ROOT_CONFTEST)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)

    def run(files: dict[str, str]) -> str:
        def fake_open(path, *args, **kwargs):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])

        monkeypatch.setattr(mod, "open", fake_open, raising=False)
        return mod._driver_mem()

    return run


def meminfo(kb: int) -> dict[str, str]:
    return {"/proc/meminfo": f"MemFree:  1024 kB\nMemTotal:       {kb} kB\n"}


def test_no_cgroup_limit_takes_half_the_host_memory_up_to_8g(driver_mem):
    assert driver_mem(meminfo(16 * GIB_KB)) == "8g"


@pytest.mark.parametrize("gib, want", [(1, "2g"), (6, "3g"), (15, "7g"), (256, "8g")])
def test_host_memory_rule_is_clamped_to_2_to_8g(driver_mem, gib, want):
    assert driver_mem(meminfo(gib * GIB_KB)) == want


def test_unlimited_cgroup_falls_through_to_host_memory(driver_mem):
    files = meminfo(16 * GIB_KB) | {"/sys/fs/cgroup/memory.max": "max\n"}
    assert driver_mem(files) == "8g"


def test_cgroup_limit_takes_precedence(driver_mem):
    files = meminfo(16 * GIB_KB) | {"/sys/fs/cgroup/memory.max": f"{4 << 30}\n"}
    assert driver_mem(files) == "3g"


def test_nothing_readable_gives_2g(driver_mem):
    assert driver_mem({}) == "2g"


def test_env_override_wins(driver_mem, monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "5g")
    assert driver_mem(meminfo(16 * GIB_KB)) == "5g"
