"""Byte-for-byte pins of every ``fleet`` CLI mode.

One tiny run per mode — the scheduler x policy grid, ``--trace``,
``--tune``, the sharded trace scenario and ``--policy-store`` — pinned
by the sha256 of its stdout (INFO log lines included, the temporary
directory replaced by ``<tmp>``) and of every file it writes.  The
other CLI tests assert rows and exit codes; these fail on any changed
byte of a report, a summary artifact, a Chrome trace or a saved store.

Like the other golden suites, set ``REPRO_GOLDEN_SKIP=1`` on machines
whose BLAS rounds differently.  After an intentional output change,
print fresh pins with::

    PYTHONPATH=src python tests/test_fleet_mode_pins.py regen
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

import pytest

from repro.cli import main

#: Mode -> (argv after ``fleet``, files the run writes).  ``{tmp}`` is
#: the run's private directory; ``out.json`` is always the ``--out``.
MODES = {
    "grid": (
        ["--scenario", "surge", "--jobs", "2", "--scale", "0.001",
         "--scheduler", "fifo"],
        ("out.json",),
    ),
    "trace": (
        ["--scenario", "surge", "--jobs", "2", "--scale", "0.001",
         "--trace", "{tmp}/trace.json"],
        ("out.json", "trace.json", "trace.metrics.json"),
    ),
    "tune": (
        ["--scenario", "surge", "--jobs", "2", "--scale", "0.001",
         "--tune", "--seeds", "1"],
        ("out.json",),
    ),
    "sharded": (
        ["--scenario", "trace", "--jobs", "8", "--scale", "0.001"],
        ("out.json",),
    ),
    "store": (
        ["--scenario", "recurring", "--jobs", "3", "--scale", "0.002",
         "--scheduler", "fifo", "--tune", "--policy-store",
         "{tmp}/store.json"],
        ("out.json", "store.json"),
    ),
}

#: sha256 of stdout and of each written file, in ``MODES`` order.
PINS = {
    "grid": {
        "stdout": "a5a48b9df439718cfd5501df9c722f2ce8b75bccb8e687cbbe710669de49f5f2",
        "out.json": "fb756f0f2bf36f4bf9262e560be9b41580c7bc6bab018b6e050f4366f6231c9f",
    },
    "trace": {
        "stdout": "95dd5c487365214237448efa611198b1462105033f9b782d0976583423d4bfa5",
        "out.json": "3e21fdd7c2c7c612eea16333d259e871b07523af7f7d72579764a309dc765afe",
        "trace.json": "7709a44f760e7e2e9a4f7933b38953c1ec460c008a51cf46e96ab280fc07f122",
        "trace.metrics.json": "014ca12c51227b7e2183a57880c4c97e8227755599bf3f9fdf6dc1b764c3fe9b",
    },
    "tune": {
        "stdout": "670b9086ccb4ee50ba13ede283dfa53af94d2eb1f8de355416861f7ae2116999",
        "out.json": "56cd1c1346bcaf7fc4b71c269d779220c8a48b840ecea6ea70a851d8081e599e",
    },
    "sharded": {
        "stdout": "cb995d362d0249ba7b0fb337c54cdc1fcff34a0b233667b41b8c5bc242151bdf",
        "out.json": "e4100d41dfa7ebbcc9eeffc9becb9328d855a8f21c2e6ff8dbc73afad8562c7f",
    },
    "store": {
        "stdout": "22614c71d5d5eac9b2863d81e6f7f36b8cab212faba09f4670b84b2b56311e2d",
        "out.json": "4ef72a2235cdb4b5c0beb4cf20f5a2df7d704c2fd1eea6f3f484e2da63a8210f",
        "store.json": "8501727fea7dc3e5d95a447cc44ebb6e09b3fc44852dd50ea72335fd05aecdd7",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_fleet_mode(mode: str, tmp: Path) -> dict[str, str]:
    """Run one mode into ``tmp``; the digests :data:`PINS` records."""
    argv, files = MODES[mode]
    argv = [arg.format(tmp=tmp) for arg in argv]
    out = tmp / "out.json"
    stdout = tmp / "stdout.txt"
    real_stdout = sys.stdout
    with stdout.open("w", encoding="utf-8") as sink:
        sys.stdout = sink
        try:
            code = main(["fleet", *argv, "--out", str(out)])
        finally:
            sys.stdout = real_stdout
    assert code == 0
    text = stdout.read_text(encoding="utf-8").replace(str(tmp), "<tmp>")
    digests = {"stdout": _digest(text.encode("utf-8"))}
    for name in files:
        digests[name] = _digest((tmp / name).read_bytes())
    return digests


@pytest.fixture
def fresh_env(tmp_path, monkeypatch):
    if os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0"):
        pytest.skip("REPRO_GOLDEN_SKIP set (BLAS float bits differ here)")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    return run_dir


@pytest.mark.parametrize("mode", MODES)
def test_fleet_mode_output_is_pinned(mode, fresh_env):
    assert run_fleet_mode(mode, fresh_env) == PINS[mode]


if __name__ == "__main__" and sys.argv[1:] == ["regen"]:
    import tempfile

    fresh = {}
    for name in MODES:
        with tempfile.TemporaryDirectory() as scratch:
            os.environ["REPRO_CACHE_DIR"] = str(Path(scratch) / "cache")
            os.environ.pop("REPRO_JOBS", None)
            run_dir = Path(scratch) / "run"
            run_dir.mkdir()
            fresh[name] = run_fleet_mode(name, run_dir)
    print("PINS = {")
    for name, digests in fresh.items():
        print(f'    "{name}": {{')
        for key, value in digests.items():
            print(f'        "{key}": "{value}",')
        print("    },")
    print("}")
