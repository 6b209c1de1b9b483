"""The run environment recorded in every result, so noisy runs show."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


#: Every process under test runs with this ``PYTHONHASHSEED``.  Label
#: names are strings, so the hash seed orders the label sets and dicts
#: the engine iterates: on ``rpq_sets_cold``, hash seeds 1, 2 and 3 gave
#: after-update latencies of 15.2, 12.9 and 13.1 ms, each within 3% in
#: a second run.  Drawn afresh per process, it was run-to-run noise.
HASH_SEED = "0"


def child_env(root: Path, tmp: Path) -> dict:
    """The environment of a process under test: ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    env["TMPDIR"] = str(tmp)
    return env


def _cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()[1:9]
    return [int(value) for value in fields]


def _load_1m() -> float:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return float(handle.read().split()[0])


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # a plain checkout; src_sha256 still names the code
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` (paths and bytes): names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


class EnvironmentProbe:
    """Samples CPU steal and load average at the start and end of a run."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._cpu_start = _cpu_times()
        self._load_start = _load_1m()

    def finish(self) -> dict:
        cpu_end = _cpu_times()
        deltas = [end - start for start, end in zip(self._cpu_start, cpu_end)]
        total = sum(deltas)
        return {
            "git_sha": _git_sha(self.root),
            "src_sha256": source_digest(self.root),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "python_hash_seed_under_test": HASH_SEED,
            "platform": platform.platform(),
            "cpu_steal_share": deltas[7] / total if total else 0.0,
            "cpu_busy_share": 1.0 - (deltas[3] + deltas[4]) / total if total else 0.0,
            "load_1m_start": self._load_start,
            "load_1m_end": _load_1m(),
        }
