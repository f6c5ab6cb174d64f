import os
import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

SUMMARY_PATH = Path(__file__).parent.parent / "acceptance_summary.txt"


def child_env(**extra):
    """Environment for a child `python -m airypng.cli` that imports the
    same `airypng` as this process, from any working directory.

    The directory holding the imported package goes first on PYTHONPATH as
    an absolute path (a relative `PYTHONPATH=src` resolves against the
    child's cwd); existing entries follow it.
    """
    import airypng
    root = str(Path(airypng.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return env


def certified_density(grid, n, L):
    """(P, dP/dxi_1) of the gap event of ``grid``, both gated by the
    package's refinement ladder, as ``tw2_pdf`` gates them on one time."""
    from airypng import fredholm
    return fredholm._certified(partial(fredholm._density_value, grid),
                               grid.thresholds, n, L, "density")


@pytest.fixture(scope="session")
def acceptance_log():
    lines = []
    yield lines
    if lines:
        SUMMARY_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print("\n".join(["", "=" * 72] + lines + ["=" * 72]))
