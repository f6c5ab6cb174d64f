import importlib
import re
from pathlib import Path

import airypng
from airypng import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# removed public names, each with the public entry that does its work
REMOVED = {"gauss_legendre": "panel_rule", "QuadratureRule": "panel_rule",
           "LatticePoint": "ktilde_matrix", "k_tilde": "ktilde_matrix",
           "k_n": "kn_block_matrix", "phi_discrete": "phi_values",
           "last_passage_G": "last_passage_table",
           "build_operator": "gap_probability",
           "DiscretizedOperator": "gap_probability",
           "correlation_R": "extended_airy_kernel",
           "SpaceTimePoint": "extended_airy_kernel",
           "PngConfig": "evolve_batch_heights",
           "HeightField": "evolve_batch_heights",
           "simulate": "evolve_batch_heights"}


def _library_rows():
    """(module, [backticked names]) per row of README's library table."""
    section = README.read_text().split("## Library layout", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`airypng."):
            rows.append((cells[0].strip("`"),
                         re.findall(r"`([A-Za-z_]\w*)`", cells[1])))
    return rows


def test_readme_library_table_names_resolve():
    rows = _library_rows()
    assert len(rows) >= 8
    missing = [(module, name) for module, names in rows for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


def test_removed_names_are_gone_and_their_survivors_public():
    assert not set(REMOVED) & set(airypng.__all__)
    assert set(REMOVED.values()) <= set(airypng.__all__)


def test_readme_commands_parse():
    # every command README shows must parse as written, without running
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("airypng ")]
    assert len(commands) >= 11
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(cli._merge_dash_values(argv))
        assert args.command == argv[0]
