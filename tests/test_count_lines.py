"""The size tool (``tests/count_lines.py``): its module rows add up, and it counts the config keys."""

import os

import count_lines
from relgat import cli


def test_rows_add_up_and_config_keys_are_the_cli_keys(capsys):
    assert count_lines.main(["count_lines.py"]) == 0
    rows = {line[:16].strip(): line[16:].split() for line in capsys.readouterr().out.splitlines()[1:]}
    config_keys, total = rows.pop("config keys"), rows.pop("total")
    assert [sum(int(row[k]) for row in rows.values()) for k in (0, 1)] == [int(n) for n in total]
    assert "cli" in rows and config_keys == [str(len(cli._KEY_TYPES))]


def test_a_package_against_itself_gains_nothing(capsys):
    package = os.path.dirname(cli.__file__)
    assert count_lines.main(["count_lines.py", package, "--against", package]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "lines", "code", "delta"]
    rows = {line[:16].strip(): line[16:].split() for line in lines[1:]}
    assert rows.pop("config keys") == [str(len(cli._KEY_TYPES))]
    assert "cli" in rows and "total" in rows and all(row[2] == "+0" for row in rows.values())


def test_delta_is_the_code_gained_over_the_parent_module(capsys, tmp_path):
    # the parent holds a one-line cli and a module the package lacks
    (tmp_path / "cli.py").write_text("x = 1\n")
    (tmp_path / "gone.py").write_text("# gone\ny = 2\nz = 3\n")
    package = os.path.dirname(cli.__file__)
    assert count_lines.main(["count_lines.py", package, "--against", str(tmp_path)]) == 0
    rows = {line[:16].strip(): line[16:].split() for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["cli"][2] == f"{int(rows['cli'][1]) - 1:+d}" and rows["gone"] == ["0", "0", "-2"]
    assert rows["model"][2] == f"+{rows['model'][1]}"
    assert rows["total"][2] == f"{int(rows['total'][1]) - 3:+d}"
