"""The size tool (``tests/count_lines.py``): its module rows add up, and it counts the config keys."""

import count_lines
from relgat import cli


def test_rows_add_up_and_config_keys_are_the_cli_keys(capsys):
    assert count_lines.main(["count_lines.py"]) == 0
    rows = {line[:16].strip(): line[16:].split() for line in capsys.readouterr().out.splitlines()[1:]}
    config_keys, total = rows.pop("config keys"), rows.pop("total")
    assert [sum(int(row[k]) for row in rows.values()) for k in (0, 1)] == [int(n) for n in total]
    assert "cli" in rows and config_keys == [str(len(cli._KEY_TYPES))]
