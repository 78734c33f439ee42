"""The code-line counting rule of tests/code_lines.py on a small source
text and a directory of modules."""
from code_lines import code_lines, main

SOURCE = '''"""Module docstring,
on two lines."""
import math  # counted: a comment does not take the line away

# comment lines and blank lines are not code


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,
        on two lines."""
        note = """a string that is
        not a docstring"""
        return (math.pi,
                note)

    async def wait(self):
        """Async function docstring."""
        "a second string statement is no docstring"
'''


def test_code_lines_counts_tokens_outside_docstrings():
    # import, class, def area, the two lines of note, the two lines of
    # the return, async def and the second string statement
    assert code_lines(SOURCE) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "big.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "small.py").write_text("x = 1\n\ny = 2  # two\n")
    main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        str(tmp_path),
        "  big                           9",
        "  sub/small                     2",
        "  total                        11",
    ]
