"""tools/code_lines.py: the src/ line count quoted in CHANGES.md."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_skips_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""    # a string in an assignment is code


class A:
    """Class docstring."""

    def f(self):
        \'\'\'Method docstring.\'\'\'
        "a later string statement is code"
        return (1,
                2)
'''
    # X (2 lines), class, def, the later string, return (2 lines)
    assert code_lines.code_lines(source) == 7


def test_counts_files_under_directories(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("a = 1\n\nb = 2\n")
    (tmp_path / "b.py").write_text("# only a comment\nc = 3\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\n"
