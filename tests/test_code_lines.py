import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "x = (1,\n"
        "     2)  # a trailing comment\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        "    return '''a string\n"
        "that is code'''\n"
    )
    # x's two lines, def, and the return's two lines
    assert code_lines.code_lines(source) == 5
