"""README's library quick start, run as written: its code must run and the
values its comments show must be what the package returns."""

import ast
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _run(source: str) -> dict[str, tuple[object, str]]:
    """Run source statement by statement; each expression statement's source
    maps to its value and the comment on its last line."""
    lines = source.splitlines()
    namespace, shown = {}, {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"),
                         namespace)
            comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
            shown[ast.get_source_segment(source, statement)] = value, comment
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"),
                 namespace)
    return shown


def test_the_library_quick_start_gives_its_commented_values():
    shown = _run(_library_quick_start())
    x, comment = shown["re.dominant_eigenvector(P, tol=1e-8)"]
    np.testing.assert_allclose(x, [float(v) for v in comment.strip("[]").split()], atol=1e-6)
    updates, comment = shown["re.regularized_power_method(P, spec).iterations_used"]
    assert updates == int(comment.split()[0])
