"""The Python block under README's "## Examples" runs, and every statement
there that ends in a comment evaluates to the value the comment states; the
CLI usage line names the options the parser takes."""
import argparse
import ast
from pathlib import Path

from okounkov import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples_block() -> str:
    section = README.read_text().split("\n## Examples\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _matches(value, stated: str) -> bool:
    # A literal is compared by value (Fraction(1) == 1), anything else by
    # its repr.
    try:
        return ast.literal_eval(stated) == value
    except (ValueError, SyntaxError):
        return repr(value) == stated


def test_readme_examples_give_their_stated_values():
    source = _examples_block()
    lines = source.splitlines()
    env, checked = {}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), str(README), "exec"), env)
            continue
        value = eval(compile(ast.Expression(node.value), str(README),
                             "eval"), env)
        _, hash_, stated = lines[node.end_lineno - 1].partition("#")
        if hash_:
            assert _matches(value, stated.strip()), (stated, value)
            checked.append(stated.strip())
    assert checked == ["((0,0), (1,0), (1,1))", "RadVal(1/3)",
                       "Fraction(1, 3)"]


def test_readme_cli_usage_names_the_run_options():
    # Each option of `okounkov run`, bracketed exactly when it is optional.
    usage, = (line for line in README.read_text().splitlines()
              if line.startswith("okounkov run "))
    named = {w.strip("[]"): not w.startswith("[") for w in usage.split()
             if w.strip("[").startswith("--")}
    sub, = (a for a in cli._PARSER._actions
            if isinstance(a, argparse._SubParsersAction))
    options = {a.option_strings[-1]: a.required
               for a in sub.choices["run"]._actions
               if not isinstance(a, argparse._HelpAction)}
    assert named == options
