"""The README's Python API module list names only what the modules hold."""

import functools
import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# a dotted name, bare or with a call's argument list: `viterbi`,
# `scalar_summaries(chain_set)`, `ChainSet.posterior_mean_params()`
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def api_list_names() -> list:
    """(module, name) for every backticked name in the bullets
    "- `module`: ..." of the README's "Python API" section; other
    backticked text (shapes, tuples, commands) is skipped."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets, current = [], None
    for line in section.splitlines():
        if line.startswith("- `"):
            current = [line]
            bullets.append(current)
        elif current is not None and line.startswith("  "):
            current.append(line.strip())
        else:
            current = None
    names = []
    for lines in bullets:
        module, rest = re.match(r"- `(\w+)`:(.*)", " ".join(lines)).groups()
        for token in re.findall(r"`([^`]+)`", rest):
            match = NAME.fullmatch(token)
            if match:
                names.append((module, match.group(1)))
    return names


def test_api_list_names_resolve():
    names = api_list_names()
    assert {module for module, _ in names} == {
        "dataset", "model", "inference", "mcmc", "diagnostics", "analytics"}
    missing = []
    for module, name in names:
        try:
            functools.reduce(getattr, name.split("."),
                             importlib.import_module(f"panelhmm.{module}"))
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert not missing, f"README names what its module does not hold: {missing}"
