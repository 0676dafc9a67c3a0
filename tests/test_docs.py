"""README examples stay runnable: its CLI lines parse, its config loads,
its Python example gives the numbers the README quotes, and the package
names it quotes exist."""

import importlib
import json
import os
import pkgutil
import re
import shlex

import krylov_sqrt
from krylov_sqrt import experiments as exp
from krylov_sqrt.cli import _build_parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_blocks(lang: str) -> list:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), flags=re.M | re.S)


def test_cli_lines_parse():
    lines = [ln for block in readme_blocks("bash") for ln in block.splitlines()
             if ln.startswith("krylov-sqrt ")]
    assert len(lines) == 4
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])  # a removed flag exits 1


def test_config_example_loads():
    (block,) = readme_blocks("json")
    cfg = exp.config_from_dict(json.loads(block))
    assert cfg.experiment == "convdiff_table" and cfg.stopping["tol"] == 0.05


def test_python_example_runs():
    (block,) = readme_blocks("python")
    namespace: dict = {}
    exec(compile(block, README, "exec"), namespace)
    out = namespace["out"]
    assert out.k == 888 and out.converged
    assert out.history[-1].posterior_ritz <= 0.05


def test_quoted_names_resolve():
    # `module.name` for a package module, and a bare `NAME_LIKE_THIS`
    # constant of any package module (not `H_888`), must exist
    modules = {m.name: importlib.import_module(f"krylov_sqrt.{m.name}")
               for m in pkgutil.iter_modules(krylov_sqrt.__path__)}
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    qualified = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", text)
                 if mod in modules]
    constants = re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z][A-Z0-9]*)+)`", text)
    assert len(qualified) >= 7 and len(constants) >= 2
    missing = [f"{mod}.{name}" for mod, name in qualified if not hasattr(modules[mod], name)]
    missing += [name for name in constants
                if not any(hasattr(module, name) for module in modules.values())]
    assert missing == []
