"""README.md states the command-line contract, and its quick tour runs.

The names come from the CLI itself: the subcommands and options of
``cli.make_parser()``, the config keys of ``cli.SCHEMA``,
``cli.IDX_DATASET`` and ``cli._LAYER_BUILDERS``, and the exit codes
``cli.EXIT_*``. The files the commands write are listed here.
"""

import argparse
import ast
import contextlib
import io
import os
import re

from mgepool import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# every file a command writes into its output directory
OUTPUT_FILES = ["base.mgem", "train.json", "stamp.json", "analysis.json", "manifest.json",
                "model_<id>.mgem", "robustness.csv", "transfer.tsv", "report.txt",
                "report_accuracy.csv"]


def readme():
    with open(README, encoding="utf-8") as f:
        return f.read()


def quoted(name):
    """``name`` as the README writes a code name: in backticks."""
    return f"`{name}`"


def commands():
    [sub] = [a for a in cli.make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def options():
    parsers = [cli.make_parser(), *commands().values()]
    return sorted({flag for p in parsers for a in p._actions for flag in a.option_strings
                   if flag.startswith("--") and flag != "--help"})


def config_keys():
    """Each key as the README's table writes it: ``section.key`` at the top
    level, ``.key`` inside an object of its own table (a criterion)."""
    keys = set()
    for section, table in {**cli.SCHEMA, "dataset": {**cli.SCHEMA["dataset"],
                                                     **cli.IDX_DATASET}}.items():
        for key, (typ, _) in table.items():
            keys.add(f"{section}.{key}")
            if isinstance(typ, dict) and str not in typ:
                keys.update(f".{inner}" for inner in typ)
    return sorted(keys)


def layer_names():
    return sorted({name for name, (_, sizes) in cli._LAYER_BUILDERS.items()
                   for name in (name, *sizes)})


def exit_codes():
    return sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))


def unnamed(names, named):
    text = readme()
    return [name for name in names if not named(name, text)]


def test_names_every_command():
    assert unnamed(commands(), lambda command, text: re.search(
        rf"^mgepool --config run\.json {command}\b", text, re.M)) == []


def test_names_every_option():
    assert unnamed(options(), lambda option, text: quoted(option) in text
                   or f"`{option} " in text) == []


def test_names_every_config_key_and_layer():
    assert unnamed(config_keys() + layer_names(), lambda key, text: quoted(key) in text) == []


def test_names_every_exit_code():
    assert unnamed(exit_codes(), lambda code, text: re.search(
        rf"^\| {code} \| \w", text, re.M)) == []


def test_names_every_output_file():
    assert unnamed(OUTPUT_FILES, lambda name, text: quoted(name) in text) == []


def test_the_part_before_install_is_short():
    assert readme().split("\n## Install\n")[0].count("\n") < 60


def test_quick_tour_runs_as_written():
    """The first code a user runs: the README's quick tour, executed as it
    stands, prints the accuracies of ten generated models."""
    tour = readme().split("\n## Quick tour\n")[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md quick tour", "exec"), {})
    accuracies = ast.literal_eval(printed.getvalue())
    assert len(accuracies) == 10 and all(0.0 <= a <= 1.0 for a in accuracies)
