"""The argparse parser of the command line, built from ``cli.COMMANDS``.

``cli.main`` imports this module only for an argv that its direct parse
declines: help, every usage error and every non-canonical spelling.  So
a well-formed command neither compiles this module nor imports
``argparse``.
"""

import argparse
from collections.abc import Callable

# The help of the first word of a command that has two.
GROUP_HELP = {"rulespace": "Operations on the 81-node rule graph."}


def _argparse_type(convert: Callable[[str], object]) -> Callable[[str], object]:
    """``convert`` with its ``ValueError`` raised as argparse's type error."""
    def converted(text: str) -> object:
        try:
            return convert(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return converted


def _invalid_choice(action: argparse.Action, value: object) -> argparse.ArgumentError:
    """argparse's "invalid choice" error as 3.10 to 3.12.1 word it: later
    releases list the choices without quotes."""
    choices = ", ".join(map(repr, action.choices))
    return argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors read alike on every release."""

    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            raise _invalid_choice(action, value)


def parser(prog: str, args: list[str], commands: dict) -> Callable[[list[str]], tuple]:
    """A parse by an argparse parser built from ``commands``: the command
    and argument values of a well-formed argv, and for any other argv
    help or a usage error, printed before it exits.  Only the command
    named by the first non-option token of ``args`` gets its arguments:
    the others would read constants of layers that this command never
    runs."""
    named = next((arg for arg in args if not arg.startswith("-")), None)
    top = _Parser(
        prog=prog, allow_abbrev=False,
        description="Enumerate, simulate, and classify the 81 two-node threshold "
                    "network rules under seven update variants.")
    subparsers = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    groups, parsers = {}, {}
    for name, command in commands.items():
        first, _, action = name.partition(" ")
        siblings = subparsers
        if action:
            if first not in groups:
                group = subparsers.add_parser(first, help=GROUP_HELP[first], allow_abbrev=False)
                groups[first] = group.add_subparsers(dest="action", metavar="ACTION",
                                                     required=True)
            siblings = groups[first]
        sub = siblings.add_parser(action or first, help=command.run.__doc__,
                                  description=command.run.__doc__, epilog=command.epilog,
                                  allow_abbrev=False)
        if first != named:
            continue
        parsers[name] = sub
        for name_or_flag, keywords in command.arguments():
            if "type" in keywords:
                keywords = {**keywords, "type": _argparse_type(keywords["type"])}
            sub.add_argument(name_or_flag, **keywords)

    def parse(args: list[str]) -> tuple:
        if len(args) > 1 and args[0] == "--":  # a command name to 3.13.0, the end of options later
            top.error(str(_invalid_choice(subparsers, "--")))
        values = vars(top.parse_args(args))
        name = values.pop("command")
        if "action" in values:
            name += " " + values.pop("action")
        command = commands[name]
        if command.check and (message := command.check(**values)):
            parsers[name].error(message)
        return command, values

    return parse
