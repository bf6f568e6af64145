"""Byte-stability transcript of the CLI.

`golden/commands.txt` holds one `mzvident` argv per line.  Each command runs
in-process through `cli_main`, and the sha256 of its exit code, stdout and
stderr must equal its line in `golden/digests.txt`.  For `eval`, stdout is
left out: its floats come from `k ** -s`, whose last bits depend on the
platform's libm.

After a deliberate output change, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py

and record in CHANGES.md which commands changed bytes, and why.
"""

import hashlib
import io
import os
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from mzvident.cli import cli_main
from mzvident.identities import hoffman_identity
from mzvident.parsing import serialize

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = GOLDEN / "commands.txt"
DIGESTS = GOLDEN / "digests.txt"


def commands() -> list[str]:
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def write_inputs(directory: Path) -> None:
    """The @files that commands.txt names, from `hoffman n` text."""
    texts = {f"h{n}": serialize(hoffman_identity(n)) for n in (4, 5, 6, 8)}
    texts["h6p"] = texts["h6"] + " + 2*zeta(s1+s2,s3,s4+s5+s6)"
    for name, text in texts.items():
        (directory / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def digest(command: str) -> str:
    """sha256 over the exit code, stdout and stderr of one command, run in
    the current directory."""
    argv = shlex.split(command)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    stdout = "" if argv[:1] == ["eval"] else out.getvalue()
    record = f"{code}\n{len(stdout)}\n{stdout}{err.getvalue()}"
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def transcript() -> list[str]:
    """`digest  command` for every command, inputs in a fresh directory.
    argparse wraps its usage lines to $COLUMNS, so that is fixed."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        write_inputs(Path(tmp))
        os.chdir(tmp)  # contextlib.chdir is Python 3.11+
        try:
            return [f"{digest(command)}  {command}" for command in commands()]
        finally:
            os.chdir(here)


def rewrite_digests() -> None:
    DIGESTS.write_text("\n".join(transcript()) + "\n", encoding="utf-8")


def test_cli_transcript_is_byte_stable():
    want = DIGESTS.read_text(encoding="utf-8").splitlines()
    got = transcript()
    assert len(got) == len(want), "commands.txt and digests.txt differ in length"
    changed = [line.split("  ", 1)[1][:80] for line, old in zip(got, want) if line != old]
    assert not changed, f"{len(changed)} commands changed bytes: {changed}"


if __name__ == "__main__":
    rewrite_digests()
