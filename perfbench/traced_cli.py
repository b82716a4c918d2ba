"""Run the ``slimcodeml`` CLI in this process with the layer tracer installed.

Usage: ``python3 perfbench/traced_cli.py SUMMARY.json <slimcodeml args...>``
(with the program's ``src`` on ``PYTHONPATH``).  Exits with the CLI's
exit code after writing the per-layer summary to ``SUMMARY.json``.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install


def main(argv: list) -> int:
    out, cli_args = argv[0], argv[1:]
    import repro.cli

    tracer = Tracer()
    installed = install(tracer)
    try:
        code = repro.cli.main(cli_args)
    finally:
        installed.restore()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
