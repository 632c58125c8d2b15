"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_traced.py SPANS_JSON serve --model ... --port 0``.
The wrappers go in before the public CLI entry point builds the server; the
spans are written to SPANS_JSON once the CLI returns, which it does after
the SIGTERM drain.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ledger.layers import SERVER_TARGETS  # noqa: E402
from ledger.tracer import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, cli_argv = Path(argv[0]), list(argv[1:])
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.install(SERVER_TARGETS)
    try:
        return cli_main(cli_argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(
            json.dumps({"spans": tracer.export(), "missing": tracer.missing}),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
