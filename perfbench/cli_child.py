"""Traced stand-in for ``python -m drinfeld``, used by traced cli-cold runs.

    python3 perfbench/cli_child.py SPANS_FILE OP_ID VERB... [--json]

Installs the span tracer, runs ``drinfeld.cli.main`` on the remaining
arguments, writes the spans to SPANS_FILE and exits with the CLI's code.
"""

import sys
from pathlib import Path

from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main():
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    import drinfeld.cli

    tracer.op = op_id
    try:
        code = drinfeld.cli.main(argv)
    finally:
        tracer.op = None
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
