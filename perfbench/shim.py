"""Run one photoref CLI subcommand with every public function traced.

Usage: python shim.py SPANS_JSON <subcommand> [cli arguments...]

Imports ``photoref.cli`` untraced, wraps the package's public API, calls
``photoref.cli.main`` with the remaining arguments, and writes the recorded
spans to SPANS_JSON before exiting with the CLI's exit code.
"""

import sys

from tracer import Tracer, dump_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import photoref.cli

    tracer = Tracer()
    tracer.install()
    try:
        return photoref.cli.main(argv)
    finally:
        dump_spans(spans_path, tracer.take())


if __name__ == "__main__":
    sys.exit(main())
