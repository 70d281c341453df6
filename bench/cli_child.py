"""Run one lmflows command with tracing on.

Usage: python3 bench/cli_child.py SPANS_JSON lmflows-arguments...

Times the import of ``lmflows.cli``, wraps the package's public functions,
runs ``lmflows.cli.main`` and writes the spans to SPANS_JSON. Standard
output and the exit code are those of the command itself.
"""

import sys

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    code = 2
    try:
        with tracer.span("cli.import"):
            import lmflows.cli
        tracer.install()
        with tracer.span("cli.main"):
            code = lmflows.cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
