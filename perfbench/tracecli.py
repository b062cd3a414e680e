"""Run ``l2limits`` CLI under the tracer and write the raw samples as JSON.

Usage: python3 perfbench/tracecli.py DUMP.json COMMAND [ARGS...]
(with the repository's ``src`` on PYTHONPATH).  Exits with the CLI's code.
"""
import json
import sys

from tracing import Tracer


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from l2limits import cli

    try:
        code = cli.main(argv)
    finally:
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
