"""Run ``repro serve`` with the serve-layer span wrappers installed.

Usage::

    python serve_launcher.py SPANS.jsonl [repro serve arguments...]

Installs the wrappers of :func:`layers.install_server`, hands the rest
of the command line to ``repro.cli.main(["serve", ...])``, and writes
the recorded spans to ``SPANS.jsonl`` once the server has drained
(SIGTERM).
"""

import sys

from layers import install_server
from spans import Tracer


def main(argv):
    path, serve_args = argv[0], argv[1:]
    tracer = Tracer("serve-mixed")
    install_server(tracer)
    from repro import cli

    try:
        return cli.main(["serve"] + serve_args)
    finally:
        tracer.write(path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
