"""Run one qsectors CLI call with spans installed, for traced cli-calls runs.

Usage: python3 bench/tracecli.py SNAPSHOT.json -- SUBCOMMAND [ARGS...]

Behaves like ``python -m qsectors.cli SUBCOMMAND ARGS`` (same stdout, stderr
and exit code) and also writes the tracer's snapshot to SNAPSHOT.json.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    snapshot_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: tracecli.py SNAPSHOT.json -- SUBCOMMAND [ARGS...]")
    argv = sys.argv[3:]
    import qsectors.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = qsectors.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(snapshot_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
