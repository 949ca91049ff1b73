"""``python -m dualcrit`` with the tracer installed, for the traced run.

    python3 perfbench/cli_shim.py SPANS.json COMMAND [ARGS...]

Imports dualcrit from ``src/``, wraps its layers, runs ``dualcrit.cli.main``
on the arguments, writes the spans as JSON to SPANS.json and exits with
the command's exit code.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import dualcrit  # noqa: E402
import dualcrit.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(dualcrit)
    tracer.install()
    try:
        code = dualcrit.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
