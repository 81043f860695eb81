"""Run one ``qrv`` command in-process with layer spans recorded.

Usage: python bench/traced_verify.py SPANS.jsonl RUN_ID -- verify ARGS...

Times the import of ``qrv.cli`` as the ``cli.import`` span, wraps the
layers (see ``tracer.py``), runs ``qrv.cli.main`` on the remaining
arguments and appends the spans to SPANS.jsonl.  Exits with the command's
exit code.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_verify.py SPANS.jsonl RUN_ID -- ARGS...")
    tracer = Tracer(run_id)
    start = time.perf_counter()
    import qrv.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return qrv.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main())
