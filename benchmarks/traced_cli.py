"""Run one ``bohrad`` CLI command with the layer tracer installed.

    PYTHONPATH=src python3 benchmarks/traced_cli.py radius --psi cardioid

Output and exit code are the CLI's; the span totals follow on stderr as a
last line starting with ``BENCH_TRACE ``.
"""

import json
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    with tracer:
        from bohrad import cli
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(tracing.TRACE_MARK + json.dumps(tracer.take()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
