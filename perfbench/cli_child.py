"""One traced CLI invocation in a fresh process.

    python3 perfbench/cli_child.py <trace.json> <trigpoly arguments...>

Standard output and the exit code are the CLI's own; the time spent in
`trigpoly.cli.main` and the per-layer spans go to <trace.json>.
"""

import json
import sys
import time


def main() -> int:
    import trigpoly.cli

    from tracing import Tracer

    tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        return trigpoly.cli.main(sys.argv[2:])
    finally:
        main_s = time.perf_counter() - t0
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump({"main_s": main_s, "trace": tracer.snapshot()}, handle)


if __name__ == "__main__":
    sys.exit(main())
