"""Set up one workload in a fresh process and print how long `import trigpoly.cli` took.

    python3 perfbench/probe.py <workload> <seed> [--toy]

run.py times this whole process, from launch to exit, as the workload's
set-up cost: interpreter start, import, and the workload's `setup`.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import trigpoly.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]](int(sys.argv[2]), toy="--toy" in sys.argv[3:]).setup()
    print(repr(import_s))


if __name__ == "__main__":
    main()
