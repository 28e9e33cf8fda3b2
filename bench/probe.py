"""Set-up probe: a fresh interpreter imports evosignal and prepares one
workload (scenarios built, controllers compiled, worker pool started),
then prints the CLOCK_MONOTONIC time at which it is ready.

    python3 bench/probe.py <workload> <size>
"""

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from checkout import use_checkout_sources


def main() -> None:
    use_checkout_sources()
    import workloads

    workload = workloads.make(sys.argv[1], sys.argv[2])
    workload.prepare()
    if workload.jobs > 1:
        with ProcessPoolExecutor(max_workers=workload.jobs) as pool:
            for future in [pool.submit(os.getpid) for _ in range(workload.jobs)]:
                future.result()
            print(time.monotonic(), flush=True)
    else:
        print(time.monotonic(), flush=True)


if __name__ == "__main__":
    main()
