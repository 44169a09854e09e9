"""One ``sim-paper`` pass in a fresh interpreter: the named
``repro.analysis.experiments.RUNNERS`` at their default scale, paper
profile, no network. Prints ``ready`` once imported (set-up ends there),
then one JSON line: host and CPU seconds per runner at reference-host
speed (hostspeed.py), the headline numbers the golden file pins, and
this process's peak RSS.

A runner is seconds of opaque work, and host speed moves within
seconds, so the reference loop cannot only run between runners: a timer
signal runs it every ``PERIOD_S`` inside the runner, on the runner's own
thread and CPU, and the time it takes is taken out of the runner's."""

import json
import resource
import signal
import sys
import time

from repro.analysis.experiments import RUNNERS, headline_metrics

from hostspeed import HostSpeed

#: ``run_figure6`` replays ``400 * scale`` requests; scale is 1 here
FIGURE6_REQUESTS = 400
PERIOD_S = 0.25


def main() -> None:
    print("ready", flush=True)
    out = {"runner_s": {}, "runner_cpu_s": {}, "headline": {}}
    speed = HostSpeed()
    sampling = [0.0, 0.0]  # host and CPU seconds spent in the handler

    def on_timer(signum, frame) -> None:
        t0, cpu0 = time.perf_counter(), time.process_time()
        speed.sample()
        sampling[0] += time.perf_counter() - t0
        sampling[1] += time.process_time() - cpu0

    signal.signal(signal.SIGALRM, on_timer)
    for name in sys.argv[1:]:
        sampling[:] = 0.0, 0.0
        speed.open()
        t0, cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        result = RUNNERS[name]()
        signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - t0 - sampling[0]
        cpu = time.process_time() - cpu0 - sampling[1]
        scale = speed.scale()
        out["runner_s"][name] = took * scale
        out["runner_cpu_s"][name] = cpu * scale
        out["headline"][name] = headline_metrics(result)
        if name == "figure6":
            dram = result.data["results"][16]["hicamp"].dram
            out["headline"][name]["modeled_dram_per_req_ls16"] = \
                dram.total() / FIGURE6_REQUESTS
    out["reference_loop_s"] = speed.samples
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
