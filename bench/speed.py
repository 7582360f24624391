"""How fast the host runs Python right now, and CPU times scaled by it.

The end-to-end times of the benchmark are CPU seconds, so time spent
waiting for a core that another process holds does not count. A shared
host also runs at two speeds: on the one this benchmark was written on
(2 shared cores, Python 3.11), a fixed pure-Python loop took 1.0-1.2 ms of
CPU time when the core's neighbour was idle and 1.5-1.7 ms when it was
busy, with slow stretches lasting from a few milliseconds to a whole
run. The solves slow down alike. So every timed step is bracketed by runs
of `calibrate` (`calibrate_for`), and `at_reference` gives the step's CPU
time at a fixed reference speed. Standard library only; it runs no qbd
code, so a change to the program cannot move the job.

Two jobs run back to back differ by about 8% (SD of the log ratio); jobs
5 ms or more apart differ by about 13%, as much as jobs seconds apart.
A step of 100 ms averages that fast jitter out, but a single job on each
side of it does not. So the jobs after a step run for a share of its
time (CALIBRATION_SHARE), and the step is scaled by the mean of all the
jobs on both sides.

The job mixes integer arithmetic with dict and set updates. Over
stretches of 16 consecutive solves on that host, the median solve time
varied by 10-16% (coefficient of variation) with the host's speed. Scaled
by this job, between -5% and +9% of that variation remained, depending on
the workload. Scaled by arithmetic alone, 35% remained, because it slows
down less than the solves; scaled by dict and set updates alone, -14% to
+12% remained, and it is noisier.
"""

from __future__ import annotations

import resource
from time import process_time

ARITHMETIC_ROUNDS = 5000
TABLE_ROUNDS = 1800
# The CPU time `calibrate` takes at the reference speed.
CALIBRATION_REFERENCE_S = 1e-3
# Calibration time after a step, as a share of the step's CPU time.
CALIBRATION_SHARE = 0.1


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python job: integer arithmetic, then
    dict and set updates."""
    t0 = process_time()
    x = 0
    for i in range(ARITHMETIC_ROUNDS):
        x ^= i * i
    counts = {}
    seen = set()
    for i in range(TABLE_ROUNDS):
        key = i * 7919 % 4099
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, i & 15))
    return process_time() - t0


def calibrate_for(step_s: float) -> list:
    """CPU seconds of each of the calibration jobs run after a step of
    `step_s` CPU seconds: at least one, and enough to add up to
    CALIBRATION_SHARE of the step."""
    jobs = [calibrate()]
    while sum(jobs) < CALIBRATION_SHARE * step_s:
        jobs.append(calibrate())
    return jobs


def children_cpu_s() -> float:
    """CPU seconds, user and system, of every child process waited for so
    far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def at_reference(seconds: float, jobs: list) -> float:
    """A step's CPU time scaled to the reference speed: what it would be on
    a host that runs `calibrate` in CALIBRATION_REFERENCE_S, given the
    times of the calibration jobs on either side of the step. This takes
    the host's speed out, so runs on a free and on a contended core
    agree."""
    return seconds * CALIBRATION_REFERENCE_S * len(jobs) / sum(jobs)
