"""The package's one thread-pool rule, for embed's cos/sin, verify's checks and
the CSV writer's formatting: WORKERS threads whatever the CPU count, so memory
does not grow with the machine.

Each in_order call builds its own pool, so a CSV embed that pools its cos/sin
runs two pools at once.  That is by design: one process-wide pool of WORKERS
threads would deadlock as soon as WORKERS pooled jobs each waited on an
in_order of their own (verify's checks calling a pooled embed, say), since
the outer jobs would hold every worker their inner jobs wait for.
"""

from itertools import islice

WORKERS = 2


def in_order(jobs, ahead: int):
    """fn(*args) for each (fn, *args) of jobs, in order, as run one by one.

    At most ahead jobs are submitted and not yet yielded, and a job is drawn
    only when it can be submitted, so the caller's work between results and
    whatever drawing a job computes overlap the pool's work on earlier jobs.
    With ahead = 0 every job runs on the calling thread and no pool is built.
    """
    if not ahead:
        for fn, *args in jobs:
            yield fn(*args)
        return
    from concurrent.futures import ThreadPoolExecutor

    jobs = iter(jobs)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        pending = [pool.submit(*job) for job in islice(jobs, ahead)]
        while pending:
            yield pending.pop(0).result()
            pending += [pool.submit(*job) for job in islice(jobs, 1)]
