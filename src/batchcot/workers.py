"""The package's one thread loop: a function mapped over a list on worker threads."""

from __future__ import annotations

import threading


def on_workers(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], on min(workers, len(items)) threads."""
    results = [None] * len(items)
    lock = threading.Lock()
    taken = 0  # indexes handed out so far, each to one worker
    stopped = []  # the exceptions that stopped the run, in the order raised

    def work():
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i == len(items) or stopped:
                    return
                taken += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                stopped.append(exc)
                return

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(items)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException as exc:
        stopped.append(exc)
        # a thread that is not alive has ended, or has yet to take an index
        # and now takes none
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if stopped:
        raise stopped[0]
    return results
