"""Process-tree helpers over /proc: CPU time, peak resident memory and waiting
for the processes a run started to end."""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import defaultdict


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        kids[ppid].append(int(entry))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children()
    out, todo = [], [pid]
    while todo:
        for child in kids.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_s(pid: int) -> float:
    """User plus system CPU time of ``pid``.  The kernel does not charge a
    process for time the hypervisor steals from its vCPU."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return 0.0
    fields = stat[stat.rfind(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read(5) == b"ray::"
    except OSError:
        return False


def ray_workers() -> set[int]:
    """Pids of the Ray worker processes under this process (Ray titles
    them ``ray::<task or actor>``)."""
    return {p for p in descendants(os.getpid()) if _is_ray_worker(p)}


def engine_cpu_s() -> float:
    """CPU time of this process and of the Ray worker processes under it.
    Ray's daemons (raylet, GCS, agents) are left out: they mostly poll, so
    their CPU time grows with wall time rather than with the work done."""
    return cpu_s(os.getpid()) + sum(cpu_s(p) for p in ray_workers())


def hwm_kb(pid: int) -> int:
    """Peak resident memory of ``pid`` since it started or since
    ``reset_hwm``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_hwm(pid: int) -> None:
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def proc_name(pid: int) -> str:
    """``ray::<task>`` for a Ray worker, else the script or program name."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            argv = fh.read().decode(errors="replace").split("\0")
    except OSError:
        return "?"
    if argv[0].startswith("ray::"):
        return argv[0].split()[0]
    script = next((a for a in argv[1:] if a.endswith(".py")), argv[0])
    return os.path.basename(script) or "?"


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def wait_gone(pids, timeout: float) -> list[int]:
    """Wait for every pid to end; SIGKILL what is left after ``timeout``
    and wait again.  Returns the pids still alive at the end."""
    deadline = time.monotonic() + timeout
    left = [p for p in pids if alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if alive(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if alive(p)]
    return left


class PeakRss:
    """Sums the peak resident memory (VmHWM) of this process and of every
    process under it (Ray's raylet, GCS and workers), each process's own
    peak since ``reset``.  Unlike sampling the sum of VmRSS, this does not
    depend on whether the processes' peaks happen to fall together or
    between two samples.  A thread reads the peaks every ``interval``
    seconds, so processes that end in between still count; it also
    remembers every descendant it saw, so they can be waited for."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.hwm: dict[int, int] = {}
        self.names: dict[int, str] = {}
        self.seen: set[int] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def peak_kb(self) -> int:
        with self._lock:
            return sum(self.hwm.values())

    def sample(self) -> None:
        tree = [os.getpid(), *descendants(os.getpid())]
        with self._lock:
            self.seen.update(tree[1:])
            for p in tree:
                self.hwm[p] = max(self.hwm.get(p, 0), hwm_kb(p))
                if p not in self.names:
                    self.names[p] = proc_name(p)

    def by_process(self) -> list[tuple[str, int]]:
        """(command name, peak kB) of every process, largest first."""
        with self._lock:
            return sorted(((self.names.get(p, "?"), kb) for p, kb in self.hwm.items()),
                          key=lambda x: -x[1])

    def reset(self) -> None:
        with self._lock:
            for p in [os.getpid(), *descendants(os.getpid())]:
                reset_hwm(p)
            self.hwm = {}

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
