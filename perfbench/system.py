"""Process-level plumbing: environment record, memory, the service process.

Nothing here touches the program's internals; it measures the processes
the program runs in and starts ``compound-threats serve`` the way a user
would.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numpy_build() -> dict:
    import numpy as np

    build: dict = {"numpy": np.__version__}
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return build
    blas = config.get("Build Dependencies", {}).get("blas", {})
    build["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    simd = config.get("SIMD Extensions", {})
    build["simd_baseline"] = simd.get("baseline", [])
    build["simd_found"] = simd.get("found", [])
    return build


def environment() -> dict:
    """Where a run happened; bitwise results compare only like for like."""
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **_numpy_build(),
    }


def load_average() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_kb(pid: int | str, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def rss_bytes(pid: int | str = "self") -> int:
    return _status_kb(pid, "VmRSS") * 1024


def peak_rss_bytes(pid: int | str = "self") -> int:
    return _status_kb(pid, "VmHWM") * 1024


def reset_peak_rss() -> bool:
    """Reset this process's RSS high-water mark (Linux ``clear_refs``)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def _children(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.extend(int(c) for c in (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return found


def _descendants(pid: int) -> list[int]:
    found, stack = [], _children(pid)
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(_children(current))
    return found


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def tree_rss_bytes(pid: int) -> int:
    """Summed RSS of ``pid`` and all its descendants."""
    return sum(rss_bytes(p) for p in [pid, *_descendants(pid)])


def tree_cpu_ticks(pid: int) -> int:
    """User + system CPU ticks used so far by ``pid`` and its descendants."""
    total = 0
    for p in [pid, *_descendants(pid)]:
        try:
            fields = Path(f"/proc/{p}/stat").read_text().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            continue
    return total


class TreeRssSampler:
    """Samples a process tree's summed RSS on one thread; keeps the max."""

    def __init__(self, pid: int, interval_s: float = 0.02) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(self.pid))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# ----------------------------------------------------------------------
# Child interpreters
# ----------------------------------------------------------------------
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process the program starts can outlive its parent: the server's
    pool workers and multiprocessing resource tracker end just after the
    server does.  Adopted, they can be waited for by :func:`reap_children`
    instead of being left to init.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_children(timeout_s: float = 20.0) -> list[int]:
    """Stop every process this one started or adopted, and wait for each.

    The multiprocessing resource tracker (started by pooled generation's
    shared memory) only ends when its pipe closes, so it is stopped
    first.  Children still running after ``timeout_s`` are killed.
    Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    killed: list[int] = []
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children left
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children(os.getpid()):
                if child not in killed:
                    killed.append(child)
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        time.sleep(0.01)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


_IMPORT_AND_BUILD = (
    "import repro\n"
    "from repro.hazards.hurricane.standard import standard_oahu_generator\n"
    "standard_oahu_generator()\n"
)


def run_child(args: list[str], src: Path, timeout_s: float) -> tuple[str, float]:
    """Run a child interpreter to the end; its stdout and when it ended.

    Waits in a blocking ``waitpid``.  ``subprocess.run(timeout=...)``
    polls in sleeps of up to 50 ms instead, which rounds a set-up time to
    the next poll; here a timer kills a child that outlives ``timeout_s``.
    """
    proc = subprocess.Popen(
        args, env=child_env(src), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        out, err = proc.communicate()
    finally:
        killer.cancel()
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, args, out, err)
    return out, ended


def import_and_build(src: Path) -> tuple[float, float]:
    """Span of a fresh interpreter that imports the program and builds
    the standard generator: the part of set-up every workload pays."""
    start = time.perf_counter()
    _, ended = run_child([sys.executable, "-c", _IMPORT_AND_BUILD], src, timeout_s=120)
    return start, ended


# ----------------------------------------------------------------------
# The study service process
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServiceProcess:
    """``python -m repro.cli serve`` on a fresh state dir and port."""

    def __init__(self, src: Path, service_dir: Path) -> None:
        from repro.service import ServiceClient

        self.port = free_port()
        self._log = open(service_dir.parent / f"{service_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--dir", str(service_dir), "--port", str(self.port),
            ],
            env=child_env(src),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(f"http://127.0.0.1:{self.port}", timeout=60.0)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        from repro.service import ServiceClientError

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited with {self.proc.returncode}")
            try:
                if self.client.health()["status"] == "ok":
                    return
            except ServiceClientError:
                pass
            time.sleep(0.005)
        raise RuntimeError("service never became healthy")

    def wait_idle(self, timeout_s: float = 2.0, quiet_s: float = 0.05) -> bool:
        """Wait until the server has no queued or running job and its
        process tree (pool workers too) has used no CPU for ``quiet_s``."""
        deadline = time.monotonic() + timeout_s
        health = self.client.health()
        while health["queued"] or health["jobs"].get("running", 0):
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
            health = self.client.health()
        used = tree_cpu_ticks(self.pid)
        while time.monotonic() < deadline:
            time.sleep(quiet_s)
            now = tree_cpu_ticks(self.pid)
            if now == used:
                return True
            used = now
        return False

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM (graceful drain) and wait; kill if it will not drain.

        Also waits for the server's own children (pool workers, the
        multiprocessing resource tracker) to be gone.
        """
        descendants = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 10.0
        remaining = descendants
        while remaining and time.monotonic() < deadline:
            remaining = [pid for pid in remaining if _alive(pid)]
            time.sleep(0.01)
        for pid in descendants:  # adopted when the server ended (adopt_orphans)
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        self._log.close()
        return self.proc.returncode


def boot_service(src: Path, service_dir: Path) -> tuple[ServiceProcess, tuple[float, float]]:
    """Start a service; the span runs from spawn until it reports healthy."""
    service_dir.mkdir(parents=True)
    start = time.perf_counter()
    service = ServiceProcess(src, service_dir)
    try:
        service.wait_healthy()
    except BaseException:
        service.stop()
        raise
    return service, (start, time.perf_counter())


def median(values) -> float:
    return statistics.median(values) if values else 0.0
