"""Pieces every workload of the Spitz benchmark shares.

Paths and the source check, the fixed input sizes, the closed-loop
runner with its per-client operation log, the correctness ledger, and
the summary statistics the result line reports.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (durable databases, input files
#: handed to the server process, span dumps and full result records).
WORK = ROOT / ".perfbench_work"

RECORDS = 50_000
#: The loaded records and the search table are the same in every run;
#: ``--seed`` draws the operations (keys read and written, values,
#: batches, scan starts, search terms).  Where a 50,000-record POS-tree
#: splits its upper levels depends on the data, and a verified read
#: carries every level, so a per-seed data set moved bytes per key by
#: about 20% (IQR over ten seeds) and latency with it.
DATASET_SEED = 0
SEARCH_ROWS = 4_000
SEARCH_VOCABULARY = 1_000
SEARCH_COLUMN = "docs.term"
MULTI_GET_KEYS = 16
SCAN_SELECTIVITY = 0.001
ZIPF_THETA = 0.99
#: Set-ups per measured run; setup_s is their median.
SETUP_REPEATS = 3
#: ops_per_s is the median completion rate over this many equal windows.
RATE_WINDOWS = 10
#: p90_ms is the median of per-window p90s; a window holds at least this
#: many operations, so each window's p90 has ten samples beyond it.
TAIL_WINDOW_OPS = 100
#: In-process workloads keep every Nth response and encode it with the
#: wire codec after timing, for wire_bytes_per_key.
WIRE_SAMPLE_EVERY = 8

#: Request kinds, by the short names the metrics use.
OP_KINDS = ("get", "put", "mget", "scan", "search")


def require_source() -> None:
    """Put ``src`` on the import path, or exit non-zero without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no Spitz sources under {SRC}; run from the root "
            "of a checkout of the repository\n"
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def rss_peak_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_now_mb() -> float:
    """Current resident set of this process, from /proc (Linux)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(**workload_facts) -> Dict[str, object]:
    env: Dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "switch_interval_s": sys.getswitchinterval(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }
    env.update(workload_facts)
    return env


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Checks:
    """Correctness ledger shared by every client of a run.

    A failed check makes the whole run incorrect; it is *not* an
    operation failure and never enters ``failed``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.failures: List[str] = []
        self.passed: Dict[str, int] = defaultdict(int)

    def expect(self, condition: bool, what: str) -> bool:
        if condition:
            return True
        with self._lock:
            if len(self.failures) < 20:
                self.failures.append(what)
            else:
                self.failures[-1] = f"... and more; last: {what}"
        return False

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        if self.expect(ok, f"{name}: {detail}" if detail else name):
            self.passed[name] += 1

    @property
    def correct(self) -> bool:
        return not self.failures


class OpLog:
    """One client's record of a timed phase."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.completed_at: List[float] = []
        #: Latency of each completed operation, parallel to completed_at.
        self.latency_at: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.keys_returned = 0
        self.response_bytes = 0
        self.user_bytes_written = 0
        self.writes = 0
        self.search_bytes = 0
        self.search_results = 0
        #: Responses kept for wire_bytes_per_key (in-process workloads).
        self.samples: list = []

    def success(self, kind: str, start: float, end: float) -> None:
        self.latencies[kind].append(end - start)
        self.completed_at.append(end)
        self.latency_at.append(end - start)


class Phase:
    """The merged logs of every client over one timed phase."""

    def __init__(self, logs: Sequence[OpLog], start: float, seconds: float):
        self.logs = list(logs)
        self.start = start
        self.seconds = seconds
        #: How much each of the run's probes (storage counters, RSS)
        #: grew over the phase.
        self.growth: Dict[str, float] = {}

    def total(self, field: str) -> int:
        return sum(getattr(log, field) for log in self.logs)

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        values: List[float] = []
        for log in self.logs:
            if kind is None:
                for series in log.latencies.values():
                    values.extend(series)
            else:
                values.extend(log.latencies.get(kind, ()))
        values.sort()
        return values

    @property
    def completed(self) -> int:
        return sum(len(log.completed_at) for log in self.logs)

    def ops_per_s(self) -> float:
        """Median completion rate over RATE_WINDOWS equal windows."""
        width = self.seconds / RATE_WINDOWS
        counts = [0] * RATE_WINDOWS
        for log in self.logs:
            for moment in log.completed_at:
                index = int((moment - self.start) / width)
                if 0 <= index < RATE_WINDOWS:
                    counts[index] += 1
        return statistics.median(counts) / width

    def tail_ms(self) -> float:
        """Median over equal time windows of each window's p90.

        The p90 rather than the p99: on a shared host, preemption of
        the virtual CPUs puts a millisecond stall on more than 1% of
        operations in some runs and not in others, which moved the p99
        of identical runs by up to 5x.  The median over windows makes a
        burst cost one window rather than the run.  Windows are as many
        as keep TAIL_WINDOW_OPS operations in each, at most RATE_WINDOWS.
        """
        windows = max(1, min(RATE_WINDOWS, self.completed // TAIL_WINDOW_OPS))
        width = self.seconds / windows
        buckets: List[List[float]] = [[] for _ in range(windows)]
        for log in self.logs:
            for moment, latency in zip(log.completed_at, log.latency_at):
                index = min(int((moment - self.start) / width), windows - 1)
                buckets[index].append(latency)
        tails = [
            percentile(sorted(bucket), 0.90) for bucket in buckets if bucket
        ]
        return statistics.median(tails) * 1e3 if tails else 0.0

    def latency_ms(self, kind: Optional[str] = None) -> Dict[str, float]:
        values = self.latencies(kind)
        return {
            "p50": percentile(values, 0.50) * 1e3,
            "p99": percentile(values, 0.99) * 1e3,
            "samples": len(values),
        }


class OpClient:
    """What every closed-loop client shares: one timed, checked operation.

    Holds the client's ClusterClient, the one ClientVerifier it pins
    digests in for the whole run, and its log; ``recorder`` is set
    during a traced phase.
    """

    recorder = None

    def __init__(self, client, checks: Checks):
        from repro.core.verifier import ClientVerifier
        from repro.errors import SpitzError, VerificationError

        self.client = client
        self.verifier = ClientVerifier()
        self.checks = checks
        self.log = OpLog()
        self._failures = (SpitzError, TimeoutError, OSError)
        self._rejections = VerificationError

    def timed(self, kind: str, call, check) -> Optional[object]:
        """Run ``call``; verify and ``check`` an ok response.

        Latency runs from the request to the end of the checks, so it
        includes client verification.  Failed and refused requests
        count in ``failed``; a failed check marks the run incorrect.
        Returns the response when it was ok.
        """
        log, rec = self.log, self.recorder
        span = rec.begin("op", kind=kind) if rec is not None else None
        log.attempted += 1
        start = time.perf_counter()
        try:
            response = call()
        except self._failures:
            response = None
        if response is None or not response.ok:
            log.failed += 1
            response = None
        else:
            try:
                self.verifier.observe(response.digest)
                verified = self.verifier.verify(response.proof)
            except self._rejections:
                verified = False
            if self.checks.expect(
                verified, f"{kind}: proof failed against the pinned digest"
            ):
                check(response)
            log.success(kind, start, time.perf_counter())
        if span is not None:
            rec.end(span)
        return response


class Run:
    """A workload's set-up, timed phases and end-of-run checks.

    Subclasses build ``clients`` (each with ``step()``, ``log``,
    ``recorder``, ``client`` and ``verifier``) in :meth:`setup`.
    """

    clients: list

    def probe(self) -> Dict[str, float]:
        """Counters whose growth over a phase the run reports."""
        return {}

    def phase(self, seconds: float) -> Phase:
        for client in self.clients:
            client.log = OpLog()
        before = self.probe()
        start = closed_loop([c.step for c in self.clients], seconds)
        phase = Phase([c.log for c in self.clients], start, seconds)
        after = self.probe()
        phase.growth = {key: after[key] - before[key] for key in before}
        return phase

    def check_stop(self, submitted: int, accounted: int) -> None:
        """Exactly-once accounting and zero verifier detections."""
        self.checks.record(
            "exactly_once",
            accounted == submitted and submitted > 0,
            f"processed+shed+failed_on_stop={accounted} but "
            f"submitted={submitted}",
        )
        detections = sum(c.verifier.detections for c in self.clients)
        self.checks.record(
            "no_detections", detections == 0, f"{detections} detections"
        )


def closed_loop(
    steps: Sequence[Callable[[], None]], seconds: float
) -> float:
    """Run each client's ``step`` back to back until the deadline.

    One thread per client; a client issues its next request only when
    the previous one has returned.  Returns the common start instant.
    """
    barrier = threading.Barrier(len(steps) + 1)
    start_box: List[float] = []
    errors: List[BaseException] = []

    def client(step: Callable[[], None]) -> None:
        barrier.wait()
        deadline = start_box[0] + seconds
        try:
            while time.perf_counter() < deadline:
                step()
        except BaseException as error:  # surfaced below, after join
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(step,), name=f"bench-client-{n}")
        for n, step in enumerate(steps)
    ]
    for thread in threads:
        thread.start()
    start_box.append(time.perf_counter())
    barrier.wait()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return start_box[0]


def run_steps(steps: Sequence[Callable[[], None]], count: int) -> None:
    """Warm-up: ``count`` operations per client, clients concurrent."""
    errors: List[BaseException] = []

    def client(step: Callable[[], None]) -> None:
        try:
            for _ in range(count):
                step()
        except BaseException as error:  # surfaced below, after join
            errors.append(error)

    threads = [threading.Thread(target=client, args=(s,)) for s in steps]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

