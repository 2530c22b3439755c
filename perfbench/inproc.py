"""The in-process workloads: ``point-read`` and ``update-mix``.

Both drive a :class:`SpitzCluster` through :class:`ClusterClient`; each
client keeps one :class:`ClientVerifier` for the whole run and checks
every verified response against its pinned digest and against the
benchmark's own model of the last acknowledged write.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    DATASET_SEED,
    RECORDS,
    WIRE_SAMPLE_EVERY,
    WORK,
    ZIPF_THETA,
    Checks,
    OpClient,
    Phase,
    Run,
    dir_bytes,
    rss_now_mb,
    rss_peak_mb,
    run_steps,
)
from repro.core.client import ClusterClient
from repro.core.node import SpitzCluster
from repro.durability import recover
from repro.serve.codec import encode_response
from repro.workloads.distributions import ZipfChooser
from repro.workloads.generator import VALUE_LEN, WorkloadGenerator

import spans

_VALUE_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789"


class KvClient(OpClient):
    """One closed-loop client: zipf keys from its own key set."""

    def __init__(
        self,
        cluster: SpitzCluster,
        checks: Checks,
        keys: List[bytes],
        model: Dict[bytes, bytes],
        seed: int,
        write_fraction: float,
    ):
        super().__init__(ClusterClient(cluster), checks)
        self.keys = keys
        self.model = model
        self.chooser = ZipfChooser(len(keys), theta=ZIPF_THETA, seed=seed)
        self.rng = random.Random(seed ^ 0x5EED)
        self.write_fraction = write_fraction

    def step(self) -> None:
        key = self.keys[self.chooser.next()]
        if self.write_fraction and self.rng.random() < self.write_fraction:
            value = bytes(self.rng.choices(_VALUE_ALPHABET, k=VALUE_LEN))
            response = self.timed(
                "put",
                lambda: self.client.put(key, value, verify=True),
                lambda r: self._written(key, value, r),
            )
        else:
            response = self.timed(
                "get",
                lambda: self.client.get(key, verify=True),
                lambda r: self.checks.expect(
                    r.result == self.model[key] and r.proof.value == r.result,
                    f"get {key!r} returned a value other than the last "
                    "acknowledged write",
                ),
            )
        if response is not None:
            if len(self.log.completed_at) % WIRE_SAMPLE_EVERY == 0:
                self.log.samples.append(response)

    def _written(self, key: bytes, value: bytes, response) -> None:
        self.checks.expect(
            response.proof.value == value,
            f"put {key!r}: inclusion proof does not carry the written value",
        )
        self.model[key] = value
        self.log.writes += 1
        self.log.user_bytes_written += len(key) + len(value)


class InProcessRun(Run):
    """One cluster set up, warmed, measured, stopped and checked."""

    def __init__(self, workload: str, seed: int, checks: Checks, import_s: float):
        self.durable = workload == "update-mix"
        self.seed = seed
        self.checks = checks
        #: Importing the program is part of every set-up sample.
        self.import_s = import_s
        gen = WorkloadGenerator(RECORDS, seed=DATASET_SEED)
        self.records = dict(gen.records())
        self.keys = gen.keys
        self.clients_n = 2 if self.durable else 1
        self.db_root: Optional[Path] = None
        self.cluster: Optional[SpitzCluster] = None
        self.clients: List[KvClient] = []

    def facts(self) -> Dict[str, object]:
        return {
            "records": RECORDS,
            "dataset_seed": DATASET_SEED,
            "key_bytes": "5-12",
            "value_bytes": VALUE_LEN,
            "clients": self.clients_n,
            "nodes": 2,
            "zipf_theta": ZIPF_THETA,
            "mix": "50% verified put / 50% verified get" if self.durable
            else "100% verified get",
            "flush_policy": "WAL fsync per commit (sync_every=1)"
            if self.durable else "none (in-memory)",
        }

    def setup(self) -> float:
        """Build, bulk-load, start and warm; returns seconds taken."""
        self.cleanup()
        start = time.perf_counter()
        if self.durable:
            WORK.mkdir(exist_ok=True)
            self.db_root = Path(tempfile.mkdtemp(prefix="wal-", dir=WORK))
            cluster = SpitzCluster(
                nodes=2, durable_root=str(self.db_root), sync_every=1
            )
        else:
            cluster = SpitzCluster(nodes=2)
        cluster.db.put_batch(self.records)
        cluster.start()
        self.cluster = cluster
        self.model = dict(self.records)
        self.clients = [
            KvClient(
                cluster,
                self.checks,
                self.keys[n::self.clients_n],
                self.model,
                seed=self.seed * 1000 + n,
                write_fraction=0.5 if self.durable else 0.0,
            )
            for n in range(self.clients_n)
        ]
        run_steps(
            [c.step for c in self.clients], 300 if self.durable else 2000
        )
        elapsed = time.perf_counter() - start
        # Loaded and warmed.  update-mix grows with every write it
        # seals; the traced run reports that growth per write.
        self.rss_ready_mb = rss_peak_mb()
        gc.collect()
        return self.import_s + elapsed

    def probe(self) -> Dict[str, float]:
        stats = self.cluster.db.chunks.stats
        return {
            "chunk_puts": stats.puts,
            "unique_chunks": stats.unique_chunks,
            "physical": stats.physical_bytes,
            "wal": dir_bytes(self.db_root) if self.durable else 0,
            "rss_mb": rss_now_mb(),
        }

    def wire_bytes_per_key(self, phase: Phase) -> float:
        """Mean bytes of one verified response per distinct key sampled.

        Responses are framed as the HTTP service frames them.  Each key
        counts once: weighting by zipf frequency would let the proof
        sizes of a handful of hot keys, which change with the seed,
        decide the figure.
        """
        sizes = {}
        for log in phase.logs:
            for response in log.samples:
                key = response.proof.key
                if key not in sizes:
                    frame = json.dumps(encode_response(response))
                    sizes[key] = len(frame.encode("utf-8"))
        return sum(sizes.values()) / len(sizes) if sizes else 0.0

    def trace(self, recorder: spans.Recorder) -> None:
        self._wait = self.cluster.db.metrics.histogram("queue.wait_seconds")
        self._wait_before = (self._wait.count, self._wait.total)
        spans.install(recorder, [self.cluster.db])

    def trace_report(self, recorder: spans.Recorder, report: dict):
        waits = self._wait.count - self._wait_before[0]
        waited = self._wait.total - self._wait_before[1]
        return recorder.spans, {
            "node.queue_wait_us": waited / waits * 1e6 if waits else 0.0,
            "maxima": recorder.maxima,
            "samples": recorder.samples,
        }

    def stop_and_check(self) -> Dict[str, float]:
        """Stop the cluster; exactly-once and durability checks.

        The live cluster is released before recovery runs, so the
        recovered copy reuses its memory instead of doubling the peak.
        """
        cluster = self.cluster
        digest = cluster.db.digest()
        mask_bits = cluster.db.ledger.tree.mask_bits
        cluster.stop()
        counters = cluster.stats()["counters"]
        self.check_stop(
            counters.get("queue.submitted", 0),
            counters.get("node.processed", 0)
            + counters.get("queue.shed", 0)
            + counters.get("cluster.failed_on_stop", 0),
        )
        self.cluster = cluster = None
        self.clients = []
        gc.collect()
        report = {"rss_peak_mb": self.rss_ready_mb}
        if self.durable:
            report["wal.recovery_s"] = self._check_recovery(digest, mask_bits)
        return report

    def _check_recovery(self, digest, mask_bits: int) -> float:
        start = time.perf_counter()
        report = recover(self.db_root, mask_bits=mask_bits)
        elapsed = time.perf_counter() - start
        db = report.db
        self.checks.record(
            "recovered_digest", db.digest() == digest,
            "recovered ledger digest differs from the live one",
        )
        lost = [k for k, v in self.model.items() if db.get(k) != v]
        self.checks.record(
            "recovered_writes", not lost,
            f"{len(lost)} acknowledged writes not recovered",
        )
        self.checks.record(
            "recovered_chain", db.verify_chain(), "verify_chain() is False"
        )
        return elapsed

    def cleanup(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None
        if self.db_root is not None:
            shutil.rmtree(self.db_root, ignore_errors=True)
            self.db_root = None
        self.clients = []
        gc.collect()
