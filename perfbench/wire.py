"""The ``batch-scan-http`` workload: verified batches over HTTP.

The database runs in a server process of its own (``server.py``); this
load process drives it over two keep-alive connections, one
:class:`HttpClusterClient` and one :class:`ClientVerifier` per
connection.  The mix is 60% verified ``MULTI_GET`` of 16 uniform keys,
30% verified ``SCAN`` of 0.1% of the keys and 10% verified keyword
``SEARCH`` for zipf-drawn terms over the indexed ``docs`` table.
"""

from __future__ import annotations

import json
import pickle
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional

from common import (
    DATASET_SEED,
    MULTI_GET_KEYS,
    RECORDS,
    ROOT,
    SCAN_SELECTIVITY,
    SEARCH_COLUMN,
    SEARCH_ROWS,
    SEARCH_VOCABULARY,
    WORK,
    ZIPF_THETA,
    Checks,
    OpClient,
    Phase,
    Run,
    run_steps,
)
from repro.core.request_handler import Request, RequestKind
from repro.core.schema import encode_pk
from repro.core.universal_key import UniversalKey
from repro.search.proofs import SearchPredicate
from repro.serve import HttpClusterClient
from repro.serve.client import HttpTransport
from repro.workloads.generator import VALUE_LEN, WorkloadGenerator
from repro.workloads.search import SearchWorkload, StreamingZipf

import spans

CONNECTIONS = 2
#: Longest the load process waits for one line from the server.
SERVER_REPLY_TIMEOUT = 60.0


class WireMeter:
    """Counts HTTP response-body bytes per calling thread.

    Wraps the transport's single round-trip method for the whole run,
    so traced and untraced phases count bytes the same way.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._original = None

    def install(self) -> None:
        original = self._original = HttpTransport._round_trip
        local = self._local

        def round_trip(transport, *args, **kwargs):
            status, headers, data = original(transport, *args, **kwargs)
            local.bytes = getattr(local, "bytes", 0) + len(data)
            return status, headers, data

        HttpTransport._round_trip = round_trip

    def uninstall(self) -> None:
        if self._original is not None:
            HttpTransport._round_trip = self._original
            self._original = None

    def take(self) -> int:
        count = getattr(self._local, "bytes", 0)
        self._local.bytes = 0
        return count


class Inputs:
    """The loaded data set, plus the brute-force search answers."""

    def __init__(self):
        gen = WorkloadGenerator(RECORDS, seed=DATASET_SEED)
        self.records = dict(gen.records())
        self.keys = gen.keys
        self.sorted_keys = gen.sorted_keys
        self.scan_span = max(1, int(RECORDS * SCAN_SELECTIVITY))
        self.search = SearchWorkload(
            rows=SEARCH_ROWS, vocabulary=SEARCH_VOCABULARY, seed=DATASET_SEED
        )
        self.rows = [
            (row.pk, row.term, int(row.score)) for row in self.search.rows()
        ]
        matches: Dict[str, set] = {}
        for pk, term, _score in self.rows:
            matches.setdefault(term, set()).add(encode_pk("int", pk))
        self.term_pks: Dict[str, FrozenSet[bytes]] = {
            term: frozenset(pks) for term, pks in matches.items()
        }

    def write(self, path: Path) -> None:
        with open(path, "wb") as handle:
            pickle.dump({"records": self.records, "rows": self.rows}, handle)


class HttpLoadClient(OpClient):
    """One keep-alive connection issuing the mixed verified requests."""

    def __init__(
        self, port: int, inputs: Inputs, checks: Checks, meter: WireMeter,
        seed: int,
    ):
        super().__init__(HttpClusterClient("127.0.0.1", port), checks)
        self.inputs = inputs
        self.meter = meter
        self.rng = random.Random(seed)
        self.terms = StreamingZipf(SEARCH_VOCABULARY, ZIPF_THETA, seed)

    def step(self) -> None:
        draw = self.rng.random()
        if draw < 0.6:
            self._multi_get()
        elif draw < 0.9:
            self._scan()
        else:
            self._search()

    def _multi_get(self) -> None:
        keys = self.rng.sample(self.inputs.keys, MULTI_GET_KEYS)
        expected = [self.inputs.records[key] for key in keys]
        self._request(
            "mget",
            lambda: self.client.get_many(keys, verify=True),
            lambda result: result == expected,
        )

    def _scan(self) -> None:
        span = self.inputs.scan_span
        first = self.rng.randrange(len(self.inputs.sorted_keys) - span + 1)
        covered = self.inputs.sorted_keys[first:first + span]
        expected = [(key, self.inputs.records[key]) for key in covered]
        request = Request(
            RequestKind.SCAN, {"low": covered[0], "high": covered[-1]}, True
        )
        self._request(
            "scan",
            lambda: self.client.call(request),
            lambda result: [tuple(entry) for entry in result] == expected,
        )

    def _search(self) -> None:
        term = self.inputs.search.term_of(self.terms.next())
        expected = self.inputs.term_pks.get(term, frozenset())

        def matches(result) -> bool:
            found = [UniversalKey.decode(ukey) for ukey in result]
            return (
                len(found) == len(expected)
                and all(u.column == SEARCH_COLUMN for u in found)
                and {u.primary_key for u in found} == expected
            )

        self._request(
            "search",
            lambda: self.client.search(
                SEARCH_COLUMN, SearchPredicate.eq(term), verify=True
            ),
            matches,
        )

    def _request(self, kind: str, call, matches) -> None:
        def check(response) -> None:
            self.checks.expect(
                matches(response.result),
                f"{kind}: result differs from the benchmark's model",
            )

        response = self.timed(kind, call, check)
        body_bytes = self.meter.take()
        if response is None:
            return
        returned = len(response.result)
        log = self.log
        log.keys_returned += returned
        log.response_bytes += body_bytes
        if kind == "search":
            log.search_bytes += body_bytes
            log.search_results += returned


class ServerProcess:
    """The database's own process, driven over a line protocol."""

    def __init__(self, inputs_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("server.py")),
             str(inputs_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            text=True,
        )
        self.port = int(self._read()["port"])

    def _read(self) -> dict:
        watchdog = threading.Timer(SERVER_REPLY_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(
                f"benchmark server exited (code {self.proc.poll()})"
            )
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        reply = self.command("stop")
        self.proc.wait(timeout=SERVER_REPLY_TIMEOUT)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


class HttpRun(Run):
    """Server process up, connections warm, phases measured, checked."""

    def __init__(self, seed: int, checks: Checks):
        self.seed = seed
        self.checks = checks
        self.inputs = Inputs()
        WORK.mkdir(exist_ok=True)
        self.inputs_path = WORK / f"inputs-{seed}.pickle"
        self.spans_path = WORK / f"server-spans-{seed}.json"
        self.inputs.write(self.inputs_path)
        self.meter = WireMeter()
        self.meter.install()
        self.server: Optional[ServerProcess] = None
        self.clients: List[HttpLoadClient] = []

    @staticmethod
    def facts() -> Dict[str, object]:
        return {
            "records": RECORDS,
            "dataset_seed": DATASET_SEED,
            "key_bytes": "5-12",
            "value_bytes": VALUE_LEN,
            "search_rows": SEARCH_ROWS,
            "search_vocabulary": SEARCH_VOCABULARY,
            "connections": CONNECTIONS,
            "nodes": 2,
            "mix": "60% verified multi-get (K=16, uniform) / 30% verified "
            "scan (0.1%) / 10% verified keyword search (zipf 0.99)",
            "flush_policy": "none (in-memory server)",
        }

    def setup(self) -> float:
        """Start the server process, wait until it serves, warm up."""
        if self.server is not None:
            self.stop_and_check()
        start = time.perf_counter()
        self.server = ServerProcess(self.inputs_path)
        self.clients = [
            HttpLoadClient(
                self.server.port, self.inputs, self.checks, self.meter,
                seed=self.seed * 1000 + n,
            )
            for n in range(CONNECTIONS)
        ]
        run_steps([c.step for c in self.clients], 100)
        return time.perf_counter() - start

    @staticmethod
    def wire_bytes_per_key(phase: Phase) -> float:
        keys = phase.total("keys_returned")
        return phase.total("response_bytes") / keys if keys else 0.0

    def trace(self, recorder: spans.Recorder) -> None:
        self.server.command(f"trace {self.spans_path}")
        spans.install(recorder)

    def trace_report(self, recorder: spans.Recorder, report: dict):
        with open(self.spans_path) as handle:
            server = json.load(handle)
        self.spans_path.unlink()
        samples = defaultdict(list, recorder.samples)
        for name, values in server["samples"].items():
            samples[name].extend(values)
        return spans.graft(recorder.spans, server["spans"]), {
            "node.queue_wait_us": report["queue_wait_us"],
            "maxima": server["maxima"],
            "samples": samples,
        }

    def stop_and_check(self) -> dict:
        for client in self.clients:
            client.client.close()
        report = self.server.stop()
        self.server.kill()
        self.server = None
        self.check_stop(report["submitted"], report["accounted"])
        return report

    def cleanup(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None
        self.meter.uninstall()
        self.inputs_path.unlink(missing_ok=True)
