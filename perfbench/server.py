"""Server process of the ``batch-scan-http`` workload.

Started by the load process with the inputs it generated.  Builds the
service with ``serve_cluster(nodes=2, indexed_columns=[docs.term])``,
bulk-loads the key-value records with ``put_batch`` and the search
table row by row, then prints one JSON line ``{"port": N}`` and obeys
commands read from stdin, one per line, each answered with one JSON
line:

``trace <path>``  install the span wrappers in this process; spans go
                  to ``<path>`` when the server stops
``stop``          stop the service, check exactly-once accounting and
                  report it with this process's peak RSS
"""

from __future__ import annotations

import json
import pickle
import sys

import spans
from common import SEARCH_COLUMN, require_source, rss_peak_mb

#: Server span ids start here so they never collide with the client's.
SERVER_FIRST_SPAN_ID = 1 << 40


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    require_source()
    from repro.serve import serve_cluster

    with open(sys.argv[1], "rb") as handle:
        inputs = pickle.load(handle)  # written by this benchmark's load process
    service = serve_cluster(nodes=2, indexed_columns=[SEARCH_COLUMN])
    db = service.cluster.db
    db.put_batch(inputs["records"])
    db.sql(
        "CREATE TABLE docs (id INT, term STR, score INT, PRIMARY KEY (id))"
    )
    for pk, term, score in inputs["rows"]:
        db.insert("docs", {"id": pk, "term": term, "score": score})
    _reply({"port": service.port})

    recorder = None
    span_path = None
    wait_before = (0, 0.0)
    wait_hist = db.metrics.histogram("queue.wait_seconds")
    for line in sys.stdin:
        command = line.split()
        if command and command[0] == "trace":
            span_path = command[1]
            wait_before = (wait_hist.count, wait_hist.total)
            recorder = spans.Recorder(first_id=SERVER_FIRST_SPAN_ID)
            spans.install(recorder, [db], [service.server])
            _reply({"tracing": True})
        elif command == ["stop"]:
            break
    if recorder is not None:
        recorder.uninstall()
    rss = rss_peak_mb()
    service.stop()
    counters = service.cluster.stats()["counters"]
    report = {
        "rss_peak_mb": rss,
        "submitted": counters.get("queue.submitted", 0),
        "accounted": counters.get("node.processed", 0)
        + counters.get("queue.shed", 0)
        + counters.get("cluster.failed_on_stop", 0),
    }
    if recorder is not None:
        waits = wait_hist.count - wait_before[0]
        report["queue_wait_us"] = (
            (wait_hist.total - wait_before[1]) / waits * 1e6 if waits else 0.0
        )
        with open(span_path, "w") as out:
            json.dump(
                {
                    "spans": recorder.spans,
                    "samples": recorder.samples,
                    "maxima": recorder.maxima,
                },
                out,
            )
    _reply(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
