"""The ``query-http`` workload: query mix, scalar reference and HTTP client.

Each of the two keep-alive connections owns a request stream drawn from
the benchmark seed:

* platforms come from Figure 12's family (``hetero-star``: U(1,10)
  communication and computation factors on the matrix-product cost model,
  matrix sizes 40-200), 11 workers, or 50 workers for 1 in 10;
* 60% of the queries are one-port and 40% two-port;
* every 20th request is a ``/v1/query/batch`` of 16 queries;
* every other query (until the fresh ones run out) repeats one that the
  same connection has already had answered, so cache reads sit beside
  cache writes.  Repeats never cross connections and fresh queries never
  repeat across them, so whether an answer comes from the cache is known
  in advance exactly.

The shares are fixed patterns rather than draws, so that runs with
different seeds carry the same mix; the seed draws the platforms, the
matrix sizes and which earlier query each repeat asks again.

The expected answer of every distinct query is computed before the clock
starts through the scalar reference path (``repro.compare`` plus the
Theorem 1 optimum of the port model), and every answer received is
compared against it after the timed phase.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass

#: Fresh (never seen) queries per connection; once used up, a connection
#: only repeats.  Both pools together stay below the server's default
#: 1024-answer cache, so no repeat is ever evicted.
FRESH_PER_CONNECTION = 500
#: Requests generated per connection; the timed phase normally ends first.
REQUESTS_PER_CONNECTION = 4000
BATCH_SIZE = 16
#: Every BATCH_EVERY-th request is a batch.
BATCH_EVERY = 20
#: Of every 10 fresh queries, the first 6 are one-port and the last one
#: has the large platform.
ONE_PORT_OF_10 = 6
SMALL_WORKERS, LARGE_WORKERS = 11, 50
#: Figure 12's matrix sizes.
MATRIX_SIZES = (40, 60, 80, 100, 120, 140, 160, 180, 200)
CONNECTIONS = 2


@dataclass(frozen=True)
class Request:
    path: str
    body: bytes
    queries: tuple[int, ...]
    #: Whether each query's answer must come from the cache.
    cached: tuple[bool, ...]


@dataclass
class Sent:
    request: Request
    seconds: float
    status: int | None
    body: bytes | None


class QueryMix:
    """The distinct queries, their encoded bodies and the request streams."""

    def __init__(self, seed: int) -> None:
        from repro.api import Query
        from repro.workloads.matrices import MatrixProductWorkload
        from repro.workloads.platforms import campaign_factors

        self.queries: list = []
        self.streams: list[list[Request]] = []
        for connection in range(CONNECTIONS):
            rng = random.Random(seed * CONNECTIONS + connection)
            base = (seed * CONNECTIONS + connection) * 2
            factors = {
                SMALL_WORKERS: iter(
                    campaign_factors("hetero-star", FRESH_PER_CONNECTION, SMALL_WORKERS, base)
                ),
                LARGE_WORKERS: iter(
                    campaign_factors("hetero-star", FRESH_PER_CONNECTION, LARGE_WORKERS, base + 1)
                ),
            }
            fresh = []
            for index in range(FRESH_PER_CONNECTION):
                workers = LARGE_WORKERS if index % 10 == 9 else SMALL_WORKERS
                workload = MatrixProductWorkload(rng.choice(MATRIX_SIZES))
                platform = next(factors[workers]).platform(workload)
                query = Query.build(platform, one_port=index % 10 < ONE_PORT_OF_10)
                fresh.append(len(self.queries))
                self.queries.append(query)
            self.streams.append(self._stream(rng, fresh))
        self.bodies = [json.dumps(query.as_dict()).encode() for query in self.queries]
        for stream in self.streams:
            for index, request in enumerate(stream):
                stream[index] = self._encoded(request)

    @staticmethod
    def _stream(rng: random.Random, fresh: list[int]) -> list[Request]:
        answered: list[int] = []
        pending = list(reversed(fresh))
        stream = []
        slot = 0
        for number in range(1, REQUESTS_PER_CONNECTION + 1):
            size = BATCH_SIZE if number % BATCH_EVERY == 0 else 1
            members, cached = [], []
            for _ in range(size):
                repeat = bool(answered) and (not pending or slot % 2 == 1)
                members.append(rng.choice(answered) if repeat else pending.pop())
                cached.append(repeat)
                slot += 1
            answered.extend(query for query, hit in zip(members, cached) if not hit)
            path = "/v1/query/batch" if size > 1 else "/v1/query"
            stream.append(Request(path, b"", tuple(members), tuple(cached)))
        return stream

    def _encoded(self, request: Request) -> Request:
        if request.path == "/v1/query":
            body = self.bodies[request.queries[0]]
        else:
            body = b'{"queries": [' + b", ".join(self.bodies[q] for q in request.queries) + b"]}"
        return Request(request.path, body, request.queries, request.cached)

    def expected_answers(self) -> list[dict]:
        """The scalar reference's answer of every distinct query (JSON form)."""
        return [_reference_answer(query) for query in self.queries]


def _reference_answer(query) -> dict:
    from repro import compare, optimal_fifo_schedule, optimal_two_port_fifo_schedule
    from repro.api import Answer, HeuristicAnswer, query_key

    platform = query.platform
    results = compare(
        platform, query.heuristics, one_port=query.one_port, deadline=query.deadline
    )
    optimum = (optimal_fifo_schedule if query.one_port else optimal_two_port_fifo_schedule)(
        platform, deadline=query.deadline
    )
    theorem = results["OPT_FIFO"]
    if optimum.throughput != theorem.throughput or optimum.loads != theorem.loads:
        raise RuntimeError("scalar reference paths disagree on OPT_FIFO")
    entries = tuple(
        HeuristicAnswer.from_result(results[name], query.total_tasks) for name in query.heuristics
    )
    best = max(entries, key=lambda entry: entry.throughput)
    answer = Answer(
        key=query_key(query),
        one_port=query.one_port,
        heuristics=query.heuristics,
        total_tasks=query.total_tasks,
        deadline=query.deadline,
        platform_rows=query.platform_rows,
        best=best.name,
        results=entries,
    ).as_dict()
    del answer["cached"]
    return answer


def drive(streams: list[list[Request]], port: int, seconds: float) -> tuple[list[list[Sent]], float]:
    """Closed loop: one thread and one keep-alive connection per stream.

    Each connection sends its next request once the previous answer has
    been read, until ``seconds`` have passed or its stream is used up.
    Returns what each connection sent and the phase's wall time.
    """
    sent: list[list[Sent]] = [[] for _ in streams]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(stream: list[Request], out: list[Sent]) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        headers = {"Content-Type": "application/json"}
        try:
            for request in stream:
                begin = time.perf_counter()
                if begin >= deadline:
                    break
                try:
                    connection.request("POST", request.path, body=request.body, headers=headers)
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    status, body = None, None
                out.append(Sent(request, time.perf_counter() - begin, status, body))
        finally:
            connection.close()

    threads = [
        threading.Thread(target=loop, args=(stream, out)) for stream, out in zip(streams, sent)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent, time.perf_counter() - start


def check(sent: list[Sent], expected: list[dict]) -> int:
    """Failed operations among ``sent``: non-200 answers and mismatches.

    An answer matches when it equals the scalar reference float for float
    and its ``cached`` flag is the one the stream predicted.
    """
    failed = 0
    for item in sent:
        if item.status != 200:
            failed += 1
            continue
        payload = json.loads(item.body)
        answers = payload["answers"] if item.request.path != "/v1/query" else [payload]
        if len(answers) != len(item.request.queries):
            failed += 1
            continue
        for answer, query, cached in zip(answers, item.request.queries, item.request.cached):
            if answer.pop("cached", None) is not cached or answer != expected[query]:
                failed += 1
                break
    return failed
