"""Repository benchmark: campaigns from the shell and an HTTP query mix.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-lp --seed 1 --seconds 28 --trace 0

Workloads (``NOTES.md`` gives the reasons and the layer map):

* ``campaign-lp`` — ``scenarios run mega-uniform`` into a cold store;
* ``campaign-twoport`` — ``scenarios run fig12-twoport --count 500``;
* ``campaign-fabric`` — ``scenarios run mega-uniform --workers 2``;
* ``query-http`` — ``scenarios serve`` under a closed loop of two
  keep-alive connections.

Every program process is started through ``launch.py``.  A campaign run
repeats rounds of one campaign, each from spawn to exit, and reports the
medians; its first rounds also hold one set-up probe each (a process that
only imports ``repro.cli``).  With ``--trace 1`` the rounds alternate traced and untraced
campaigns, and the per-layer metrics come from the traced ones.  The last
line of standard output is the JSON result; a diagnostics line (host steal
ticks, load average, every campaign's time or every batch request's
latency) goes to standard error and to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"
PINS = HERE / "pins.json"
STATE = ROOT / ".perfbench"

CAMPAIGNS = {
    "campaign-lp": ["mega-uniform"],
    "campaign-twoport": ["fig12-twoport", "--count", "500"],
    "campaign-fabric": ["mega-uniform", "--workers", "2"],
}
WORKLOADS = (*CAMPAIGNS, "query-http")
#: The ``campaign-fabric`` store must equal this workload's, byte for byte.
SINGLE_WRITER = "campaign-lp"
#: Counts that must repeat exactly for one seed (ledger layer, count).
EXACT_COUNTS = (
    ("sample.calls", "sample", "calls"),
    ("simplex.lps", "simplex", "lps"),
    ("simplex.pivots", "simplex", "pivots"),
    ("replay.occurrences", "replay", "occurrences"),
    ("append.rows", "append", "rows"),
    ("append.bytes", "append", "bytes"),
    ("append.fsyncs", "append", "fsyncs"),
    ("fabric.leases", "fabric.lease", "calls"),
    ("fabric.processes", "fabric.process", "calls"),
)
#: Set-up probes per campaign run, one in each of its first rounds.
SETUP_PROBES = 3
#: Servers started per query-http run for ``setup_s``, the timed one included.
SERVER_PROBES = 5
UNIT_TIMEOUT = 120.0
DRAIN_TIMEOUT = 10.0
READY_TIMEOUT = 60.0
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------- processes


@dataclass
class Exit:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def spawn(args: list[str], log: Path, ledger: Path | None = None) -> Exit:
    """Run one program process through the launcher, spawn to exit.

    CPU time and peak RSS come from ``wait4`` and cover the process and
    every descendant it reaped (the fabric's workers).
    """
    command = [sys.executable, str(LAUNCHER)]
    if ledger is not None:
        command += ["--ledger", str(ledger)]
    with open(log, "wb") as output:
        begin = time.perf_counter()
        process = subprocess.Popen(
            command + args, stdout=output, stderr=subprocess.STDOUT, env=program_env()
        )
        watchdog = threading.Timer(UNIT_TIMEOUT, process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - begin
    process.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=process.returncode,
    )


class Server:
    """One ``scenarios serve`` process; set-up time is spawn to ready.

    Its output goes to a file this object keeps open until the process
    has exited, so the server never writes into a closed pipe.
    """

    def __init__(self, work: Path, name: str, ledger: Path | None = None) -> None:
        self.path = work / f"{name}.out"
        self.output = open(self.path, "wb")
        command = [sys.executable, str(LAUNCHER)]
        if ledger is not None:
            command += ["--ledger", str(ledger)]
        command += ["scenarios", "serve", "--port", "0"]
        begin = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self.output, stderr=subprocess.STDOUT, env=program_env()
        )
        self.port = 0
        self.port = self._wait_ready(begin)
        self.setup = time.perf_counter() - begin

    def _wait_ready(self, begin: float) -> int:
        marker = b"serving on http://"
        with open(self.path, "rb") as reader:
            while time.perf_counter() - begin < READY_TIMEOUT:
                text = reader.read()
                reader.seek(0)
                if marker in text:
                    address = text.split(marker, 1)[1].split(b" ", 1)[0]
                    return int(address.rsplit(b":", 1)[1])
                if self.process.poll() is not None:
                    break
                time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"scenarios serve did not become ready; see {self.path}")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def _healthz(self) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=DRAIN_TIMEOUT)
        try:
            connection.request("GET", "/v1/healthz")
            connection.getresponse().read()
        except (OSError, http.client.HTTPException):
            pass  # judged by the exit below
        finally:
            connection.close()

    def stop(self) -> int:
        """SIGTERM, then wait out the drain; returns the failed-operation count.

        A server still running after the drain timeout is killed and
        counts as one failed operation, so none outlives its run.
        """
        failed = 0
        if self.process.poll() is None:
            if self.port:
                # Stop only a server that answers: it prints its address
                # before it installs the SIGTERM handler, and a SIGTERM in
                # between kills it without a drain (see NOTES.md).
                self._healthz()
            self.process.send_signal(signal.SIGTERM)
        try:
            failed = int(self.process.wait(timeout=DRAIN_TIMEOUT) != 0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            failed = 1
        self.output.close()
        return failed


# ------------------------------------------------------------------ helpers


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def store_digest(store: Path) -> str | None:
    paths = list(store.glob("*/chunks.jsonl"))
    if len(paths) != 1:
        return None
    return hashlib.sha256(paths[0].read_bytes()).hexdigest()


def store_rows(store: Path) -> int:
    """Scenarios persisted in a store (the sum of its chunks' ranges)."""
    rows = 0
    for path in store.glob("*/chunks.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            chunk = json.loads(line)
            rows += chunk["stop"] - chunk["start"]
    return rows


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def exact_counts(ledger: dict) -> dict[str, int]:
    return {
        name: int(ledger[layer][count])
        for name, layer, count in EXACT_COUNTS
        if layer in ledger
    }


def host_sample() -> dict:
    steal = int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])
    return {"steal_ticks": steal, "loadavg": Path("/proc/loadavg").read_text().split()[:3]}


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(reason)

    def error(self, reason: str) -> None:
        """A check that is no operation of its own (pins, exact counts)."""
        self.errors.append(reason)


# ---------------------------------------------------------------- campaigns


@dataclass
class CampaignUnit:
    exit: Exit
    digest: str | None
    rows: int
    ledger: dict | None


def campaign_unit(workload: str, seed: int, work: Path, index: int, traced: bool) -> CampaignUnit:
    """One cold-store campaign, shell to exit."""
    from trace_layers import read_ledger

    store = work / f"store-{index}"
    ledger_dir = work / f"ledger-{index}" if traced else None
    args = ["scenarios", "run", *CAMPAIGNS[workload], "--seed", str(seed), "--store", str(store)]
    result = spawn(args, work / f"campaign-{index}.out", ledger_dir)
    digest = store_digest(store)
    rows = store_rows(store)
    ledger = read_ledger(ledger_dir) if traced else None
    shutil.rmtree(store, ignore_errors=True)
    if ledger_dir is not None:
        shutil.rmtree(ledger_dir, ignore_errors=True)
    return CampaignUnit(result, digest, rows, ledger)


def run_campaign(workload: str, seed: int, seconds: float, trace: bool, work: Path, tally: Tally):
    pins = load_pins()
    pinned = pins.get(workload, {}).get(str(seed), {})
    store_pin = pins.get(SINGLE_WRITER, {}) if workload == "campaign-fabric" else pins.get(workload, {})
    reference = store_pin.get(str(seed), {}).get("sha256")
    setups: list[float] = []
    units: list[CampaignUnit] = []
    begin = time.perf_counter()
    while True:
        if not trace and len(setups) < SETUP_PROBES:
            probe = spawn(["--import-only"], work / "probe.out")
            tally.attempt(probe.code == 0, f"set-up probe exited {probe.code}")
            setups.append(probe.wall)
        traced = trace and len(units) % 2 == 0
        units.append(campaign_unit(workload, seed, work, len(units), traced))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(units) + 1) / len(units) > seconds:
            break

    if workload == "campaign-fabric" and reference is None:
        # No pin for this seed: the single writer's store, made after the
        # timed phase, is the reference.
        single = campaign_unit(SINGLE_WRITER, seed, work, len(units), False)
        tally.attempt(single.exit.code == 0, f"single-writer campaign exited {single.exit.code}")
        reference = single.digest
    reference = reference or units[0].digest
    for unit in units:
        tally.attempt(
            unit.exit.code == 0 and unit.digest == reference,
            f"campaign exited {unit.exit.code} with chunks.jsonl sha256 {unit.digest}, "
            f"expected {reference}",
        )

    walls = [unit.exit.wall for unit in units]
    if not trace:
        return {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
            "items_per_s": (statistics.median([unit.rows / unit.exit.wall for unit in units]), "1/s"),
            "peak_rss_mb": (statistics.median([unit.exit.rss_mb for unit in units]), "MB"),
        }, {"campaign_s": walls, "cpu_s": [unit.exit.cpu for unit in units]}

    traced_units = [unit for unit in units if unit.ledger and unit.exit.code == 0]
    untraced = [unit.exit.wall for unit in units if unit.ledger is None]
    if not traced_units:
        return {}, {"campaign_s": walls}
    counts = [exact_counts(unit.ledger) for unit in traced_units]
    for other in counts[1:]:
        if other != counts[0]:
            tally.error(f"traced counts drift within the run: {counts[0]} vs {other}")
    if "counts" in pinned and counts and counts[0] != pinned["counts"]:
        tally.error(f"traced counts {counts[0]} differ from the pinned {pinned['counts']}")
    per_unit = [layer_metrics(unit.ledger, unit.exit.wall) for unit in traced_units]
    metrics = {
        name: (statistics.median([layers[name][0] for layers in per_unit]), unit)
        for name, (_, unit) in per_unit[0].items()
    }
    traced_wall = statistics.median([unit.exit.wall for unit in traced_units])
    # The first round is traced, so a run of one round has no untraced wall.
    plain_wall = statistics.median(untraced) if untraced else traced_wall
    metrics["trace.op_ms"] = (1e3 * traced_wall, "ms")
    metrics["trace.ops"] = (len(traced_units), "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall - plain_wall) / plain_wall, "%")
    timings = {"campaign_s": walls}
    if workload != "campaign-fabric":
        timings["ledger_coverage"] = statistics.median(
            sum(unit.ledger.get(layer, {}).get("s", 0.0) for layer in COVERED) / unit.exit.wall
            for unit in traced_units
        )
    return metrics, timings


#: Layers reported by their inclusive seconds.
LAYERS = (
    "import", "sample", "evaluate", "solve", "build", "simplex", "noise", "replay",
    "append", "aggregate", "parse", "hash", "encode",
)
#: The top-level layers of a single-writer campaign; their share of the
#: campaign's wall time is its ledger coverage (a diagnostic).
COVERED = ("import", "evaluate", "append", "aggregate")


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 for a layer never entered (``whole`` is 0)."""
    return part / whole if whole else 0.0


def layer_metrics(
    ledger: dict, wall: float, client_ms: float = 0.0, queries: int = 0
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced operation set.

    Every workload reports every layer: a layer it never enters reads 0,
    in its seconds, its counts and its per-call figures alike.  ``wall``
    is the traced campaign's wall time (or the traced serve phase's);
    ``client_ms`` is the mean client latency of single queries and
    ``queries`` the queries answered (0 for campaigns).
    """

    def total(layer: str, count: str = "s") -> float:
        return ledger.get(layer, {}).get(count, 0)

    metrics = {f"{layer}.s": (total(layer), "s") for layer in LAYERS}
    metrics["sample.calls"] = (total("sample", "calls"), "count")
    inner = total("solve") + total("noise") + total("replay")
    metrics["evaluate.self_s"] = (total("evaluate") - inner if "evaluate" in ledger else 0.0, "s")
    lps = total("simplex", "lps")
    metrics["simplex.lps"] = (lps, "count")
    metrics["simplex.pivots_per_lp"] = (ratio(total("simplex", "pivots"), lps), "count")
    metrics["simplex.us_per_lp"] = (1e6 * ratio(total("simplex"), lps), "us")
    metrics["simplex.fallback_ratio"] = (ratio(total("simplex", "fallbacks"), lps), "ratio")
    occurrences = total("replay", "occurrences")
    metrics["replay.occurrences"] = (occurrences, "count")
    metrics["replay.us_per_occurrence"] = (1e6 * ratio(total("replay"), occurrences), "us")
    for count in ("rows", "bytes", "fsyncs"):
        metrics[f"append.{count}"] = (total("append", count), "count")
    evaluate = total("fabric.evaluate")
    metrics["fabric.leases"] = (total("fabric.lease", "calls"), "count")
    metrics["fabric.processes"] = (total("fabric.process", "calls"), "count")
    metrics["fabric.evaluate_s"] = (evaluate, "s")
    metrics["fabric.utilisation"] = (ratio(evaluate, 2 * wall), "ratio")
    metrics["fabric.merge_s"] = (total("fabric.merge"), "s")
    reads = total("cache.get", "calls")
    service = 1e3 * ratio(total("service.query"), total("service.query", "calls"))
    metrics["hash.calls_per_query"] = (ratio(total("hash", "calls"), queries), "count")
    metrics["cache.s"] = (total("cache.get") + total("cache.put"), "s")
    metrics["cache.hit_ratio"] = (ratio(total("cache.get", "hits"), reads), "ratio")
    metrics["funnel.wait_ms"] = (1e3 * ratio(total("funnel", "wait"), total("funnel", "calls")), "ms")
    metrics["service.ms_per_query"] = (service, "ms")
    metrics["kernel.ms_per_call"] = (1e3 * ratio(total("kernel"), total("kernel", "calls")), "ms")
    metrics["http.self_ms"] = (client_ms - service if client_ms else 0.0, "ms")
    return metrics


# --------------------------------------------------------------- query-http


def run_query(seed: int, seconds: float, trace: bool, work: Path, tally: Tally):
    sys.path.insert(0, str(SRC))
    from http_mix import QueryMix, check, drive
    from trace_layers import read_ledger

    mix = QueryMix(seed)
    expected = mix.expected_answers()

    def phase(name: str, duration: float, ledger: Path | None = None):
        server = Server(work, name, ledger)
        try:
            cpu = server.cpu_seconds()
            sent, elapsed = drive(mix.streams, server.port, duration)
            cpu = server.cpu_seconds() - cpu
            rss = server.peak_rss_mb()
        finally:
            drained = server.stop() == 0
        tally.attempt(drained, f"{name}: server did not drain cleanly")
        flat = [item for stream in sent for item in stream]
        failed = check(flat, expected)
        tally.attempted += len(flat)
        tally.failed += failed
        if failed:
            tally.error(f"{name}: {failed} request(s) failed or mismatched the reference")
        return server, flat, elapsed, cpu, rss

    if not trace:
        setups = []
        for probe in range(SERVER_PROBES - 1):
            server = Server(work, f"probe-{probe}")
            setups.append(server.setup)
            tally.attempt(server.stop() == 0, "set-up probe server did not drain cleanly")
        server, sent, elapsed, cpu, rss = phase("serve", seconds)
        setups.append(server.setup)
        return query_metrics(sent, elapsed, cpu, rss, statistics.median(setups))

    _, plain, _, _, _ = phase("serve-untraced", seconds / 2)
    ledger_dir = work / "ledger"
    _, traced, elapsed, _, _ = phase("serve-traced", seconds / 2, ledger_dir)
    ledger = read_ledger(ledger_dir)
    return query_layers(ledger, traced, plain, elapsed, tally), {"phase_s": elapsed}


def _latencies(sent, path: str, cached: bool | None = None) -> list[float]:
    return [
        1e3 * item.seconds
        for item in sent
        if item.status == 200
        and item.request.path == path
        and (cached is None or item.request.cached[0] == cached)
    ]


def query_metrics(sent, elapsed: float, cpu: float, rss: float, setup: float):
    """End-to-end metrics of the serve phase, with the query-only ones as timings.

    An operation is one query: ``op_p50_ms`` is the latency of single
    ``/v1/query`` requests, while ``items_per_s`` counts batch members as
    queries.  The hit/miss split, the p99 and the batch latencies have no
    campaign counterpart, so they go to the diagnostics line instead of the
    result; so does the server's CPU time per query, which spreads too
    widely between runs to be gated (see ``NOTES.md``).
    """
    singles = _latencies(sent, "/v1/query")
    queries = sum(len(item.request.queries) for item in sent)
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_ms": (statistics.median(singles), "ms"),
        "items_per_s": (queries / elapsed, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    timings = {
        "phase_s": elapsed,
        "cpu_ms_per_query": 1e3 * cpu / queries,
        "hit_p50_ms": statistics.median(_latencies(sent, "/v1/query", True)),
        "miss_p50_ms": statistics.median(_latencies(sent, "/v1/query", False)),
        "batch_ms": _latencies(sent, "/v1/query/batch"),
    }
    if len(singles) >= 100 * TAIL_SAMPLES:
        timings["query_p99_ms"] = percentile(singles, 0.99)
    return metrics, timings


def query_layers(ledger: dict, traced, plain, elapsed: float, tally: Tally):
    """Per-layer metrics of the traced serve phase, with its exact checks."""
    queries = sum(len(item.request.queries) for item in traced)
    hits = sum(sum(item.request.cached) for item in traced)
    singles = [item for item in traced if item.request.path == "/v1/query"]
    batches = len(traced) - len(singles)
    expected = {
        ("service.query", "calls"): len(singles),
        ("service.batch", "calls"): batches,
        ("cache.get", "calls"): queries,
        ("cache.get", "hits"): hits,
        ("hash", "calls"): queries + (queries - hits),
    }
    for (layer, count), value in expected.items():
        seen = ledger.get(layer, {}).get(count, 0)
        if seen != value:
            tally.error(f"traced {layer}.{count} = {seen}, the stream predicts {value}")
    client = statistics.fmean(_latencies(traced, "/v1/query"))
    untraced = statistics.median(_latencies(plain, "/v1/query"))
    traced_p50 = statistics.median(_latencies(traced, "/v1/query"))
    metrics = layer_metrics(ledger, elapsed, client, queries)
    metrics["trace.op_ms"] = (traced_p50, "ms")
    metrics["trace.ops"] = (queries, "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced) / untraced, "%")
    return metrics


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so every program process is stopped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    before = host_sample()
    try:
        if args.workload == "query-http":
            metrics, timings = run_query(args.seed, args.seconds, bool(args.trace), work, tally)
        else:
            metrics, timings = run_campaign(
                args.workload, args.seed, args.seconds, bool(args.trace), work, tally
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = host_sample()
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "time": time.time(),
        "steal_ticks": after["steal_ticks"] - before["steal_ticks"],
        "loadavg": [before["loadavg"], after["loadavg"]],
        **timings,
        "errors": tally.errors,
    }
    line = json.dumps(diagnostics)
    print(f"perfbench: {line}", file=sys.stderr)
    with open(STATE / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(line + "\n")
    manifest = ROOT / "BENCHMARK.json"
    if manifest.is_file():
        spec = json.loads(manifest.read_text())
        kind = "per_layer" if args.trace else "end_to_end"
        wanted = {metric["name"]: metric["unit"] for metric in spec[kind]}
        got = {name: unit for name, (_, unit) in metrics.items()}
        if got != wanted:
            print(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json's "
                  f"{sorted(wanted.items())}", file=sys.stderr)
            return 3
    result = {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
