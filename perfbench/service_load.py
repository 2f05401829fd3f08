"""The ``service-warm`` workload: a closed loop against ``jrpm serve``.

One process drives a fresh daemon (``--jobs 2 --no-cache --profdb``)
over one connection, one request outstanding at a time.  Every request
is a ``run`` of a small-size registry program, in the order a seeded
generator gives.  The first round requests each program once: those
requests run cold and write the profile DB.  Every later request
warm-starts from it, so profiling and the baseline run are replayed and
only recompile and TLS run live.  Only the warm requests after the
first round are timed: a long-running daemon pays the cold run once
per program.

The timed requests go out round by round.  Between rounds, while the
daemon is idle, the client probes the host's speed; the timed wall
times are converted to reference seconds by those probes (see
:class:`common.HostSpeed`).
"""

import concurrent.futures
import os
import random
import statistics
import subprocess
import sys
import threading
import time

from common import (E2E_UNITS, LAYER_UNITS, Gate, HostSpeed,
                    children_peak_rss_mb, geomean, percentile, ratio,
                    signature)
from pipeline_load import reference_outputs
from spans import (Spans, format_table, layer_metrics, layer_targets,
                   stage_targets)

PROGRAMS = ("BitOps", "IDEA", "compress", "Huffman", "euler", "fft",
            "decJpeg", "mpegVideo")
SIZE = "small"
CONNECTIONS = 1
DAEMON_JOBS = 2
SETUP_REPEATS = 5
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 150.0
#: timed requests a run sends at least, even past ``--seconds``, so
#: that at least ten latency samples lie above p90
MIN_TIMED = 100


def request_rounds(seed):
    """Endless rounds of program names, each a seeded permutation of
    :data:`PROGRAMS`."""
    rng = random.Random(seed)
    while True:
        round_ = list(PROGRAMS)
        rng.shuffle(round_)
        yield round_


class Daemon:
    """One ``jrpm serve`` process on an ephemeral localhost port."""

    def __init__(self, src_dir, workdir, tag):
        self.log_path = os.path.join(workdir, "daemon-%s.log" % tag)
        profdb = os.path.join(workdir, "profdb-%s.json" % tag)
        env = dict(os.environ, PYTHONPATH=src_dir)
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", str(DAEMON_JOBS), "--no-cache",
                 "--profdb", profdb],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, env=env)
        try:
            self.port = self._wait_for_port()
            from repro.service import JrpmClient
            with JrpmClient.connect(port=self.port,
                                    timeout=START_TIMEOUT_S) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        #: seconds from launch until the daemon answered ``ping``
        self.ready_s = time.perf_counter() - started

    def _wait_for_port(self):
        marker = "listening on 127.0.0.1:"
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            with open(self.log_path) as log:
                text = log.read()
            if marker in text:
                return int(text.split(marker)[1].split()[0])
            if self.process.poll() is not None \
                    or time.perf_counter() > deadline:
                raise RuntimeError("daemon did not start; log:\n" + text)
            time.sleep(0.005)

    def connect(self):
        from repro.service import JrpmClient
        return JrpmClient.connect(port=self.port, timeout=REQUEST_TIMEOUT_S)

    def stop(self):
        """Drain the daemon and wait for it to exit."""
        try:
            with self.connect() as client:
                client.drain()
            self.process.wait(timeout=60)
        finally:
            self.kill()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


class ServiceLoad:
    def __init__(self, seed, src_dir, workdir):
        from repro.service import RunOptions
        from repro.workloads import lookup
        self.rounds = request_rounds(seed)
        self.sources = {name: lookup(name).source(SIZE)
                        for name in PROGRAMS}
        self.options = RunOptions()
        self.gate = Gate(reference_outputs(self.sources), key=signature)
        self.local_db = os.path.join(workdir, "profdb-local.json")
        #: probes for the client's wall times and the local passes' CPU
        #: times
        self.speed = HostSpeed(time.perf_counter)
        self.cpu_speed = HostSpeed(time.process_time)
        setup_speed = HostSpeed(time.perf_counter)
        ready = []
        setup_speed.probe()
        for tag in range(SETUP_REPEATS - 1):
            daemon = Daemon(src_dir, workdir, "setup%d" % tag)
            daemon.stop()
            setup_speed.probe()
            ready.append(daemon.ready_s)
        self.daemon = Daemon(src_dir, workdir, "serve")
        setup_speed.probe()
        ready.append(self.daemon.ready_s)
        self.setup_s = setup_speed.reference(statistics.median(ready))
        #: (name, latency s, daemon elapsed s, result or error) per reply
        self.cold = []
        self.warm = []
        #: wall seconds of the timed rounds
        self.timed_s = 0.0

    def local_cold(self):
        """The local cold runs every reply must match.  They also seed
        the local profile DB the traced warm passes start from."""
        from repro import Jrpm
        for name, source in self.sources.items():
            cold = Jrpm(options=self.options, profdb=self.local_db).run(
                source, name=name)
            self.gate.expect(name, cold)

    def timed_rounds(self, deadline):
        """Whole rounds of requests, so every program is timed equally
        often: a round starts while it is expected to end by
        *deadline*, or while fewer than :data:`MIN_TIMED` requests have
        been sent."""
        start = time.perf_counter()
        for done, round_ in enumerate(self.rounds):
            now = time.perf_counter()
            if done * len(round_) >= MIN_TIMED \
                    and now + (now - start) / done > deadline:
                return
            yield round_

    def timed_loop(self, seconds):
        """The timed warm rounds, each between two host-speed probes."""
        for round_ in self.timed_rounds(time.perf_counter() + seconds):
            self.speed.probe()
            start = time.perf_counter()
            self.closed_loop(iter(round_), self.warm)
            self.timed_s += time.perf_counter() - start
        self.speed.probe()

    def closed_loop(self, names, samples):
        """Both connections take requests from *names* until it runs
        out, appending one sample per reply."""
        lock = threading.Lock()
        options = self.options.to_dict()

        def connection():
            with self.daemon.connect() as client:
                while True:
                    with lock:
                        name = next(names, None)
                    if name is None:
                        return
                    payload = {"source": self.sources[name], "name": name,
                               "options": options}
                    sent = time.perf_counter()
                    (result, _, elapsed), = client.request_many(
                        [("run", payload)])
                    latency = time.perf_counter() - sent
                    with lock:
                        samples.append((name, latency, elapsed, result))

        with concurrent.futures.ThreadPoolExecutor(CONNECTIONS) as pool:
            futures = [pool.submit(connection) for _ in range(CONNECTIONS)]
            for future in futures:
                future.result()

    def check_replies(self, samples):
        """Apply the gate to every reply; returns the checked reports."""
        from repro.core.pipeline import JrpmReport
        reports = []
        for name, _, _, result in samples:
            if isinstance(result, Exception):
                self.gate.reject(name, "request failed: %s" % result)
                continue
            report = JrpmReport.from_dict(result["report"])
            self.gate.check(name, report)
            reports.append(report)
        return reports

    def local_warm_pass(self, spans=None):
        """Warm-start every program in-process from the local profile DB
        (what a daemon worker does for a warm request); returns host CPU
        seconds and reports."""
        from repro import Jrpm
        reports = []
        total = 0.0
        for name in PROGRAMS:
            self.cpu_speed.probe()
            jrpm = Jrpm(options=self.options, profdb=self.local_db)
            start = time.process_time()
            if spans is None:
                report = jrpm.run(self.sources[name], name=name)
            else:
                with spans.patched(stage_targets(jrpm)), \
                        spans.span("core.run"):
                    report = jrpm.run(self.sources[name], name=name)
            total += time.process_time() - start
            if report.profile_provenance != "warm":
                self.gate.reject(name, "local run did not warm-start")
                continue
            self.gate.check(name, report)
            reports.append(report)
        return total, reports

    def run(self, seconds, trace):
        try:
            # untimed: the daemon's cold round overlaps the local cold runs
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                cold_round = pool.submit(self.closed_loop,
                                         iter(next(self.rounds)), self.cold)
                self.local_cold()
                cold_round.result()
            self.timed_loop(seconds)
            if trace:
                with self.daemon.connect() as client:
                    stats = client.stats()["scheduler"]
                    families = client.metrics()["metrics"]["families"]
        finally:
            self.daemon.stop()
        cold = self.check_replies(self.cold)
        warm = self.check_replies(self.warm)
        if trace:
            untraced_s, _ = self.local_warm_pass()
            spans = Spans(time.process_time)
            with spans.patched(layer_targets()):
                traced_s, local = self.local_warm_pass(spans)
            self.cpu_speed.probe()
            print(format_table(spans))
            metrics = layer_metrics(spans, local, self.cpu_speed.factor())
            metrics.update(self.daemon_metrics(stats, families, cold + warm))
            metrics["bench.trace_overhead_frac"] = traced_s / untraced_s - 1
            metrics["host.calib_s"] = self.speed.mean()
            return metrics
        return self.e2e_result(cold, warm)

    def e2e_result(self, cold, warm):
        live = sum(report.tls.instructions for report in warm
                   if report.tls is not report.sequential)
        latencies = [self.speed.reference(latency)
                     for _, latency, _, _ in self.warm]
        timed_s = self.speed.reference(self.timed_s)
        return {
            "setup_s": self.setup_s,
            "success_rate": self.gate.success_rate,
            "sim_insn_per_s": live / timed_s,
            "tls_speedup_geomean": geomean(r.tls_speedup for r in cold),
            "total_speedup_geomean": geomean(r.total_speedup for r in cold),
            "peak_rss_mb": children_peak_rss_mb(),
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "latency_p90_ms": 1000 * percentile(latencies, 90),
            "req_per_s": len(self.warm) / timed_s,
        }

    def daemon_metrics(self, stats, families, reports):
        """The service, runner and profdb layers, read from the replies
        and from the daemon's ``stats`` and ``metrics`` verbs."""
        def value(family, key="", field="value"):
            series = families.get(family, {}).get("series", {})
            return series.get(key, {}).get(field, 0)

        answered = [(self.speed.reference(latency),
                     self.speed.reference(elapsed))
                    for _, latency, elapsed, result in self.warm
                    if not isinstance(result, Exception)]
        records = families.get("jrpm_profdb_records", {}).get("series", {})
        warm = sum(report.profile_provenance == "warm" for report in reports)
        return {
            "service.daemon_elapsed_ms_p50": 1000 * statistics.median(
                elapsed for _, elapsed in answered),
            "service.overhead_ms_p50": 1000 * statistics.median(
                latency - elapsed for latency, elapsed in answered),
            "service.batches": stats["batches"],
            "service.coalesced": stats["coalesced"],
            "service.rejected": stats["rejected"],
            "runner.task_s_p50": value("jrpm_pool_task_seconds", "ok",
                                       "p50"),
            "runner.retries": value("jrpm_pool_retries"),
            "runner.workers_spawned": value("jrpm_pool_workers_spawned"),
            "profdb.warm_runs": value("jrpm_profdb_warm_runs"),
            "profdb.records": sum(entry["value"]
                                  for entry in records.values()),
            "profdb.warm_frac": ratio(warm, len(reports)),
        }


def run(args, src_dir, workdir):
    load = ServiceLoad(args.seed, src_dir, workdir)
    metrics = load.run(args.seconds, args.trace)
    return load.gate, metrics, LAYER_UNITS if args.trace else E2E_UNITS
