"""The three workloads: set-up, timed phase, checks and metrics.

A workload run is ``setup -> timed phase -> checks``.  The timed phase runs
whole rounds of the workload's stream (:mod:`streams`) until ``seconds``
have passed.  With ``trace`` set, the run instead measures the same rounds
twice from the same starting state -- once plain, once with the layer
boundaries wrapped by :mod:`layertrace` -- and reports per-layer figures per
round plus the difference as the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
import layertrace
import speed
import streams

#: Client poll interval of service-mixed while a job is in flight.
POLL_S = 0.01
#: In-process timing segments end after the first operation past this long.
SEGMENT_S = 1.0
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = {"cold-library": 5, "warm-sweep": 5, "service-mixed": 3}


@dataclass
class Context:
    root: Path
    workdir: Path
    workload: str
    seed: int
    seconds: float
    tiny: bool = False

    def fsms(self, library, tiny_count: int):
        """The workload's FSMs: all of them, or the last few at tiny size."""
        return library[-tiny_count:] if self.tiny else library

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclass
class Tally:
    """What one pass over the stream measured.

    Timing is split into segments between calibrations of :mod:`speed`;
    latency samples are ``(segment, ms)`` pairs, so each is scaled by the
    speed factor of the segment it ended in.
    """

    attempted: int = 0
    failed: int = 0
    spec_ms: List[Tuple[int, float]] = field(default_factory=list)
    hit_ms: List[Tuple[int, float]] = field(default_factory=list)
    injections: int = 0
    documents: int = 0
    wall_s: float = 0.0
    rounds: int = 0
    round_s: List[float] = field(default_factory=list)
    #: Timed segments: (seconds, reference-speed factor from the
    #: calibrations just before and just after the segment).
    segments: List[Tuple[float, float]] = field(default_factory=list)
    _calibration: float = 0.0
    _segment_started: float = 0.0
    errors: List[str] = field(default_factory=list)
    #: spec hash -> (spec, document) of every computed answer.
    computed: Dict[str, Tuple[Dict, Dict]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def start_timing(self) -> None:
        self._calibration = speed.calibrate()
        self._segment_started = time.perf_counter()

    def close_segment(self, after_s: float = 0.0) -> None:
        """End the running segment if it is at least ``after_s`` long (the
        program must be idle) and start the next."""
        seconds = time.perf_counter() - self._segment_started
        if seconds < after_s:
            return
        after = speed.calibrate()
        self.segments.append((seconds, speed.factor((self._calibration, after))))
        self._calibration = after
        self._segment_started = time.perf_counter()

    def timed_s(self, adjusted: bool = True) -> float:
        """The segments' wall time, at reference speed unless ``adjusted`` is off."""
        return sum(t * (f if adjusted else 1.0) for t, f in self.segments)

    def mean_factor(self) -> float:
        return self.timed_s() / self.timed_s(adjusted=False)

    def samples(self, which: str, adjusted: bool = True) -> List[float]:
        pairs = getattr(self, which)
        if not adjusted:
            return [ms for _, ms in pairs]
        return [ms * self.segments[segment][1] for segment, ms in pairs]

    def record(self, kind: str, spec: Dict, doc: Dict, seconds: float) -> None:
        with self.lock:
            self.documents += 1
            sample = (len(self.segments), seconds * 1e3)
            if kind == "hit":
                self.hit_ms.append(sample)
                return
            self.spec_ms.append(sample)
            if kind == "computed":
                self.injections += sum(
                    c["total_injections"] for c in (doc.get("campaigns") or {}).values()
                )
                self.computed.setdefault(doc["spec_hash"], (spec, doc))


def tail_quantile(samples: int) -> Optional[float]:
    """p90, or the highest quantile with ten samples beyond it when fewer
    than 100 samples exist; none below 40 samples."""
    if samples < 40:
        return None
    return min(0.9, 1 - 10 / samples)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of this process or of ``pid``."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in {path}")


def end_to_end(tally: Tally, setup: Tuple[float, float], rss_mb: float,
               adjusted: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; ``setup`` is (adjusted, raw) ``setup_s``."""
    timed = tally.timed_s(adjusted)
    spec_ms = tally.samples("spec_ms", adjusted)
    metrics = {
        "injections_per_s": tally.injections / timed,
        "specs_per_s": tally.documents / timed,
        "spec_ms_p50": statistics.median(spec_ms),
        "hit_ms_p50": statistics.median(tally.samples("hit_ms", adjusted)),
        "setup_s": setup[0] if adjusted else setup[1],
        "peak_rss_mb": rss_mb,
    }
    quantile = tail_quantile(len(spec_ms))
    if quantile is not None:
        metrics["spec_ms_tail"] = float(np.percentile(spec_ms, 100 * quantile))
    if adjusted:
        raw = end_to_end(tally, setup, rss_mb, adjusted=False)
        _log("raw (unadjusted) metrics: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
        _log(f"mean speed factor {tally.mean_factor():.3f}")
    return metrics


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Set-up timing
# ----------------------------------------------------------------------


def probe_setup(workload: str, workdir: Path) -> None:
    """The set-up of one in-process workload, in a fresh interpreter (run by
    ``run.py --probe-setup``); prints ``ready`` when the timed phase could
    begin."""
    if workload == "cold-library":
        cold_setup()
    else:
        warm_setup(workdir / "store", streams.WARM_FSMS)
    print("ready", flush=True)


def timed_setups(ctx: Context) -> Tuple[float, float]:
    """Median wall time of several fresh set-ups, interpreter start included:
    (at reference speed, raw)."""
    times, adjusted = [], []
    before = speed.calibrate()
    for attempt in range(1 if ctx.tiny else SETUP_REPEATS[ctx.workload]):
        workdir = ctx.workdir / f"setup-{attempt}"
        workdir.mkdir()
        if ctx.workload == "service-mixed":
            started = time.perf_counter()
            server = Server(ctx, workdir / "cache", traced=None)
            times.append(time.perf_counter() - started)
            server.stop()
        else:
            command = [sys.executable, str(Path(__file__).with_name("run.py")), "--probe-setup",
                       "--workload", ctx.workload, "--workdir", str(workdir)]
            started = time.perf_counter()
            out = subprocess.run(command, cwd=ctx.root, env=ctx.env, capture_output=True,
                                 text=True, timeout=120)
            elapsed = time.perf_counter() - started
            if out.returncode != 0 or "ready" not in out.stdout:
                raise RuntimeError(f"set-up probe failed: {out.stderr[-2000:]}")
            times.append(elapsed)
        shutil.rmtree(workdir)
        after = speed.calibrate()
        adjusted.append(times[-1] * speed.factor((before, after)))
        before = after
    _log(f"set-up times {[round(t, 3) for t in times]}")
    return statistics.median(adjusted), statistics.median(times)


# ----------------------------------------------------------------------
# cold-library
# ----------------------------------------------------------------------


def cold_setup():
    from repro.api import Session
    import repro.fi.executor  # noqa: F401 - the campaign layers a cold run loads
    import repro.netlist.parallel_np  # noqa: F401

    return Session()


def _run_rounds(ctx: Context, make_round: Callable[[int], list], run_op, tally: Tally,
                rounds: Optional[int]) -> None:
    """Whole rounds until ``ctx.seconds`` passed (or exactly ``rounds``)."""
    started = time.perf_counter()
    tally.start_timing()
    while True:
        round_started = time.perf_counter()
        for op in make_round(tally.rounds):
            run_op(op)
            tally.close_segment(after_s=SEGMENT_S)
        tally.close_segment()
        tally.rounds += 1
        tally.round_s.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        if (rounds is None and elapsed >= ctx.seconds) or tally.rounds == rounds:
            break
    tally.wall_s = time.perf_counter() - started


def cold_pass(ctx: Context, rounds: Optional[int] = None) -> Tally:
    from repro.api import ExperimentSpec

    session = cold_setup()
    fsms = ctx.fsms(streams.LIBRARY, 3)
    tally = Tally()

    def run_op(spec):
        tally.attempted += 1
        started = time.perf_counter()
        doc = session.run(ExperimentSpec.from_dict(spec)).to_dict()
        elapsed = time.perf_counter() - started
        # Without a store every spec is computed; one the stream already
        # answered is also the cold path's repeat answer.
        first = tally.computed.get(doc["spec_hash"])
        if first is not None:
            tally.hit_ms.append((len(tally.segments), elapsed * 1e3))
            tally.errors += checks.same_answer(f"repeat {checks.label(spec)}", doc, first[1])
        tally.record("computed", spec, doc, elapsed)

    _run_rounds(ctx, lambda r: streams.cold_round(ctx.seed, r, fsms), run_op, tally, rounds)
    return tally


def check_computed(ctx: Context, tally: Tally, expect: checks.Expectations, oracle: bool = True) -> None:
    """Conservation and (where it applies) the SCFI guarantee on every
    computed document, plus the scalar-oracle replay of a seeded subset."""
    docs = {h: doc for h, (_, doc) in tally.computed.items()}
    for spec, doc in tally.computed.values():
        tally.errors += checks.conservation(spec, doc, expect)
        if checks.is_guarantee_spec(spec):
            tally.errors += checks.scfi_guarantee(spec, doc)
    if oracle:
        specs = [spec for spec, _ in tally.computed.values()]
        chosen = checks.oracle_subset(ctx.seed, specs, docs, expect, 1 if ctx.tiny else checks.ORACLE_SPECS)
        if not chosen:
            tally.errors.append("no computed spec is small enough for the scalar oracle")
        tally.errors += checks.oracle_replay(chosen, docs)


def cold_library(ctx: Context, traced: bool) -> Tuple[Tally, Dict[str, float]]:
    expect = checks.Expectations()
    if not traced:
        setup = timed_setups(ctx)
        tally = cold_pass(ctx)
        rss = peak_rss_mb()
        started = time.perf_counter()
        check_computed(ctx, tally, expect)
        _log(f"checks took {time.perf_counter() - started:.1f} s")
        guaranteed = {spec["fsm"]["name"] for spec, _ in tally.computed.values()
                      if checks.is_guarantee_spec(spec)}
        fsms = ctx.fsms(streams.LIBRARY, 3)
        if guaranteed != set(fsms):
            tally.errors.append(f"SCFI guarantee checked on {sorted(guaranteed)} only")
        return tally, end_to_end(tally, setup, rss)
    half = Context(**{**ctx.__dict__, "seconds": ctx.seconds / 2})
    plain = cold_pass(half)
    tracer = layertrace.install(layertrace.Tracer())
    try:
        tally = cold_pass(half, rounds=plain.rounds)
    finally:
        tracer.uninstall()
    check_computed(ctx, tally, expect, oracle=False)
    return tally, traced_metrics(ctx, tracer, plain, tally)


# ----------------------------------------------------------------------
# warm-sweep
# ----------------------------------------------------------------------


def warm_setup(store_dir: Path, fsms):
    """Open a fresh store and harden ``fsms`` into it."""
    from repro.api import ExperimentSpec, Session
    from repro.store import FileStore
    import repro.fi.executor  # noqa: F401
    import repro.netlist.parallel_np  # noqa: F401

    session = Session(store=FileStore(store_dir))
    for spec in streams.warm_harden_specs(fsms):
        session.run(ExperimentSpec.from_dict(spec))
    return session


def warm_pass(ctx: Context, store_dir: Path, rounds: Optional[int] = None) -> Tally:
    from repro.api import ExperimentSpec, Session
    from repro.store import FileStore

    fsms = ctx.fsms(streams.WARM_FSMS, 1)
    session = Session(store=FileStore(store_dir))
    tally = Tally()
    cold_docs: Dict[str, Dict] = {}

    def run_op(op):
        kind, spec = op
        tally.attempted += 1
        started = time.perf_counter()
        result = session.run(ExperimentSpec.from_dict(spec))
        doc = result.to_dict()
        elapsed = time.perf_counter() - started
        status = {stage: record["status"] for stage, record in result.cache.items()}
        what = f"{kind} {checks.label(spec)}"
        if kind == "cold":
            if status["harden"] != "hit" or status["campaign"] != "miss":
                tally.errors.append(f"{what}: expected a harden hit and a campaign miss, got {status}")
            cold_docs[doc["spec_hash"]] = doc
            tally.record("computed", spec, doc, elapsed)
        else:
            if any(status[stage] != "hit" for stage in ("harden", "campaign", "report")):
                tally.errors.append(f"{what}: expected every stage from the store, got {status}")
            tally.errors += checks.same_answer(what, doc, cold_docs[doc["spec_hash"]])
            tally.record("hit", spec, doc, elapsed)

    _run_rounds(ctx, lambda r: streams.warm_round(ctx.seed, r, fsms), run_op, tally, rounds)
    return tally


def check_warm(ctx: Context, tally: Tally, expect: checks.Expectations) -> None:
    """Besides the computed-document checks: a seeded subset of cold runs
    must equal a store-less in-process cold run of the same spec."""
    from repro.api import ExperimentSpec, Session

    check_computed(ctx, tally, expect)
    items = sorted(tally.computed.items())
    random.Random(f"storeless/{ctx.seed}").shuffle(items)
    for spec_hash, (spec, doc) in items[:2]:
        reference = Session().run(ExperimentSpec.from_dict(spec)).to_dict()
        tally.errors += checks.same_answer(f"store-less {checks.label(spec)}", doc, reference)


def warm_sweep(ctx: Context, traced: bool) -> Tuple[Tally, Dict[str, float]]:
    expect = checks.Expectations()
    fsms = ctx.fsms(streams.WARM_FSMS, 1)
    seeded = ctx.workdir / "seeded"
    warm_setup(seeded, fsms)
    if not traced:
        setup = timed_setups(ctx)
        tally = warm_pass(ctx, seeded)
        rss = peak_rss_mb()
        started = time.perf_counter()
        check_warm(ctx, tally, expect)
        _log(f"checks took {time.perf_counter() - started:.1f} s")
        return tally, end_to_end(tally, setup, rss)
    half = Context(**{**ctx.__dict__, "seconds": ctx.seconds / 2})
    copies = []
    for name in ("plain", "traced"):
        copies.append(ctx.workdir / name)
        shutil.copytree(seeded, copies[-1])
    plain = warm_pass(half, copies[0])
    tracer = layertrace.install(layertrace.Tracer())
    try:
        tally = warm_pass(half, copies[1], rounds=plain.rounds)
    finally:
        tracer.uninstall()
    check_computed(ctx, tally, expect, oracle=False)
    return tally, traced_metrics(ctx, tracer, plain, tally)


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------


def fleet_size() -> int:
    """Fleet workers: two, or fewer on a machine with fewer CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


class Server:
    """A real ``scfi serve --port 0`` subprocess over ``cache_dir``.

    ``traced`` is the trace output path: the same command line then runs
    through ``serve_traced.py``, which wraps the layer boundaries first.
    """

    def __init__(self, ctx: Context, cache_dir: Path, traced: Optional[Path]) -> None:
        serve = ["serve", "--port", "0", "--fleet", str(fleet_size()),
                 "--cache-dir", str(cache_dir), "--quiet"]
        if traced is None:
            command = [sys.executable, "-m", "repro.cli.main", *serve]
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                       "--trace-out", str(traced), *serve]
        self._stderr = open(cache_dir.parent / f"server-{cache_dir.name}.log", "w")
        self.process = subprocess.Popen(command, cwd=ctx.root, env=ctx.env, text=True,
                                        stdout=subprocess.PIPE, stderr=self._stderr)
        try:
            line = self.process.stdout.readline()
            if not line.startswith("listening http://"):
                raise RuntimeError(f"server did not start: {line!r}")
            host_port = line.split("http://", 1)[1].strip()
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
            status, health = Connection(self.host, self.port).request("GET", "/healthz")
            if status != 200 or health.get("status") != "ok":
                raise RuntimeError(f"server unhealthy: {status} {health}")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class Connection:
    """One closed-loop client stream, timing every request.

    Like the project's own ``ServiceClient``, every request opens a fresh
    TCP connection: on a kept-alive connection the server's two-write
    responses stall each request on delayed ACKs (see ``README.md``).
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.requests = 0
        self.request_s = 0.0

    def request(self, method: str, path: str, body: Optional[Dict] = None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            document = json.loads(response.read().decode())
        finally:
            conn.close()
        self.request_s += time.perf_counter() - started
        self.requests += 1
        return response.status, document


@dataclass
class ServiceTally(Tally):
    polls: int = 0
    polled_jobs: int = 0
    http_requests: int = 0
    http_s: float = 0.0
    coalesced: int = 0
    computed_jobs: List[str] = field(default_factory=list)
    served: List[Tuple[str, Dict, Dict]] = field(default_factory=list)


def _service_op(conn: Connection, kind: str, spec: Dict, tally: ServiceTally) -> None:
    """Submit one spec and poll until its document (or failure) arrives."""
    what = f"{kind} {checks.label(spec)}"
    started = time.perf_counter()
    status, reply = conn.request("POST", "/jobs", spec)
    if kind == "inadmissible":
        if 400 <= status < 500:
            return  # refused at admission, as it should be
        # Known fault: admission accepts a fractional trial count and the job
        # fails later inside the campaign.  Counted as failed, not an error.
        with tally.lock:
            tally.failed += 1
    elif status not in (200, 201):
        with tally.lock:
            tally.failed += 1
            tally.errors.append(f"{what}: submit answered {status} {reply}")
        return
    job_id, polls = reply["job_id"], 0
    while True:
        result_status, doc = conn.request("GET", f"/jobs/{job_id}/result")
        if result_status != 409:
            break
        polls += 1
        time.sleep(POLL_S)
    elapsed = time.perf_counter() - started
    with tally.lock:
        tally.polls += polls
        tally.polled_jobs += 1
        if reply["status"] == "coalesced":
            tally.coalesced += 1
    if kind == "inadmissible":
        if result_status == 200:
            with tally.lock:
                tally.errors.append(f"{what}: a fractional trial count produced a result")
        return
    if result_status != 200:
        with tally.lock:
            tally.failed += 1
            tally.errors.append(f"{what}: result answered {result_status} {doc}")
        return
    tier = doc["service"]["result_tier"]
    if kind == "resubmit" and tier != "hit":
        with tally.lock:
            tally.errors.append(f"{what}: a re-submission was not a result-tier hit")
    with tally.lock:
        tally.served.append((kind, spec, doc))
        if reply["status"] == "queued":
            tally.computed_jobs.append(job_id)
    if tier == "hit":
        sample = "hit"
    elif reply["status"] == "queued":
        sample = "computed"
    else:
        sample = "coalesced"  # waited on another submission's computation
    tally.record(sample, spec, doc, elapsed)


def service_pass(ctx: Context, cache_dir: Path, traced: Optional[Path] = None,
                 rounds: Optional[int] = None) -> Tuple[ServiceTally, Dict, Server]:
    """One pass against a fresh server; returns the tally, the final
    ``/healthz`` document and the (still running) server."""
    fsms = ctx.fsms(streams.LIBRARY, 4)
    example_specs = [spec for _, spec, _ in streams.examples(ctx.root)]
    server = Server(ctx, cache_dir, traced)
    connections = [Connection(server.host, server.port) for _ in range(2)]
    tally = ServiceTally()
    started = time.perf_counter()
    try:
        tally.start_timing()  # segments end between rounds, when the server is idle
        while True:
            round_started = time.perf_counter()
            lists = streams.service_round(ctx.seed, tally.rounds, example_specs, 2, fsms)
            meet = threading.Barrier(2)
            threads = [
                threading.Thread(target=_connection_round, args=(conn, ops, meet, tally))
                for conn, ops in zip(connections, lists)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            tally.attempted += sum(len(ops) for ops in lists)
            tally.close_segment()
            tally.rounds += 1
            tally.round_s.append(time.perf_counter() - round_started)
            elapsed = time.perf_counter() - started
            if (rounds is None and elapsed >= ctx.seconds) or tally.rounds == rounds:
                break
        tally.wall_s = time.perf_counter() - started
        status, health = connections[0].request("GET", "/healthz")
    except BaseException:
        server.stop()
        raise
    tally.http_requests = sum(c.requests for c in connections)
    tally.http_s = sum(c.request_s for c in connections)
    return tally, health, server


def _connection_round(conn: Connection, ops, meet: threading.Barrier, tally: ServiceTally) -> None:
    for kind, spec in ops:
        if kind == "coalesce":
            meet.wait(timeout=120)
        try:
            _service_op(conn, kind, spec, tally)
        except Exception as error:  # noqa: BLE001 - recorded, fails the run
            with tally.lock:
                tally.failed += 1
                tally.errors.append(f"{kind} {checks.label(spec)}: {type(error).__name__}: {error}")


#: Distinct served specs (besides the examples) re-run in process per run.
SERVICE_REFERENCES = 30


def check_service(ctx: Context, tally: ServiceTally, expect: checks.Expectations,
                  oracle: bool = True) -> None:
    """Served documents of one spec agree with each other; the examples and a
    seeded subset of the other specs equal an in-process cold run; examples
    match their goldens; computed documents pass the property checks."""
    from repro.api import ExperimentSpec, Session

    goldens = {json.dumps(spec, sort_keys=True): (name, gold)
               for name, spec, gold in streams.examples(ctx.root)}
    first: Dict[str, Tuple[Dict, Dict]] = {}
    for kind, spec, doc in tally.served:
        earlier = first.setdefault(doc["spec_hash"], (spec, doc))[1]
        tally.errors += checks.same_answer(f"served {kind} {checks.label(spec)}", doc, earlier)
    served = sorted(first.items())
    random.Random(f"references/{ctx.seed}").shuffle(served)
    examples = [item for item in served if json.dumps(item[1][0], sort_keys=True) in goldens]
    others = [item for item in served if item not in examples]
    for spec_hash, (spec, doc) in examples + others[: 3 if ctx.tiny else SERVICE_REFERENCES]:
        # Counters are engine-independent; the fast engine keeps this short.
        reference = Session().run(ExperimentSpec.from_dict(spec), engine="parallel-numpy")
        tally.errors += checks.same_answer(f"in-process {checks.label(spec)}", doc,
                                           reference.to_dict())
    for spec_hash, (spec, doc) in examples:
        name, gold = goldens[json.dumps(spec, sort_keys=True)]
        tally.errors += checks.golden(f"example {name}", doc, gold)
    if not ctx.tiny and len(examples) != len(goldens):
        tally.errors.append(f"{len(examples)} of {len(goldens)} examples were served")
    check_computed(ctx, tally, expect, oracle=oracle)


def service_mixed(ctx: Context, traced: bool) -> Tuple[Tally, Dict[str, float]]:
    expect = checks.Expectations()
    if not traced:
        setup = timed_setups(ctx)
        (ctx.workdir / "run").mkdir()
        tally, health, server = service_pass(ctx, ctx.workdir / "run" / "cache")
        rss = peak_rss_mb(server.process.pid)
        server.stop()
        started = time.perf_counter()
        check_service(ctx, tally, expect)
        _log(f"checks took {time.perf_counter() - started:.1f} s")
        return tally, end_to_end(tally, setup, rss)
    half = Context(**{**ctx.__dict__, "seconds": ctx.seconds / 2})
    for name in ("plain", "traced"):
        (ctx.workdir / name).mkdir()
    plain, _, server = service_pass(half, ctx.workdir / "plain" / "cache")
    server.stop()
    trace_out = ctx.root / ".perfbench" / f"trace-{ctx.workload}-{ctx.seed}.json"
    trace_out.parent.mkdir(exist_ok=True)
    tally, health, server = service_pass(half, ctx.workdir / "traced" / "cache",
                                         traced=trace_out, rounds=plain.rounds)
    # Job records of computed jobs, read after the timed pass.
    conn = Connection(server.host, server.port)
    server_ms = []
    for job_id in tally.computed_jobs:
        status, record = conn.request("GET", f"/jobs/{job_id}")
        server_ms.append((record["updated"] - record["submitted"]) * 1e3)
    server.stop()
    check_service(ctx, tally, expect, oracle=False)
    with open(trace_out) as handle:
        server_trace = json.load(handle)
    metrics = {name: value / tally.rounds for name, value in server_trace["layers"].items()}
    metrics["plan.store_hit_ratio"] = server_trace["layers"]["plan.store_hit_ratio"]
    fleet = health["fleet"]
    metrics.update({
        "http.requests": tally.http_requests / tally.rounds,
        "http.ms": tally.http_s * 1e3 / tally.rounds,
        "service.polls_per_job": tally.polls / max(1, tally.polled_jobs),
        "service.server_ms": statistics.median(server_ms) if server_ms else 0.0,
        "service.client_ms": statistics.median(tally.samples("spec_ms", adjusted=False)),
        "fleet.tasks": fleet["tasks_dispatched"] / tally.rounds,
        "fleet.configs_shipped": fleet["configs_shipped"] / tally.rounds,
        "result_tier.hits": health["result_tier"]["hits"] / tally.rounds,
        "result_tier.misses": health["result_tier"]["misses"] / tally.rounds,
        "service.coalesced": tally.coalesced / tally.rounds,
        "trace.overhead_pct": 100 * (tally.timed_s() - plain.timed_s()) / plain.timed_s(),
        "trace.rounds": tally.rounds,
    })
    return tally, at_reference_speed(metrics, tally)


def traced_metrics(ctx: Context, tracer: layertrace.Tracer, plain: Tally, tally: Tally) -> Dict[str, float]:
    """Per-layer figures of an in-process traced pass (no service layers)."""
    trace_path = ctx.root / ".perfbench" / f"trace-{ctx.workload}-{ctx.seed}.json"
    trace_path.parent.mkdir(exist_ok=True)
    tracer.dump(trace_path)
    _log(f"spans written to {trace_path.relative_to(ctx.root)}")
    metrics = layertrace.layer_metrics(tracer, tally.rounds)
    metrics.update({
        "http.requests": 0.0, "http.ms": 0.0, "service.polls_per_job": 0.0,
        "service.server_ms": 0.0, "service.client_ms": 0.0, "fleet.tasks": 0.0,
        "fleet.configs_shipped": 0.0, "result_tier.hits": 0.0, "result_tier.misses": 0.0,
        "service.coalesced": 0.0,
        "trace.overhead_pct": 100 * (tally.timed_s() - plain.timed_s()) / plain.timed_s(),
        "trace.rounds": tally.rounds,
    })
    return at_reference_speed(metrics, tally)


def at_reference_speed(metrics: Dict[str, float], tally: Tally) -> Dict[str, float]:
    """Per-layer times scaled to reference speed by the traced pass's mean
    speed factor; counts and ratios unchanged."""
    factor = tally.mean_factor()
    return {name: value * factor if name.endswith(("_ms", ".ms")) else value
            for name, value in metrics.items()}


WORKLOADS = {
    "cold-library": cold_library,
    "warm-sweep": warm_sweep,
    "service-mixed": service_mixed,
}
