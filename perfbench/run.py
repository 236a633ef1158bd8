#!/usr/bin/env python3
"""Benchmark of the two user-facing commands, macs_cli and macs_serve.

    python3 perfbench/run.py --workload sweep|serve-cold|serve-replay \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: it builds the binaries with dune, makes
its inputs from the seed (perfbench/workload.py), measures for S seconds,
checks every output, and prints one JSON object as the last line of
stdout.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it repeats the workload with client-side spans, times each layer's public
calls in process (perfbench/probe), reports the per-layer metrics and
writes every span to .perfbench_out/trace-<workload>-s<seed>.json in
Chrome trace-event format.  Exits 1 if any output check fails and 2 if
the program cannot be built.  See perfbench/README.md for what each
workload loads and what each metric means.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workload  # noqa: E402

CLI = os.path.join("_build", "default", "bin", "macs_cli.exe")
# macs_cli runs with its defaults, so no result cache from the environment
CLI_ENV = {k: v for k, v in os.environ.items() if k != "MACS_CACHE"}
SERVE = os.path.join("_build", "default", "bin", "macs_serve.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "probe.exe")
OUT = ".perfbench_out"

REPLAY_POOL = 400  # distinct frames cached in serve-replay's set-up
MIN_FRAMES = 1000  # so at least 10 latency samples lie beyond p99
CONNECTIONS = 2
LAYER_SPECS = 4  # specs whose cells the traced run rebuilds in process
LAYER_FRAMES = 120  # frames the traced run times layer by layer
WARMUP_OPS = {"sweep": 4, "serve-cold": 100, "serve-replay": 100}
SETUP_LAUNCHES = {"sweep": 15, "serve-cold": 15, "serve-replay": 15}

# Gated metrics are host CPU time of the processes under test, which
# excludes the time the hypervisor steals: on a shared host the wall-clock
# metrics (per-layer below) moved by up to 2x between runs of one seed.
END_TO_END = {
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "fcc.compile_us": "us",
    "fcc.compile_kwords": "kwords",
    "core.bound_us": "us",
    "core.advise_ms": "ms",
    "core.validate_ms": "ms",
    "vpsim.tiered_ms": "ms",
    "vpsim.cycle_ms": "ms",
    "vpsim.tiered_ns_per_elem": "ns",
    "vpsim.cycle_ns_per_elem": "ns",
    "vpsim.tiered_kwords": "kwords",
    "vpsim.cycle_kwords": "kwords",
    "vpsim.major_gcs": "count",
    "vpsim.tiered_speedup_geomean": "ratio",
    "vpsim.tiered_speedup_min": "ratio",
    "vpsim.bound_ratio": "ratio",
    "vpsim.sim_elements": "count",
    "vpsim.sim_cycles": "count",
    "vpsim.stall_cycles": "count",
    "report.dataset_ms": "ms",
    "report.render_ms": "ms",
    "model.cpf_err_pct": "%",
    "harness.suite_ms": "ms",
    "harness.suite_jobs1_ms": "ms",
    "exec.scaling": "ratio",
    "exec.spawn_us": "us",
    "cache.find_us": "us",
    "cache.store_us": "us",
    "cache.entry_bytes": "bytes",
    "cache.hit_ratio": "ratio",
    "journal.append_us": "us",
    "journal.bytes_per_frame": "bytes",
    "serve.decode_us": "us",
    "serve.eval_simulate_ms": "ms",
    "serve.eval_hierarchy_ms": "ms",
    "serve.handle_line_us": "us",
    "serve.handle_line_hit_us": "us",
    "serve.transport_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.bound_ratio": "ratio",
    "serve.replayed_frames": "count",
    "serve.degraded_items": "count",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.shed": "count",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "latency_ms_p99": "ms",
    "setup_wall_s": "s",
    "fail_ratio": "ratio",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pct(values, q):
    s = sorted(values)
    if not s:
        return float("nan")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Spans recorded by the benchmark's own code, kept in memory.


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.events = []
        self.epoch = time.perf_counter()
        self.lock = threading.Lock()
        self.next_id = 0

    def span(self, name, start, end, tid=1, parent=None, **args):
        """Record [start, end] (perf_counter seconds); returns the span id."""
        if not self.enabled:
            return None
        with self.lock:
            self.next_id += 1
            sid = self.next_id
            args = dict(args, span=sid)
            if parent is not None:
                args["parent"] = parent
            self.events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - self.epoch) * 1e6,
                "dur": max(0.001, (end - start) * 1e6), "args": args})
            return sid

    def write(self, path, extra_events):
        meta = {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                "args": {"name": "benchmark client"}}
        with open(path, "w") as f:
            json.dump({"traceEvents": [meta] + self.events + extra_events,
                       "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------------------
# Processes under test.


def build():
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    targets = ["./bin/macs_cli.exe", "./bin/macs_serve.exe",
               "./perfbench/probe/probe.exe"]
    # no shared dune cache: the build reads and writes only the checkout
    r = subprocess.run(["dune", "build", "--root", "."] + targets,
                       stdin=subprocess.DEVNULL, stdout=sys.stderr,
                       stderr=sys.stderr,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0 or not all(os.path.exists(p)
                                    for p in (CLI, SERVE, PROBE)):
        raise BenchError("build failed")


def run_cli(args):
    """Run macs_cli; returns (wall seconds, stdout bytes, exit code, peak RSS
    KiB, CPU seconds)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([CLI] + args, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         env=CLI_ENV)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return (time.perf_counter() - t0, out, p.returncode, usage.ru_maxrss,
            usage.ru_utime + usage.ru_stime)


class Conn:
    """One lock-step client connection: a frame out, its reply back."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = self.rfile.readline()
        if not reply.endswith(b"\n"):
            return None
        return reply[:-1].decode()

    def close(self):
        self.rfile.close()
        self.sock.close()


class Server:
    """A `macs_serve serve --port 0` child, ready once it answers a ping."""

    live = []

    def __init__(self, workdir, tag, args):
        self.portfile = os.path.join(workdir, tag + ".port")
        self.log = open(os.path.join(workdir, tag + ".log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [SERVE, "serve", "--port", "0", "--port-file", self.portfile]
            + args, stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=self.log)
        Server.live.append(self)
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"macs_serve {tag} exited at start")
            try:
                with open(self.portfile) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    break
            except FileNotFoundError:
                pass
            if time.perf_counter() - t0 > 60:
                raise BenchError(f"macs_serve {tag} never listened")
            time.sleep(0.0005)
        if '"pong":true' not in (self.control('{"op":"ping"}') or ""):
            raise BenchError(f"macs_serve {tag} did not answer a ping")
        self.setup_wall_s = time.perf_counter() - t0
        self.setup_cpu_s = self.thread_cpu_s()

    def control(self, line):
        c = Conn(self.port)
        try:
            return c.call(line)
        finally:
            c.close()

    def stats(self):
        reply = self.control('{"op":"stats"}')
        return json.loads(reply)["stats"]

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for macs_serve")

    def thread_cpu_s(self):
        """CPU time of the server's live threads, to the nanosecond."""
        total = 0
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):  # thread exited
                pass
        return total / 1e9

    def cpu_s(self):
        """CPU time (user + system, all threads) the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM (graceful drain) and reap."""
        Server.live.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def launch(workdir, tag, args_of, launches):
    """Start the server `launches` times and keep the last.  Returns it and
    the medians of the launches' CPU and wall time from spawn to the first
    ping reply."""
    cpu, wall = [], []
    for i in range(launches):
        server = Server(workdir, f"{tag}{i}", args_of(i))
        cpu.append(server.setup_cpu_s)
        wall.append(server.setup_wall_s)
        if i < launches - 1:
            server.stop()
    return server, statistics.median(cpu), statistics.median(wall)


# ---------------------------------------------------------------------------
# Closed-loop clients.


def closed_loop(port, frame_at, seconds, min_frames, tracer, first=0,
                tag="serve.frame", on_min_frames=None):
    """CONNECTIONS lock-step clients take frames first, first+1, ... until
    `seconds` have passed and `min_frames` were sent; `on_min_frames` runs
    once, when the `min_frames`-th reply is back.  Returns the sent frames
    as (index, frame, reply, seconds, connection) and the wall time."""
    lock = threading.Lock()
    state = {"next": first, "done": 0}
    results = []
    t_start = time.perf_counter()
    soft = t_start + seconds
    hard = t_start + 2 * seconds + 20
    errors = []

    def client(cid):
        local = []
        try:
            conn = Conn(port)
        except OSError as e:
            errors.append(str(e))
            return
        try:
            while True:
                with lock:
                    k = state["next"]
                    now = time.perf_counter()
                    if (now >= soft and k - first >= min_frames) or now >= hard:
                        break
                    state["next"] += 1
                fr = frame_at(k)
                t0 = time.perf_counter()
                try:
                    reply = conn.call(fr[1])
                except OSError:
                    reply = None
                t1 = time.perf_counter()
                tracer.span(tag, t0, t1, tid=cid + 1, frame=fr[0])
                local.append((k, fr, reply, t1 - t0, cid))
                with lock:
                    state["done"] += 1
                    if state["done"] == min_frames and on_min_frames:
                        on_min_frames()
                if reply is None:
                    break
        finally:
            conn.close()
            with lock:
                results.extend(local)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError("client could not connect: " + errors[0])
    results.sort(key=lambda r: r[0])
    return results, time.perf_counter() - t_start


def check_reply(fr, reply):
    """Failure of one frame's reply, or None.  `fr` is (id, line, degraded)."""
    fid, line, degraded = fr
    if reply is None:
        return "missing reply"
    try:
        j = json.loads(reply)
    except ValueError:
        return "unparseable reply"
    if j.get("id") != fid:
        return f"reply carries id {j.get('id')!r}"
    if j.get("ok") is not True:
        return "typed error " + str(j.get("error", {}).get("kind"))
    req = json.loads(line)
    want = len(req["batch"]) if "batch" in req else 1
    results = j.get("results", [])
    if len(results) != want:
        return f"{len(results)} results for {want} items"
    for r in results:
        if r.get("ok") is not True:
            return "item error " + str(r.get("error", {}).get("kind"))
        if degraded:
            if r.get("tier") != "estimate":
                return "budget frame item not at estimate tier"
        elif r.get("op") == "validate":
            if r.get("clean") is not True:
                return "validate reported violations"
        elif r.get("tier") != "full":
            return "item degraded without a budget"
    return None


def reference_replies(workdir, frames):
    """Solo in-process Server.handle_line replies for `frames`, in order."""
    ref_dir = os.path.join(workdir, "reference")
    os.makedirs(ref_dir)
    path = os.path.join(workdir, "reference.frames")
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in frames))
    out = os.path.join(workdir, "reference.replies")
    r = subprocess.run([PROBE, "reference", "--frames", path, "--dir",
                        ref_dir, "--out", out], stdin=subprocess.DEVNULL)
    if r.returncode != 0:
        raise BenchError("reference probe failed")
    with open(out) as f:
        return f.read().split("\n")[:-1]


class Tally:
    """Operations sent, failed, and output-check violations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations = []

    def op(self, failure, violation=False):
        self.attempted += 1
        if failure:
            self.failed += 1
            if violation:
                self.violations.append(failure)


# ---------------------------------------------------------------------------
# Workloads.  Each pass returns its metrics and its latencies in ms.


def suite_rows_ok(out):
    rows = [ln for ln in out.splitlines() if ln[:4].strip().isdigit()
            and "|" in ln]
    return len(rows) == 12 and all(ln.rstrip().endswith(" ok") for ln in rows)


def sweep_pass(pool, seconds, min_ops, tally, tracer, refs, first=0):
    latencies = []
    cpu = []
    rows = 0
    rss = 0
    i = first
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or len(latencies) < min_ops):
        spec = pool[i % len(pool)]
        i += 1
        t0 = time.perf_counter()
        _, sout, src, srss, scpu = run_cli(["suite", "--machine", spec])
        t1 = time.perf_counter()
        _, tout, trc, trss, tcpu = run_cli(["tables", "--machine", spec])
        t2 = time.perf_counter()
        parent = tracer.span("sweep.machine", t0, t2, spec=spec)
        tracer.span("macs_cli.suite", t0, t1, parent=parent)
        tracer.span("macs_cli.tables", t1, t2, parent=parent)
        latencies.append((t2 - t0) * 1e3)
        cpu.append(scpu + tcpu)
        rss = max(rss, srss, trss)
        refs.setdefault(spec, []).append((sout, tout))
        failure = None
        if src != 0 or trc != 0:
            failure = f"{spec}: exit codes {src}/{trc}"
        elif not suite_rows_ok(sout.decode()):
            failure = f"{spec}: estimated, failed or quarantined suite rows"
        elif b"bound-oracle violations" in sout:
            failure = f"{spec}: bound-oracle violations"
        else:
            rows += 12
        tally.op(failure, violation=failure is not None)
    wall = time.perf_counter() - t_start
    return {"cpu_ms_per_op": 1e3 * statistics.median(cpu),
            "ops_per_s": rows / wall,
            "latency_ms_p50": pct(latencies, 0.5),
            "latency_ms_p90": pct(latencies, 0.9),
            "peak_rss_mb": rss / 1024.0}, latencies, i


def sweep_check(refs, tally):
    """Every spec's suite stdout must equal a --fidelity cycle --jobs 1 run,
    and its tables stdout must repeat exactly."""
    for spec, outs in refs.items():
        _, ref, rc, _, _ = run_cli(["suite", "--machine", spec,
                                 "--fidelity", "cycle", "--jobs", "1"])
        if rc != 0:
            tally.violations.append(f"{spec}: reference run exit {rc}")
        for sout, tout in outs:
            if sout != ref:
                tally.violations.append(f"{spec}: suite output differs from "
                                        "the cycle-stepped --jobs 1 run")
            if tout != outs[0][1]:
                tally.violations.append(f"{spec}: tables output not repeatable")


def serve_pass(server, frame_at, seconds, min_frames, tally, tracer,
               first=0, expect=None):
    """Closed loop against `server`; `expect(k, fr)` gives the reply each
    frame must equal (None: check later against the solo reference)."""
    # Peak RSS grows with the frames a server has answered (the session
    # keeps every reply), so it is read after a fixed number of frames.
    rss = []
    cpu0 = server.cpu_s()
    results, wall = closed_loop(
        server.port, frame_at, seconds, min_frames, tracer, first=first,
        on_min_frames=lambda: rss.append(server.peak_rss_mb()))
    cpu = server.cpu_s() - cpu0
    ok = 0
    latencies = []
    for k, fr, reply, dt, _ in results:
        failure = check_reply(fr, reply)
        violation = failure is not None and not failure.startswith(
            ("typed error", "item error"))
        if failure is None and expect is not None and reply != expect(k, fr):
            failure = f"frame {fr[0]}: reply differs from the cold reply"
            violation = True
        tally.op(failure, violation)
        if failure is None:
            ok += 1
        latencies.append(dt * 1e3)
    return {"cpu_ms_per_op": 1e3 * cpu / max(1, ok),
            "peak_rss_mb": rss[0] if rss else server.peak_rss_mb(),
            "ops_per_s": ok / wall,
            "latency_ms_p50": pct(latencies, 0.5),
            "latency_ms_p90": pct(latencies, 0.9)}, latencies, results


def serve_reference_check(workdir, results, tally):
    frames = [fr[1] for _, fr, _, _, _ in results]
    refs = reference_replies(workdir, frames)
    for (_, fr, reply, _, _), ref in zip(results, refs):
        if reply is not None and reply != ref:
            tally.violations.append(
                f"frame {fr[0]}: reply differs from the solo reference")


def populate(workdir, frames, tally, tracer):
    """serve-replay's set-up: the cold frames once through a fresh server
    with a session and a cache; returns the cache and the cold replies."""
    cache = os.path.join(workdir, "replay.cache")
    server = Server(workdir, "populate",
                    ["--session", os.path.join(workdir, "replay.session"),
                     "--cache", cache])
    try:
        results, _ = closed_loop(server.port, lambda k: frames[k], 0,
                                 len(frames), tracer, tag="serve.populate")
    finally:
        server.stop()
    cold = {}
    for k, fr, reply, _, _ in results:
        failure = check_reply(fr, reply)
        if failure:
            tally.violations.append(f"populate {fr[0]}: {failure}")
        cold[k] = reply
    if len(cold) != len(frames):
        raise BenchError("populate did not send every frame")
    return cache, cold


# ---------------------------------------------------------------------------
# The traced run's layer pass.


def serve_layer_pass(workdir, frames, probe_hit_us, tally, tracer):
    """Solo cold, solo cache-hit and two-connection cold passes over the
    same fixed frames; every count here repeats exactly for a seed."""
    def solo(server, tag):
        conn = Conn(server.port)
        out = []
        try:
            for fr in frames:
                t0 = time.perf_counter()
                reply = conn.call(fr[1])
                t1 = time.perf_counter()
                tracer.span(tag, t0, t1, tid=10, frame=fr[0])
                out.append((reply, t1 - t0))
        finally:
            conn.close()
        return out

    session = os.path.join(workdir, "layers.session")
    cache = os.path.join(workdir, "layers.cache")
    a = Server(workdir, "layers-cold", ["--session", session, "--cache", cache])
    try:
        cold = solo(a, "rtt.cold_solo")
        stats_a = a.stats()
    finally:
        a.stop()
    b = Server(workdir, "layers-hit", ["--cache", cache])
    try:
        hit = solo(b, "rtt.hit_solo")
        stats_b = b.stats()
    finally:
        b.stop()
    c = Server(workdir, "layers-duo",
               ["--session", os.path.join(workdir, "duo.session"),
                "--cache", os.path.join(workdir, "duo.cache")])
    try:
        duo, _ = closed_loop(c.port, lambda k: frames[k], 0, len(frames),
                             tracer, tag="rtt.cold_duo")
        stats_c = c.stats()
    finally:
        c.stop()
    for i, fr in enumerate(frames):
        failure = check_reply(fr, cold[i][0])
        if failure:
            tally.violations.append(f"layer pass {fr[0]}: {failure}")
        if hit[i][0] != cold[i][0] or duo[i][2] != cold[i][0]:
            tally.violations.append(f"layer pass {fr[0]}: replies differ")
    server_counts = [s["server"] for s in (stats_a, stats_b, stats_c)]
    hits = stats_b["cache"]["hits"]
    misses = stats_b["cache"]["misses"]
    return {
        "serve.transport_us": statistics.median(
            h[1] * 1e6 - p for h, p in zip(hit, probe_hit_us)),
        "serve.queue_wait_ms": statistics.median(
            (d[3] - c[1]) * 1e3 for d, c in zip(duo, cold)),
        "serve.bound_ratio": statistics.median(c[1] for c in cold)
        / statistics.median(h[1] for h in hit),
        "cache.hit_ratio": hits / (hits + misses),
        "journal.bytes_per_frame": os.path.getsize(session) / len(frames),
        "serve.replayed_frames": stats_b["server"]["replayed_frames"],
        "serve.degraded_items": stats_a["server"]["degraded"],
        "serve.coalesced": sum(s["coalesced"] for s in server_counts),
        "serve.rejected": sum(s["rejected"] for s in server_counts),
        "serve.shed": sum(s["shed"] for s in server_counts),
    }


def probe_layers(workdir, specs, frames, tracer_events):
    d = os.path.join(workdir, "probe")
    os.makedirs(d)
    spec_path = os.path.join(workdir, "layers.specs")
    frame_path = os.path.join(workdir, "layers.frames")
    with open(spec_path, "w") as f:
        f.write("".join(s + "\n" for s in specs))
    with open(frame_path, "w") as f:
        f.write("".join(fr[1] + "\n" for fr in frames))
    trace = os.path.join(workdir, "probe.trace.json")
    out = os.path.join(workdir, "probe.json")
    r = subprocess.run([PROBE, "layers", "--specs", spec_path, "--frames",
                        frame_path, "--dir", d, "--jobs",
                        str(os.cpu_count() or 1), "--trace", trace, "--out",
                        out], stdin=subprocess.DEVNULL)
    if not os.path.exists(out):
        raise BenchError("layer probe failed")
    with open(out) as f:
        result = json.load(f)
    with open(trace) as f:
        tracer_events.extend(json.load(f)["traceEvents"])
    return result, r.returncode


# ---------------------------------------------------------------------------


def run(args, workdir):
    tracer = Tracer(enabled=False)
    tally = Tally()
    seconds = args.seconds
    pool = workload.machine_pool(args.seed)

    def cold_frame(k):
        return workload.frame(args.seed, k, pool)

    def one_pass(secs, first, traced, min_ops=None):
        """One measured pass of the workload, at least `min_ops` operations
        (default: one spec pair, or MIN_FRAMES frames); returns (metrics,
        latencies, next first index)."""
        tracer.enabled = traced
        if args.workload == "sweep":
            m, lat, nxt = sweep_pass(pool, secs, min_ops or 1, tally,
                                     tracer, sweep_refs, first)
            return m, lat, nxt
        if args.workload == "serve-cold":
            m, lat, res = serve_pass(server, cold_frame, secs,
                                     min_ops or MIN_FRAMES, tally, tracer,
                                     first)
            cold_results.extend(res)
            return m, lat, first + len(res)
        m, lat, res = serve_pass(
            server, replay_frame, secs, min_ops or MIN_FRAMES, tally, tracer,
            first,
            expect=lambda k, fr: replay_cold[replay_order[k % REPLAY_POOL]])
        return m, lat, first + len(res)

    sweep_refs = {}
    cold_results = []
    server = None
    if args.workload == "sweep":
        runs = [run_cli(["--version"]) for _ in range(SETUP_LAUNCHES["sweep"])]
        setup_s = statistics.median(r[4] for r in runs)
        setup_wall_s = statistics.median(r[0] for r in runs)
    elif args.workload == "serve-cold":
        server, setup_s, setup_wall_s = launch(
            workdir, "cold",
            lambda i: ["--session", os.path.join(workdir, f"cold{i}.session"),
                       "--cache", os.path.join(workdir, f"cold{i}.cache")],
            SETUP_LAUNCHES["serve-cold"])
    else:
        frames = [cold_frame(k) for k in range(REPLAY_POOL)]
        cache, replay_cold = populate(workdir, frames, tally, tracer)
        replay_order = list(range(REPLAY_POOL))
        random.Random(f"replay:{args.seed}").shuffle(replay_order)

        def replay_frame(k):
            return frames[replay_order[k % REPLAY_POOL]]

        server, setup_s, setup_wall_s = launch(
            workdir, "replay", lambda i: ["--cache", cache],
            SETUP_LAUNCHES["serve-replay"])

    try:
        # untimed warm-up, checked like the rest
        first = one_pass(0, 0, False, min_ops=WARMUP_OPS[args.workload])[2]
        if not args.trace:
            metrics, latencies, sent = one_pass(seconds, first, False)
            passes = [(metrics, latencies)]
        else:
            half = max(1.0, seconds / 2.0)
            plain = one_pass(half, first, False)
            traced = one_pass(half, plain[2], True)
            passes = [plain[:2], traced[:2]]
            sent = traced[2]
        if args.workload == "serve-replay":
            c = server.stats()["cache"]
            if c["misses"] != 0 or c["hits"] != sent:
                tally.violations.append(
                    f"replay cache: {c['hits']} hits, {c['misses']} "
                    f"misses for {sent} frames")
    finally:
        if server is not None:
            server.stop()

    if args.workload == "sweep":
        sweep_check(sweep_refs, tally)
    elif args.workload == "serve-cold":
        serve_reference_check(workdir, cold_results, tally)

    metrics = dict(passes[0][0], setup_s=setup_s)
    report = {k: metrics[k] for k in END_TO_END}
    units = END_TO_END
    if args.trace:
        extra = []
        layer_frames = [cold_frame(k) for k in range(LAYER_FRAMES)]
        probe, rc = probe_layers(workdir, pool[:LAYER_SPECS], layer_frames,
                                 extra)
        for failure in probe["failures"]:
            tally.violations.append("layer probe: " + failure)
        if rc != 0 and not probe["failures"]:
            raise BenchError("layer probe failed")
        tracer.enabled = True
        layers = dict(probe["metrics"])
        layers.update(serve_layer_pass(workdir, layer_frames,
                                       probe["handle_line_hit_us"], tally,
                                       tracer))
        untraced, traced = passes[0][0], passes[1][0]
        layers["trace.overhead_pct"] = 100.0 * (
            untraced["ops_per_s"] / traced["ops_per_s"] - 1.0)
        for name in ("ops_per_s", "latency_ms_p50", "latency_ms_p90"):
            layers[name] = untraced[name]
        layers["latency_ms_p99"] = pct(passes[0][1], 0.99)
        layers["setup_wall_s"] = setup_wall_s
        layers["fail_ratio"] = tally.failed / tally.attempted
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-s{args.seed}.json"), extra)
        report = {k: layers[k] for k in PER_LAYER}
        units = PER_LAYER
    for name, value in report.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite")
    return tally, {k: {"value": v, "unit": units[k]} for k, v in report.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "serve-cold", "serve-replay"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        tally, metrics = run(args, workdir)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        for server in list(Server.live):
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for v in tally.violations[:20]:
        log(f"perfbench: check failed: {v}")
    log(f"perfbench: {args.workload} seed {args.seed}: sent {tally.attempted}, "
        f"ok {tally.attempted - tally.failed}, failed {tally.failed}, "
        f"output-check violations {len(tally.violations)}")
    correct = not tally.violations
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
