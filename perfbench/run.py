#!/usr/bin/env python3
"""The `uxsm serve` benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the CLI (and,
for traced runs, perfbench/trace) with dune, then drives `uxsm serve --tcp`
processes with dataset D7 registered closed-loop from this one process over
two TCP connections for S seconds in all: three segments of S/3 seconds,
each on a fresh server whose start-up is timed.
Every reply is checked (see "Correctness" in perfbench/README.md); the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the same window is driven once more, then perfbench/trace
replays the requests in-process and the metrics are the per-layer ones.
The lines before the JSON object print every metric by name and unit,
including ones that are not gated (query p90 and p99, update and
mappings latency, error_ratio).

Inputs depend only on --workload and --seed: the request streams, the
update deltas and the reference replies are all produced before the
measured server starts or after its window closes. Scratch files go to
.perfbench/ in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import threading
import time

CLI = os.path.join("_build", "default", "bin", "uxsm_cli.exe")
TRACER = os.path.join("_build", "default", "perfbench", "trace", "perfbench_trace.exe")
STATE_DIR = ".perfbench"
CORPUS = "d7"
DATASET = "D7"
WARM_H, WARM_TAU = 100, 0.2
MAPPINGS_H = 30
TOPK_K = 10
COLD_H = (50, 200)
COLD_TAUS = (0.1, 0.2, 0.3)
COLD_WARMUP = 12  # per connection; ~3 LRU entries each, so 24 fill the 64
COLD_ORACLES = 2  # reference processes that check cold_sweep replies in parallel
COLD_RATE_CAP = 100  # cold requests per connection per second a stream covers
CONNECTIONS = 2
SEGMENTS = 3  # fresh TCP servers per run: each gives one setup_s sample and
# measures one window segment of --seconds / SEGMENTS
TRACE_REPLAY_CAP = 600  # window requests replayed in-process by the tracer
PING_PROBES = 50
CLEARED_ENV = ("UXSM_JOBS", "UXSM_PAR_THRESHOLD", "UXSM_LOCK_WITNESS")
REPLY_TIMEOUT_S = 60.0

# Table III of the paper, as the server parses them.
QUERIES = [
    "Order/DeliverTo/Address[./City][./Country]/Street",
    "Order/DeliverTo/Contact/EMail",
    "Order/DeliverTo[./Address/City]/Contact/EMail",
    "Order/POLine[./LineNo]//UnitPrice",
    "Order/POLine[./LineNo][.//UnitPrice]/Quantity",
    "Order/POLine[./BuyerPartID][./LineNo][.//UnitPrice]/Quantity",
    "Order[./DeliverTo//Street]/POLine[.//BuyerPartID][.//UnitPrice]/Quantity",
    "Order[./DeliverTo[.//EMail]//Street]/POLine[.//UnitPrice]/Quantity",
    "Order[./Buyer/Contact]/POLine[.//BuyerPartID]/Quantity",
    "Order[./Buyer/Contact][./DeliverTo//City]//BuyerPartID",
]
Q7 = QUERIES[6]

WORKLOADS = ("warm_query", "cold_sweep", "read_write")
UPDATES_PER_DECK = 3  # read_write: updates per shuffled deck of connection 0
UPDATE_SET = 32  # read_write: correspondences the updates cycle through
UPDATE_STEP = 0.1  # read_write: relative move of a perturbing update

# The end-to-end metrics every workload reports (BENCHMARK.json gates these).
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "query_p50_ms": "ms",
    "server_rss_mb": "MB",
}


class BenchError(Exception):
    """An infrastructure failure: the run cannot produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def line_of(body, rid):
    """Wire line for a request body, with the id first."""
    return json.dumps({"id": rid, **body}, separators=(",", ":"))


def reply_suffix(reply, rid):
    """The reply with its leading id removed, or None if it does not lead
    with the expected id (the server emits the id first)."""
    prefix = '{"id":%s,' % json.dumps(rid)
    return reply[len(prefix):] if reply.startswith(prefix) else None


def op_kind(body):
    op = body["op"]
    return "query" if op in ("query", "query_topk") else op


# ----------------------------------------------------------------------
# Request streams


def query_body(pattern, h, tau, k=None):
    body = {"op": "query_topk" if k else "query", "corpus": CORPUS, "query": pattern,
            "h": h, "tau": tau}
    if k:
        body["k"] = k
    return body


def warm_deck():
    """One of each warm request: Table III at (h, tau) = (100, 0.2), top-k on
    Q7, the mapping set at h = 30, and a ping."""
    deck = [query_body(q, WARM_H, WARM_TAU) for q in QUERIES]
    deck.append(query_body(Q7, WARM_H, WARM_TAU, k=TOPK_K))
    deck.append({"op": "mappings", "corpus": CORPUS, "h": MAPPINGS_H})
    deck.append({"op": "ping"})
    return deck


def shuffled_decks(rng, deck, count):
    out = []
    for _ in range(count):
        d = list(deck)
        rng.shuffle(d)
        out.extend(d)
    return out


def update_body(source, target, score):
    return {"op": "update", "corpus": CORPUS,
            "set": [{"source": source, "target": target, "score": score}]}


def update_targets(corrs):
    """The correspondences read_write re-scores: UPDATE_SET of them, evenly
    spaced over all of them in (source, target) order, so every seed
    re-scores the same set and the cost of a window's updates does not
    depend on which correspondences a seed happens to draw (their re-rank
    costs range over an order of magnitude)."""
    ordered = sorted(corrs)
    n = min(UPDATE_SET, len(ordered))
    return [ordered[i * len(ordered) // n] for i in range(n)]


def update_stream(rng, corrs, count):
    """[count] single-correspondence re-scores in perturb/restore pairs: the
    first of a pair moves a correspondence's score by UPDATE_STEP, up for
    every other target and down for the rest (clipped to [0.01, 1]), the
    second restores the matcher's exact score. The corpus thus returns to
    its registered state after every pair instead of drifting along a
    seed-dependent random walk that would change what later queries cost.
    The targets are dealt from decks of update_targets(corrs), each deck
    shuffled by [rng]."""
    targets = update_targets(corrs)
    out, deck = [], []
    while len(out) < count:
        if not deck:
            deck = list(range(len(targets)))
            rng.shuffle(deck)
        i = deck.pop()
        source, target, score = targets[i]
        factor = 1.0 + (UPDATE_STEP if i % 2 == 0 else -UPDATE_STEP)
        moved = min(1.0, max(0.01, round(score * factor, 4)))
        if moved == score:
            moved = round(score - 0.05, 4) if score > 0.5 else round(score + 0.05, 4)
        out.append(update_body(source, target, moved))
        out.append(update_body(source, target, score))
    return out[:count]


def cold_hs(conn):
    """Connection [conn]'s h values: those of its parity, so the two
    connections never share a key."""
    return [h for h in range(COLD_H[0], COLD_H[1] + 1) if h % 2 == conn]


def cold_stream(rng, conn, length):
    """Connection [conn]'s cold keys, at least [length] of them: passes over
    every h of its parity (each h once per pass, tau rotating across passes,
    so a key recurs only every third pass). Within a pass h is stratified:
    each group of consecutive requests takes one h from each of 8
    sub-ranges, so any prefix of the stream has nearly the same h
    distribution. After the first pass each sub-range is shuffled within its
    earlier and its later half only, so an h comes back at least about half
    a pass (~35 requests) later, long after the 64-entry LRU evicted it."""
    hs = cold_hs(conn)
    size = -(-len(hs) // 8)
    strata = [hs[i:i + size] for i in range(0, len(hs), size)]
    offsets = {h: rng.randrange(len(COLD_TAUS)) for h in hs}
    out = []
    p = 0
    while len(out) < length:
        for s in strata:
            if p == 0:
                rng.shuffle(s)
            else:
                early, late = s[:len(s) // 2], s[len(s) // 2:]
                rng.shuffle(early)
                rng.shuffle(late)
                s[:] = early + late
        rounds = max(len(s) for s in strata)
        order = []
        for r in range(rounds):
            group = [s[r] for s in strata if r < len(s)]
            rng.shuffle(group)
            order.extend(group)
        qdeck = []
        for h in order:
            if not qdeck:
                qdeck = list(QUERIES)
                rng.shuffle(qdeck)
            tau = COLD_TAUS[(offsets[h] + p) % len(COLD_TAUS)]
            out.append(query_body(qdeck.pop(), h, tau))
        p += 1
    return out


def cold_warmup(streams, pos):
    """The requests that fill a fresh server's LRU before its window, so the
    window measures the full-cache steady state with evictions from its
    first request on: the COLD_WARMUP requests each connection sent just
    before stream position pos[conn], or, before that many were sent, the
    last COLD_WARMUP of its first pass. Either way a warmup h recurs on its
    connection only after the LRU evicted it (for the first pass's tail,
    about 60 requests into the stream)."""
    warmup = []
    for conn, stream in enumerate(streams):
        p = pos[conn]
        if p >= COLD_WARMUP:
            warmup += stream[p - COLD_WARMUP:p]
        else:
            n = len(cold_hs(conn))
            warmup += stream[n - COLD_WARMUP:n]
    return warmup


def make_streams(workload, seed, seconds, corrs):
    """Per-connection request bodies, long enough for the window at any
    plausible rate (a window that runs a stream dry fails the run)."""
    decks = max(8, int(seconds * 80))
    streams = []
    for conn in range(CONNECTIONS):
        rng = random.Random(seed * 1000 + conn)
        if workload == "cold_sweep":
            streams.append(cold_stream(rng, conn, max(200, int(seconds * COLD_RATE_CAP))))
        elif workload == "warm_query" or conn != 0:
            streams.append(shuffled_decks(rng, warm_deck(), decks))
        else:
            deck = warm_deck() + [None] * UPDATES_PER_DECK
            stream = shuffled_decks(rng, deck, decks)
            updates = iter(update_stream(rng, corrs, stream.count(None)))
            streams.append([b if b is not None else next(updates) for b in stream])
    return streams


# ----------------------------------------------------------------------
# Processes


def clean_env():
    """The environment for every child: the server knobs cleared, and
    temporary and cache files kept inside the checkout."""
    env = dict(os.environ)
    for k in CLEARED_ENV:
        env.pop(k, None)
    for var, sub in (("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.abspath(os.path.join(STATE_DIR, sub))
        os.makedirs(env[var], exist_ok=True)
    return env


class Oracle:
    """The reference: a `uxsm serve --stdio` process, which answers each
    request line in-process through Server.handle_line with no socket
    transport, admission queue or dispatcher. Its start-up is not a
    setup_s sample. Call ready() before the first ask, so that several
    oracles can start at once."""

    def __init__(self, state, n=0):
        self.argv = [CLI, "serve", "--stdio", "--corpus", f"{CORPUS}={DATASET}"]
        self.errf = open(os.path.join(state, f"oracle-{n}.log"), "wb")
        self.proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.errf, env=clean_env())

    def ready(self):
        if reply_suffix(self.ask_line(line_of({"op": "ping"}, 0)), 0) is None:
            raise BenchError("oracle: bad ping reply")

    def ask_line(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        out = self.proc.stdout.readline()
        if not out:
            raise BenchError("oracle exited early")
        return out.decode().rstrip("\n")

    def ask(self, body):
        """Reference reply for [body], id stripped."""
        return reply_suffix(self.ask_line(line_of(body, 0)), 0)

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.errf.close()


def ask_all(oracles, bodies):
    """The reference replies to [bodies], in order, with the oracles
    answering in parallel (request i goes to oracle i mod the count)."""
    out = [None] * len(bodies)
    errors = []

    def work(k):
        try:
            for i in range(k, len(bodies), len(oracles)):
                out[i] = oracles[k].ask(bodies[i])
        except BenchError as e:
            errors.append(e)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(oracles))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out


class Server:
    """A fresh `uxsm serve` on an ephemeral TCP port."""

    ARGS = ["serve", "--tcp", "127.0.0.1:0", "--corpus", f"{CORPUS}={DATASET}"]

    def __init__(self, state, n):
        self.argv = [CLI] + self.ARGS
        self.log_path = os.path.join(state, f"server-{n}.log")
        self.errf = open(self.log_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.errf,
                                     env=clean_env())
        self.port = self._wait_port()

    def _wait_port(self):
        deadline = time.perf_counter() + 120
        marker = "listening on 127.0.0.1:"
        while time.perf_counter() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            i = text.find(marker)
            if i >= 0 and "\n" in text[i:]:
                return int(text[i + len(marker):].split()[0])
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during start-up: {text.strip()}")
            time.sleep(0.002)
        raise BenchError("server did not start listening")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self, client):
        """Shut down over the protocol; killed if it does not drain."""
        try:
            client.call(0, {"op": "shutdown"})
        finally:
            client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.errf.close()


class Client:
    """CONNECTIONS closed-loop TCP connections from this one process."""

    def __init__(self, port):
        self.socks = []
        for _ in range(CONNECTIONS):
            s = socket.create_connection(("127.0.0.1", port))
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(s)
        self.bufs = [b""] * CONNECTIONS
        self.next_id = [c * 10_000_000 + 1 for c in range(CONNECTIONS)]

    def _send(self, conn, body):
        rid = self.next_id[conn]
        self.next_id[conn] += 1
        self.socks[conn].sendall(line_of(body, rid).encode() + b"\n")
        return rid

    def _read_line(self, conn, deadline):
        while b"\n" not in self.bufs[conn]:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"no reply on connection {conn}")
            r, _, _ = select.select([self.socks[conn]], [], [], left)
            if r:
                data = self.socks[conn].recv(1 << 20)
                if not data:
                    raise BenchError(f"connection {conn} closed by the server")
                self.bufs[conn] += data
        line, _, rest = self.bufs[conn].partition(b"\n")
        self.bufs[conn] = rest
        return line.decode()

    def call(self, conn, body):
        """One synchronous request: (id, reply line, seconds)."""
        t0 = time.perf_counter()
        rid = self._send(conn, body)
        reply = self._read_line(conn, t0 + REPLY_TIMEOUT_S)
        return rid, reply, time.perf_counter() - t0

    def window(self, streams, pos, seconds):
        """Drive every connection closed-loop until [seconds] pass, then let
        in-flight requests finish. Connection c sends streams[c] from
        position pos[c] on; pos is advanced past what was sent. Returns
        (records, t0, t_end): one record per request sent in the window, in
        send order."""
        records = []
        inflight = {}
        t0 = time.perf_counter()
        t_end = t0 + seconds

        def send_next(conn, now):
            if now >= t_end:
                return
            if pos[conn] >= len(streams[conn]):
                raise BenchError(f"request stream {conn} ran dry before the window ended")
            body = streams[conn][pos[conn]]
            pos[conn] += 1
            rec = {"conn": conn, "body": body, "kind": op_kind(body), "t_send": now}
            rec["id"] = self._send(conn, body)
            records.append(rec)
            inflight[conn] = rec

        now = time.perf_counter()
        for c in range(CONNECTIONS):
            send_next(c, now)
        last_progress = time.perf_counter()
        while inflight:
            socks = [self.socks[c] for c in inflight]
            r, _, _ = select.select(socks, [], [], 1.0)
            now = time.perf_counter()
            if not r:
                if now - last_progress > REPLY_TIMEOUT_S:
                    raise BenchError("replies stalled")
                continue
            for s in r:
                conn = self.socks.index(s)
                data = s.recv(1 << 20)
                if not data:
                    raise BenchError(f"connection {conn} closed by the server")
                self.bufs[conn] += data
                if b"\n" not in self.bufs[conn]:
                    continue
                line, _, rest = self.bufs[conn].partition(b"\n")
                self.bufs[conn] = rest
                now = time.perf_counter()
                last_progress = now
                rec = inflight.pop(conn)
                rec["t_recv"] = now
                rec["reply"] = line.decode()
                send_next(conn, now)
        return records, t0, t_end

    def close(self):
        for s in self.socks:
            s.close()


# ----------------------------------------------------------------------
# Checks and metrics


def percentile(sorted_vals, p):
    """Exact nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_vals)
    rank = min(n, max(1, math.ceil(round(p * n, 9))))
    return sorted_vals[rank - 1], n - rank


def check_reply(rec, expected=None):
    """ok:true, the request's id echoed, and (when a reference is given)
    the rest of the reply byte-equal to it. Returns an error string or None."""
    reply = rec.get("reply")
    if reply is None:
        return "dropped"
    try:
        j = json.loads(reply)
    except ValueError:
        return "unparsable reply"
    if j.get("id") != rec["id"]:
        return "id not echoed"
    if j.get("ok") is not True:
        return "error reply: " + str(j.get("error"))
    if expected is not None and reply_suffix(reply, rec["id"]) != expected:
        return "reply differs from the reference"
    if rec["kind"] == "query":
        b = rec["body"]
        if j.get("query") != b["query"] or j.get("h") != b["h"]:
            return "query reply does not echo its request"
    return None


def cpu_steal_s():
    """Machine-wide CPU time stolen by the hypervisor so far (diagnostic)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def rev_info():
    rev = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return rev, h.hexdigest()[:16]


def build(trace):
    targets = [CLI.replace(os.path.join("_build", "default") + os.sep, "")]
    if trace:
        targets.append(TRACER.replace(os.path.join("_build", "default") + os.sep, ""))
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled"] + targets,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                       env=clean_env())
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-4000:])


# ----------------------------------------------------------------------
# One run


def run(args):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("run from the root of a uxsm source checkout (no dune-project/lib/bin here)")
    os.makedirs(STATE_DIR, exist_ok=True)
    build(args.trace)
    rev, digest = rev_info()
    procs = []
    failures = {}
    attempted = 0

    def fail(reason):
        failures[reason] = failures.get(reason, 0) + 1

    try:
        # cold_sweep checks every window reply against a reference built
        # from scratch, the costliest part of its run; two oracles (one per
        # core) do that after the window in half the time.
        oracles = [Oracle(STATE_DIR, n)
                   for n in range(COLD_ORACLES if args.workload == "cold_sweep" else 1)]
        procs.extend(oracles)
        for o in oracles:
            o.ready()
        oracle = oracles[0]

        corrs = []
        if args.workload == "read_write":
            match = json.loads("{" + oracle.ask({"op": "match", "corpus": CORPUS}))
            corrs = [(c["source"], c["target"], c["score"]) for c in match["correspondences"]]
        streams = make_streams(args.workload, args.seed, args.seconds, corrs)
        refs = {}
        if args.workload == "warm_query":
            for body in warm_deck():
                refs[json.dumps(body, sort_keys=True)] = oracle.ask(body)
        if args.plant_wrong_reference:
            planted = next(iter(refs), None)
            if planted is not None:
                refs[planted] = refs[planted] + " "

        def ref_of(body):
            return refs.get(json.dumps(body, sort_keys=True))

        # The window is cut into segments, each on a fresh server whose
        # start-up is one setup_s sample; the streams run on from one
        # segment to the next. Spreading the window over several processes
        # and over the whole run averages the machine's drift and each
        # process's own speed. A traced run drives one server.
        n_seg = 1 if args.trace else SEGMENTS
        pos = [0] * CONNECTIONS
        segments = []
        for n in range(n_seg):
            server = Server(STATE_DIR, n)
            procs.append(server)
            client = Client(server.port)
            _, reply, _ = client.call(0, {"op": "ping"})
            seg = {"setup_s": time.perf_counter() - server.t0}
            if json.loads(reply).get("reply") != "pong":
                raise BenchError("bad ping reply")

            seg["warmup"] = (cold_warmup(streams, pos) if args.workload == "cold_sweep"
                             else warm_deck())
            for body in seg["warmup"]:
                rid, reply, _ = client.call(0, body)
                attempted += 1
                err = check_reply({"id": rid, "reply": reply, "kind": op_kind(body),
                                   "body": body}, ref_of(body))
                if err:
                    fail("warmup: " + err)
            _, seg["before"], _ = client.call(0, {"op": "stats"})
            client.call(0, {"op": "stats_reset"})

            steal0 = cpu_steal_s()
            seg["records"], seg["t0"], seg["t_end"] = client.window(
                streams, pos, args.seconds / n_seg)
            seg["steal_s"] = cpu_steal_s() - steal0
            seg["rss_mb"] = server.peak_rss_mb()
            _, seg["after"], _ = client.call(0, {"op": "stats"})

            seg["final_checks"] = []
            if args.workload == "read_write":
                for body in warm_deck():
                    if body["op"] != "ping":
                        rid, reply, _ = client.call(0, body)
                        attempted += 1
                        seg["final_checks"].append({"id": rid, "reply": reply,
                                                    "kind": op_kind(body), "body": body})
            seg["pings"] = []
            if args.trace:
                for _ in range(PING_PROBES):
                    _, _, dt = client.call(0, {"op": "ping"})
                    seg["pings"].append(dt)
            server.stop(client)
            procs.remove(server)
            segments.append(seg)

        records = [rec for seg in segments for rec in seg["records"]]
        for rec in records:
            attempted += 1
            err = check_reply(rec, ref_of(rec["body"]) if args.workload == "warm_query" else None)
            if err:
                fail(err)

        # References that depend on what the window sent.
        if args.workload == "cold_sweep":
            checked = [rec for rec in records
                       if rec.get("reply") is not None and check_reply(rec) is None]
            expected = ask_all(oracles, [rec["body"] for rec in checked])
            if args.plant_wrong_reference and checked:
                expected[0] += " "
            for rec, exp in zip(checked, expected):
                if reply_suffix(rec["reply"], rec["id"]) != exp:
                    fail("reply differs from the reference")
        if args.workload == "read_write":
            # Per segment, the oracle re-registers the corpus (back to its
            # registered state, with a cold cache, as the segment's fresh
            # server started), replays the deltas connection 0 sent in that
            # segment in order, then answers every query from scratch:
            # incremental maintenance on the server must match a rebuild.
            for seg in segments:
                reply = oracle.ask({"op": "register", "name": CORPUS, "dataset": DATASET,
                                    "seed": 42, "doc_seed": 7})
                if json.loads("{" + reply).get("ok") is not True:
                    raise BenchError("oracle rejected the re-registration")
                for rec in seg["records"]:
                    if rec["kind"] == "update":
                        if json.loads("{" + oracle.ask(rec["body"])).get("ok") is not True:
                            raise BenchError("oracle rejected an update")
                for chk in seg["final_checks"]:
                    expected = oracle.ask(chk["body"])
                    if (args.plant_wrong_reference and seg is segments[0]
                            and chk is seg["final_checks"][0]):
                        expected += " "
                    err = check_reply(chk, expected)
                    if err:
                        fail("final state: " + err)
        for o in oracles:
            o.close()
            procs.remove(o)
    finally:
        # Only reached with live processes when the run is failing.
        for p in procs:
            p.proc.kill()
            p.proc.wait()

    failed = sum(failures.values())
    lat = {}
    for rec in records:
        if "t_recv" in rec:
            lat.setdefault(rec["kind"], []).append((rec["t_recv"] - rec["t_send"]) * 1000.0)
    for v in lat.values():
        v.sort()
    # Throughput: the replies received within the segments' windows over
    # the summed time from each segment's start to its last such reply.
    completed, span_s, seg_rps = 0, 0.0, []
    for seg in segments:
        done = [r["t_recv"] for r in seg["records"]
                if "t_recv" in r and r["t_recv"] <= seg["t_end"]]
        if not done:
            raise BenchError("no replies in a window segment")
        completed += len(done)
        span_s += max(done) - seg["t0"]
        seg_rps.append(len(done) / (max(done) - seg["t0"]))
    throughput = completed / span_s
    setups = [seg["setup_s"] for seg in segments]
    rss = [seg["rss_mb"] for seg in segments]
    steal = sum(seg["steal_s"] for seg in segments)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": rev, "source_digest": digest,
        "nproc": os.cpu_count(), "server_argv": Server.ARGS, "oracle": "serve --stdio",
        "setup_samples_s": setups, "segment_rps": seg_rps, "segment_rss_mb": rss,
        "window_requests": len(records), "failures": failures, "window_cpu_steal_s": steal,
        "samples": [[n, round(r["t_send"] - seg["t0"], 6), r["kind"],
                     round((r["t_recv"] - r["t_send"]) * 1000.0, 4)]
                    for n, seg in enumerate(segments) for r in seg["records"]
                    if "t_recv" in r],
    }
    print("# perfbench " + " ".join(f"{k}={info[k]}" for k in
                                     ("workload", "seed", "seconds", "trace", "git_rev",
                                      "source_digest", "nproc"))
          + f" window_cpu_steal_s={steal:.2f}")
    print("# server flags: uxsm " + " ".join(Server.ARGS)
          + " (UXSM_JOBS, UXSM_PAR_THRESHOLD, UXSM_LOCK_WITNESS cleared)")

    e2e = {}
    shown = []

    def show(name, value, unit, note=""):
        shown.append(f"{name:<18} {value:>12.4f} {unit:<9} {note}".rstrip())

    e2e["setup_s"] = statistics.median(setups)
    show("setup_s", e2e["setup_s"], "s",
         f"median of {len(setups)} start-ups: " + ", ".join(f"{s:.3f}" for s in setups))
    e2e["throughput_rps"] = throughput
    show("throughput_rps", throughput, "req/s",
         f"{completed} replies in {span_s:.3f} s, {CONNECTIONS} connections, closed loop; "
         "per segment: " + ", ".join(f"{r:.1f}" for r in seg_rps))
    for kind, ps in (("query", (0.5, 0.9, 0.99)), ("mappings", (0.5,)),
                     ("update", (0.5, 0.9)), ("ping", (0.5,))):
        vals = lat.get(kind, [])
        for p in ps:
            name = f"{kind}_p{round(p * 100)}_ms"
            if not vals:
                if name in END_TO_END:
                    raise BenchError(f"no {kind} samples for {name}")
                continue
            v, beyond = percentile(vals, p)
            note = f"n={len(vals)}, {beyond} beyond"
            if name in END_TO_END:
                e2e[name] = v
                if beyond < 10:
                    note += " (fewer than 10 beyond; kept because it is gated)"
            elif beyond < 10:
                shown.append(f"{name:<18} {'n/a':>12} {'ms':<9} {note} (fewer than 10 beyond)")
                continue
            show(name, v, "ms", note)
    e2e["server_rss_mb"] = statistics.median(rss)
    show("server_rss_mb", e2e["server_rss_mb"], "MB",
         f"median over {len(rss)} servers of VmHWM after the window: "
         + ", ".join(f"{r:.1f}" for r in rss))
    n_upd = len(lat.get("update", []))
    if n_upd:
        shown.append(f"{'update_share':<18} {n_upd / max(1, len(records)):>12.4f} "
                     f"{'fraction':<9} {n_upd} of {len(records)} window ops")
    shown.append(f"{'error_ratio':<18} {failed / max(1, attempted):>12.4f} {'fraction':<9} "
                 f"{failed} of {attempted} ops failed"
                 + (": " + "; ".join(f"{k} x{v}" for k, v in sorted(failures.items()))
                    if failures else ""))

    if not args.trace:
        for s in shown:
            print(s)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        seg = segments[0]
        layer = traced(args, seg["warmup"], records, seg["before"], seg["after"], seg["pings"])
        for s in shown:
            print("# " + s)
        metrics = {}
        for name, (value, unit, note) in layer.items():
            print(f"{name:<38} {value:>12.4f} {unit:<7} {note}".rstrip())
            metrics[name] = {"value": value, "unit": unit}

    info["metrics"] = metrics
    with open(os.path.join(STATE_DIR, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as f:
        json.dump(info, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# ----------------------------------------------------------------------
# Traced run


def traced(args, warmup, records, before, after, pings):
    """Per-layer metrics: server-side counters from the live window, plus
    the in-process traced replay of the same requests."""
    replay = [{"phase": "warmup", "line": line_of(b, 0)} for b in warmup]
    window = records[:TRACE_REPLAY_CAP]
    replay += [{"phase": "window", "line": line_of(r["body"], 0)} for r in window]
    req_path = os.path.join(STATE_DIR, f"replay-{args.workload}-{args.seed}.jsonl")
    with open(req_path, "w") as f:
        for e in replay:
            f.write(json.dumps(e) + "\n")
    spans_path = os.path.join(STATE_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    r = subprocess.run([TRACER, "--requests", req_path, "--spans", spans_path],
                       capture_output=True, text=True, env=clean_env(), timeout=170)
    if r.returncode != 0:
        raise BenchError("tracer failed:\n" + r.stderr[-4000:])
    tr = json.loads(r.stdout.strip().splitlines()[-1])

    out = {}

    def put(name, value, unit, note=""):
        out[name] = (float(value), unit, note)

    client_ms = [(x["t_recv"] - x["t_send"]) * 1000.0 for x in window if "t_recv" in x]
    mean_client = statistics.fmean(client_ms)
    dispatch = tr["server.dispatch_ms"]
    put("server.outside_dispatch_ms", mean_client - dispatch, "ms",
        f"mean client latency {mean_client:.3f} ms - in-process dispatch {dispatch:.3f} ms, "
        f"same {len(client_ms)} requests")
    put("server.dispatch_ms", dispatch, "ms", "traced in-process cost per window request")
    put("server.ping_rtt_ms", statistics.median(pings) * 1000.0, "ms",
        f"median of {len(pings)} pings on the idle server")
    a = json.loads(after)
    ctr = a.get("counters", {})
    reqs = max(1, ctr.get("server.requests", 0))
    put("server.batches_per_request", ctr.get("server.batches", 0) / reqs, "ratio",
        f"{ctr.get('server.batches', 0)} batches / {reqs} requests")
    qd = a.get("histograms", {}).get("server.queue_depth", {})
    put("server.queue_depth_p50", qd.get("p50", 0.0), "count",
        f"server histogram, n={qd.get('count', 0)}")
    b = json.loads(before)
    hits = a["cache"]["hits"] - b["cache"]["hits"]
    misses = a["cache"]["misses"] - b["cache"]["misses"]
    evictions = a["cache"]["evictions"] - b["cache"]["evictions"]
    put("catalog.hit_ratio", hits / max(1, hits + misses), "ratio",
        f"{hits} hits / {hits + misses} lookups in the window")
    put("catalog.evictions_per_1k", evictions * 1000.0 / max(1, len(records)), "count",
        f"{evictions} evictions / {len(records)} window requests")
    for name, m in tr["metrics"].items():
        put(name, m["value"], m["unit"], m.get("note", ""))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-reference", action="store_true",
                    help="self-test only: corrupt one reference reply")
    args = ap.parse_args()
    try:
        run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)


if __name__ == "__main__":
    main()
