"""A closed-loop client for `cqc serve --socket`, and the daemon's life cycle.

The client keeps one request outstanding per connection and reads replies
as they arrive, so it never builds up unread responses the way a
write-everything-then-read client does.  Each request is timed from the
moment it is sent until its last response line.
"""

import json
import os
import resource
import selectors
import signal
import socket
import subprocess
import time

SOCKET_NAME = "d.sock"


def body(c):
    """The request frame without its id (rendered once, at set-up)."""
    if c["op"] == "solve":
        req = {"op": "solve", "source": c["a"].text(), "target": c["b"].text(), "certify": True}
    elif c["op"] == "contain":
        req = {"op": "contain", "q1": c["q1"], "q2": c["q2"], "certify": True}
    else:
        req = {"op": "enumerate", "source": c["a"].text(), "target": c["b"].text(),
               "limit": c["limit"]}
    return json.dumps(req, separators=(",", ":"))


def frame(c, rid):
    return '{"id":%d,%s' % (rid, c["body"][1:])


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Daemon:
    """`cqc serve --socket` with its default (sandboxed) settings, started
    inside the run directory; ready once it answers a ping."""

    def __init__(self, cqc, run_dir, ready_timeout=30.0):
        # Relative to the benchmark's working directory: socket paths are
        # limited to about 100 bytes, and the checkout may sit deep.
        self.socket_path = os.path.relpath(os.path.join(run_dir, SOCKET_NAME))
        self.cpu_before = children_cpu()
        self.log = open(os.path.join(run_dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen([cqc, "serve", "--socket", SOCKET_NAME], cwd=run_dir,
                                     stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)
        self.exit_detail = None
        self.maxrss_kb = 0
        self.resent = 0
        deadline = time.monotonic() + ready_timeout
        while True:
            try:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(self.socket_path)
                break
            except OSError:
                sock.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("cqc serve did not start")
                time.sleep(0.0002)
        with sock:
            sock.sendall(b'{"id":0,"op":"ping"}\n')
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        if b'"ok"' not in reply:
            self.stop()
            raise RuntimeError(f"bad ping reply: {reply!r}")

    def stop(self, timeout=10.0, grace=0.5):
        """Drain with SIGTERM and reap; True when the daemon exited 0.

        The daemon is idle by then and drains in milliseconds.  It has a
        known defect: now and then it records a SIGTERM but stays blocked
        in its accept loop's select.  A repeated SIGTERM interrupts that
        select, so the signal is sent again every `grace` seconds; each
        repeat is counted in `self.resent`.  A daemon that has not exited
        after `timeout` seconds is killed, and the caller counts a failed
        operation."""
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGTERM)
            start = time.monotonic()
            resend = start + grace
            while True:
                pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                now = time.monotonic()
                if now > start + timeout:
                    os.kill(self.proc.pid, signal.SIGKILL)
                    pid, status, ru = os.wait4(self.proc.pid, 0)
                    self.exit_detail = "killed after drain timeout"
                    break
                if now > resend:
                    os.kill(self.proc.pid, signal.SIGTERM)
                    self.resent += 1
                    resend = now + grace
                time.sleep(0.002)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_kb = ru.ru_maxrss
            self.log.close()
        if self.proc.returncode != 0 and self.exit_detail is None:
            self.exit_detail = f"exit code {self.proc.returncode}"
        return self.proc.returncode == 0


def check_response(c, final, answers):
    """(ok, wrong, answers delivered, problem) for one completed request."""
    status = final.get("status")
    if status != "ok":
        return False, False, 0, f"{c['op']}: {status}: {final.get('message', final.get('error'))}"
    if c["op"] == "enumerate":
        want = min(c["limit"], c["expect"])
        distinct = len({tuple(h) for h in answers})
        if (final.get("count") != want or len(answers) != want or distinct != want
                or not all(c["check"](h) for h in answers)):
            return False, True, 0, f"enumerate: {len(answers)} answers, oracle {want}"
        return True, False, want, None
    sat = final.get("verdict") == "sat"
    if final.get("verdict") not in ("sat", "unsat") or sat != c["expect"]:
        return False, True, 0, f"{c['op']}: verdict {final.get('verdict')}, oracle {c['expect']}"
    if final.get("certified") is not True:
        return False, True, 0, f"{c['op']}: not certified"
    if c["op"] == "solve" and sat and not c["check"](final.get("witness", [])):
        return False, True, 0, "solve: witness is not a homomorphism"
    return True, False, int(sat), None


def closed_loop(socket_path, cases, seconds, connections, tally, stall_timeout=60.0):
    """Drive the daemon for `seconds` with `connections` clients, each with
    one request in flight.  Outcomes go to `tally`; returns the wall time
    and the server-reported share of the latency."""
    sel = selectors.DefaultSelector()
    info = {"server_ms": 0.0, "client_ms": 0.0, "hits": 0, "misses": 0}
    state = {}
    next_case = [0]
    next_id = [1]
    start = time.perf_counter()
    deadline = start + seconds

    def send(sock):
        c = cases[next_case[0] % len(cases)]
        next_case[0] += 1
        rid = next_id[0]
        next_id[0] += 1
        st = state[sock]
        st["case"], st["id"], st["answers"] = c, rid, []
        st["t0"] = time.perf_counter()
        sock.sendall((frame(c, rid) + "\n").encode())

    def complete(sock, final):
        st = state[sock]
        latency = time.perf_counter() - st["t0"]
        ok, wrong, delivered, problem = check_response(st["case"], final, st["answers"])
        tally.record(latency, ok, wrong=wrong, answers=delivered, problem=problem)
        if ok:
            info["server_ms"] += float(final.get("elapsed_ms", 0.0))
            info["client_ms"] += 1e3 * latency
            cache = final.get("cache")
            info["hits"] += cache == "hit"
            info["misses"] += cache == "miss"
        st["case"] = None
        if time.perf_counter() < deadline:
            send(sock)

    for _ in range(connections):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(socket_path)
        state[sock] = {"buf": b"", "case": None}
        sel.register(sock, selectors.EVENT_READ)
        send(sock)
    while any(st["case"] is not None for st in state.values()):
        events = sel.select(timeout=stall_timeout)
        if not events:
            for st in state.values():
                if st["case"] is not None:
                    tally.record(0.0, False, problem="no response within the stall timeout")
                    st["case"] = None
            break
        for key, _ in events:
            sock = key.fileobj
            st = state[sock]
            data = sock.recv(1 << 16)
            if not data:
                tally.record(0.0, False, problem="daemon closed the connection")
                st["case"] = None
                sel.unregister(sock)
                continue
            lines = (st["buf"] + data).split(b"\n")
            st["buf"] = lines.pop()
            for line in lines:
                resp = json.loads(line)
                if resp.get("id") != st["id"]:
                    tally.record(0.0, False, wrong=True, problem=f"response for id {resp.get('id')}")
                    continue
                if resp.get("frame") == "answers":
                    st["answers"].extend(resp["answers"])
                else:
                    complete(sock, resp)
    wall = time.perf_counter() - start
    for sock in state:
        sock.close()
    sel.close()
    info["wall_s"] = wall
    return info
