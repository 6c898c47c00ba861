"""The ``serve-point`` workload.

One generator process (this one, one asyncio thread) drives a
``python -m repro serve`` subprocess over at most two keep-alive
connections.  Every response body is compared with the body the same
query produces in-process through ``evaluate_points_batched`` /
``evaluate_grid`` and ``json_response``.  Open-loop latencies are timed
from when each request was due, and the generator's own lateness is
kept so a run whose generator fell behind is refused.

A traced run adds a grid phase after the measured ones: Monte Carlo
``/v1/grid`` tiles closed loop on one connection beside an open-loop
point stream on the other, which gives the grid layers' figures and
the point latency while the grid thread holds the GIL.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import BenchFailure, median, percentile

BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0
GRIDS = ("us", "coal", "solar", "taiwan")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def point_corpus(rng: random.Random, n: int) -> List[bytes]:
    """``n`` seeded ``/v1/tcdp`` bodies."""
    corpus = []
    for _ in range(n):
        payload: Dict[str, Any] = {
            "grid": rng.choice(GRIDS),
            "lifetime_months": round(rng.uniform(1.0, 48.0), 6),
            "ci_use_scale": round(rng.uniform(0.2, 4.0), 6),
            "emb_scale": round(rng.uniform(0.0, 3.0), 6),
            "op_scale": round(rng.uniform(0.0, 3.0), 6),
        }
        if rng.random() < 0.3:
            payload["candidate_yield"] = round(rng.uniform(0.05, 0.95), 6)
        corpus.append(json.dumps(payload, separators=(",", ":")).encode())
    return corpus


def grid_sequence(
    rng: random.Random, n: int, repeat_share: float, mc_samples: int
) -> Tuple[List[bytes], List[bool]]:
    """``n`` seeded ``/v1/grid`` bodies on the default 40 x 40 tile; a
    ``repeat_share`` of them repeat an earlier body, so the server's
    sweep cache gets planned hits.  Returns the bodies and, per
    position, whether it repeats.  Every tile has the same shape, so
    each run allocates the same arrays and peak memory is comparable."""
    bodies: List[bytes] = []
    repeats: List[bool] = []
    for i in range(n):
        if i > 0 and rng.random() < repeat_share:
            bodies.append(bodies[rng.randrange(i)])
            repeats.append(True)
            continue
        payload = {
            "grid": rng.choice(GRIDS),
            "lifetime_months": round(rng.uniform(6.0, 36.0), 6),
            "ci_use_scale": round(rng.uniform(0.5, 2.0), 6),
            "mc_samples": mc_samples,
            "mc_seed": rng.randrange(1 << 30),
        }
        bodies.append(json.dumps(payload, separators=(",", ":")).encode())
        repeats.append(False)
    return bodies, repeats


def post(target: str, body: bytes) -> bytes:
    return (
        f"POST {target} HTTP/1.1\r\nhost: perfbench\r\n"
        f"content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


# ---------------------------------------------------------------------------
# Reference answers, computed in-process
# ---------------------------------------------------------------------------
class Reference:
    """The body each query must produce, from the in-process model."""

    def __init__(self) -> None:
        from repro.serve.model import ModelContext

        self.context = ModelContext(sweep_cache=None)

    @staticmethod
    def _body(payload: Dict[str, Any]) -> bytes:
        from repro.serve.http import json_response

        return json_response(200, payload).split(b"\r\n\r\n", 1)[1]

    def points(self, bodies: Sequence[bytes]) -> List[bytes]:
        from repro.serve.model import PointQuery, evaluate_points_batched

        queries = [PointQuery.from_payload(json.loads(b)) for b in bodies]
        out: List[bytes] = []
        for i in range(0, len(queries), 128):
            results = evaluate_points_batched(self.context, queries[i : i + 128])
            out.extend(self._body(r) for r in results)
        return out

    def grid(self, body: bytes) -> bytes:
        from repro.serve.model import GridQuery, evaluate_grid

        query = GridQuery.from_payload(json.loads(body))
        return self._body(evaluate_grid(self.context, query))


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` with its own empty cache directory."""

    def __init__(self, root: Path, workdir: Path, name: str) -> None:
        cache_dir = workdir / f"cache-{name}"
        cache_dir.mkdir()
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(root / "src"),
            REPRO_CACHE_DIR=str(cache_dir),
            TMPDIR=str(workdir),
        )
        self._stderr = open(workdir / f"server-{name}.err", "wb")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=str(workdir),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.setup_s = time.monotonic() - spawned
        if "listening on http://" not in line:
            self.kill()
            raise BenchFailure(f"server did not announce (got {line!r})")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        # One answered request proves the serve loop, and with it the
        # SIGTERM drain handler, is installed; a SIGTERM that arrives
        # between the announce line and that point kills the server.
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=BOOT_TIMEOUT_S)
        try:
            conn.request("GET", "/healthz")
            status = conn.getresponse().status
        except (OSError, http.client.HTTPException) as exc:
            status = repr(exc)
        finally:
            conn.close()
        if status != 200:
            self.kill()
            raise BenchFailure(f"server is not healthy after boot: {status}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchFailure("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM and wait; a drain that does not exit 0 fails the run."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchFailure("server did not drain after SIGTERM")
        finally:
            self._close()
        if code != 0:
            raise BenchFailure(f"server exited {code} after SIGTERM")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------
class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def exchange(self, raw: bytes) -> Tuple[int, bytes]:
        self.writer.write(raw)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head[:-4].split(b"\r\n")
        status = int(lines[0].split(b" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def get_json(self, target: str) -> Dict[str, Any]:
        status, body = await self.exchange(
            f"GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n".encode("ascii")
        )
        if status != 200:
            raise BenchFailure(f"GET {target} -> {status}")
        return json.loads(body)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Tally:
    """What one stream of requests observed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies_s: List[float] = []  # from due time (open loop)
        self.wire_s: List[float] = []  # from send time
        self.lags_s: List[float] = []  # generator lateness
        self.completed_at: List[float] = []
        self.ok: List[bool] = []
        self.sent: List[int] = []  # corpus indices, in completion order
        self.wrong: List[int] = []

    def record(
        self,
        index: int,
        status: int,
        body: bytes,
        expected: Optional[bytes],
        due: float,
        sent: float,
        done: float,
    ) -> None:
        self.attempted += 1
        self.sent.append(index)
        self.latencies_s.append(done - due)
        self.wire_s.append(done - sent)
        self.completed_at.append(done)
        self.ok.append(status == 200)
        if status != 200:
            self.failed += 1
        elif expected is not None and body != expected:
            self.wrong.append(index)


async def closed_loop(
    conns: Sequence[Connection],
    target: str,
    bodies: Sequence[bytes],
    expected: Callable[[int], Optional[bytes]],
    until: float,
    tally: Tally,
    keep: Optional[Dict[int, bytes]] = None,
    cycle: bool = True,
) -> None:
    """Each connection sends the next body as soon as its last reply
    arrived, until the monotonic deadline ``until``.  With ``cycle`` the
    corpus is reused from the start when it runs out."""
    counter = iter(range(sys.maxsize))

    async def client(conn: Connection) -> None:
        while time.monotonic() < until:
            index = next(counter)
            if index >= len(bodies):
                if not cycle:
                    raise BenchFailure(f"{target}: corpus of {len(bodies)} exhausted")
                index %= len(bodies)
            sent = time.monotonic()
            status, body = await conn.exchange(post(target, bodies[index]))
            done = time.monotonic()
            tally.record(index, status, body, expected(index), sent, sent, done)
            if keep is not None:
                keep[index] = body

    await asyncio.gather(*(client(c) for c in conns))


async def open_loop(
    conns: Sequence[Connection],
    target: str,
    bodies: Sequence[bytes],
    expected: Callable[[int], Optional[bytes]],
    rate_qps: float,
    rng: random.Random,
    until: float,
    tally: Tally,
) -> None:
    """Poisson arrivals at ``rate_qps``; an arrival that finds every
    connection busy waits for one, and that wait is part of its
    latency, which runs from the due time."""
    pool: "asyncio.Queue[Connection]" = asyncio.Queue()
    for conn in conns:
        pool.put_nowait(conn)
    loop = asyncio.get_running_loop()
    tasks = []

    async def one(index: int, due: float) -> None:
        conn = await pool.get()
        try:
            sent = time.monotonic()
            status, body = await conn.exchange(post(target, bodies[index]))
            tally.record(
                index, status, body, expected(index), due, sent, time.monotonic()
            )
        finally:
            pool.put_nowait(conn)

    due = time.monotonic()
    index = 0
    while True:
        due += rng.expovariate(rate_qps)
        if due >= until:
            break
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tally.lags_s.append(max(0.0, time.monotonic() - due))
        tasks.append(loop.create_task(one(index % len(bodies), due)))
        index += 1
    await asyncio.gather(*tasks)


# ---------------------------------------------------------------------------
# Replay: time the layers a point request passes through, in-process
# ---------------------------------------------------------------------------
def replay_point_layers(
    raw_requests: Sequence[bytes], batch_size: int, repeats: int = 3
) -> Dict[str, float]:
    """Mean microseconds per request in ``read_request`` (parse),
    ``json_body`` + ``PointQuery.from_payload`` (validate) and
    ``json_response`` (encode), and per batch call of
    ``evaluate_points_batched`` at ``batch_size``.  Each figure is the
    fastest of ``repeats`` passes over all requests."""
    from repro.serve.http import json_response, read_request
    from repro.serve.model import ModelContext, PointQuery, evaluate_points_batched

    context = ModelContext(sweep_cache=None)
    context.warm()

    async def parse_all() -> list:
        requests = []
        for raw in raw_requests:
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            requests.append(await read_request(reader))
        return requests

    def fastest(fn: Callable[[], Any]) -> Tuple[float, Any]:
        best, out = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - start)
        return best, out

    n = len(raw_requests)
    parse_s, requests = fastest(lambda: asyncio.run(parse_all()))
    validate_s, queries = fastest(
        lambda: [PointQuery.from_payload(r.json_body()) for r in requests]
    )
    batches = [queries[i : i + batch_size] for i in range(0, n, batch_size)]
    evaluate_s, results = fastest(
        lambda: [r for b in batches for r in evaluate_points_batched(context, b)]
    )
    encode_s, _ = fastest(lambda: [json_response(200, r) for r in results])
    return {
        "parse_us": parse_s / n * 1e6,
        "validate_us": validate_s / n * 1e6,
        "evaluate_us": evaluate_s / len(batches) * 1e6,
        "encode_us": encode_s / n * 1e6,
    }


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------
def _boot(root: Path, workdir: Path, boots: int) -> Tuple[ServerProcess, List[float]]:
    """Boot ``boots`` servers one after another; every boot is timed,
    all but the last are drained, and the last one is returned."""
    setups = []
    server = None
    for i in range(boots):
        if server is not None:
            server.stop()
        server = ServerProcess(root, workdir, f"boot{i}")
        setups.append(server.setup_s)
    assert server is not None
    return server, setups


def _counter_delta(before: Dict[str, Any], after: Dict[str, Any], name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _server_point_latency_ms(flight: Dict[str, Any]) -> Tuple[float, int]:
    """Mean server-side latency of the point queries in the flight
    recorder's ring of recent requests."""
    latencies = [
        e["latency_ms"]
        for e in flight["recent"]
        if e["target"] == "/v1/tcdp" and e["status"] == 200
    ]
    if not latencies:
        raise BenchFailure("no point queries in the flight recorder")
    return sum(latencies) / len(latencies), len(latencies)


def _quota_walls(completed_at: Sequence[float], start: float, quota: int) -> List[float]:
    """Wall time of each consecutive block of ``quota`` completions."""
    walls = []
    previous = start
    for i in range(quota - 1, len(completed_at), quota):
        walls.append(completed_at[i] - previous)
        previous = completed_at[i]
    return walls


def run_serve(
    root: Path, workdir: Path, spec: Dict[str, Any], seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Run ``serve-point``; a traced run adds the grid phase."""
    rng = random.Random(seed)
    points = point_corpus(rng, spec["point_corpus"])
    grid_bodies, grid_repeats = grid_sequence(
        rng, spec["grid_corpus"], spec["grid_repeat_share"], spec["mc_samples"]
    )
    reference = Reference()
    point_refs = reference.points(points)

    server, setups = _boot(root, workdir, spec["boots"])
    try:
        out = asyncio.run(
            _drive(server, spec, rng, seconds, points, point_refs, grid_bodies, trace)
        )
        out["peak_rss_mb"] = server.peak_rss_mb()
    except (OSError, asyncio.IncompleteReadError) as exc:
        server.kill()
        raise BenchFailure(f"connection to the server failed: {exc!r}")
    except BaseException:
        server.kill()
        raise
    server.stop()

    point: Tally = out["point_tally"]
    closed: Tally = out["closed_tally"]
    tallies = [out["warm_tally"], point, closed]
    grid_eval_s: List[float] = []
    mc_clock = None
    if trace:
        tallies += [out["grid_tally"], out["beside_grid_tally"]]
        grid_eval_s, mc_clock = _check_grids(out, grid_bodies, grid_repeats, reference)
    wrong = sum(len(t.wrong) for t in tallies)
    if wrong:
        raise BenchFailure(f"{wrong} response bodies differ from the in-process model")
    # The generator fell behind when its own lateness alone would have
    # missed the latency limit for more than 1% of the open-loop stream;
    # shorter stalls stay in the latencies, which run from the due time.
    lag_p99_ms = percentile(point.lags_s, 0.99) * 1e3
    if lag_p99_ms > spec["latency_limit_ms"]:
        raise BenchFailure(
            f"generator fell behind: lag p99 {lag_p99_ms:.2f} ms > "
            f"{spec['latency_limit_ms']} ms; the run is invalid"
        )

    limit_s = spec["latency_limit_ms"] / 1e3
    good = sum(
        1 for lat, ok in zip(point.latencies_s, point.ok) if ok and lat <= limit_s
    )
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    walls = _quota_walls(closed.completed_at, out["closed_start"], spec["quota"])
    if not walls:
        raise BenchFailure("closed loop completed less than one quota")

    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "peak_rss_mb": out["peak_rss_mb"],
            "throughput_qps": closed.attempted / out["closed_elapsed"],
            "latency_p50_ms": percentile(point.latencies_s, 0.50) * 1e3,
            "goodput_share": good / point.attempted,
            "success_share": (attempted - failed) / attempted,
        },
        "notes": {
            "open_loop_samples": point.attempted,
            "closed_loop_samples": closed.attempted,
            "generator_lag_p99_ms": lag_p99_ms,
            "latency_p95_ms": percentile(point.latencies_s, 0.95) * 1e3,
            "latency_p99_ms": percentile(point.latencies_s, 0.99) * 1e3,
        },
    }
    if trace:
        result["layers"] = _serve_layers(
            out, points, grid_eval_s, mc_clock, spec["mc_samples"], lag_p99_ms
        )
    return result


def _check_grids(
    out: Dict[str, Any],
    grid_bodies: Sequence[bytes],
    grid_repeats: Sequence[bool],
    reference: Reference,
) -> Tuple[List[float], Any]:
    """Check every grid answer and the sweep cache's hit count against
    the corpus's planned repeats; returns the in-process evaluation
    time of each distinct query and the clock around the Monte Carlo.
    Runs after the load, so it does not compete with the server."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro.serve.model as model
    from layers import LayerClock

    mc_clock = LayerClock()
    mc_clock.wrap(model, "monte_carlo_win_probability", "mc")
    grids: Tally = out["grid_tally"]
    answers: Dict[bytes, bytes] = {}
    eval_s: List[float] = []
    for index, body in sorted(out["grid_keep"].items()):
        query = grid_bodies[index]
        if query not in answers:
            start = time.perf_counter()
            answers[query] = reference.grid(query)
            eval_s.append(time.perf_counter() - start)
        if body != answers[query]:
            grids.wrong.append(index)
    repeats = sum(grid_repeats[i] for i in grids.sent)
    hits, misses = out["sweep_hits"], out["sweep_misses"]
    if hits != repeats or misses != len(grids.sent) - repeats:
        raise BenchFailure(
            f"sweep cache saw {hits} hits / {misses} misses; the corpus "
            f"planned {repeats} repeats of {len(grids.sent)} queries"
        )
    return eval_s, mc_clock


async def _drive(
    server: ServerProcess,
    spec: Dict[str, Any],
    rng: random.Random,
    seconds: float,
    points: Sequence[bytes],
    point_refs: Sequence[bytes],
    grid_bodies: Sequence[bytes],
    trace: bool,
) -> Dict[str, Any]:
    """The load phases against one booted server."""
    conns = [await Connection.open(server.port) for _ in range(spec["connections"])]
    out: Dict[str, Any] = {"grid_keep": {}}
    expect_point = point_refs.__getitem__
    try:
        warm = Tally()
        await closed_loop(
            conns, "/v1/tcdp", points, expect_point,
            time.monotonic() + spec["warmup_s"], warm,
        )
        closed = Tally()
        start = time.monotonic()
        await closed_loop(
            conns, "/v1/tcdp", points, expect_point,
            start + seconds * spec["capacity_share"], closed,
        )
        point = Tally()
        before = await conns[0].get_json("/metricz")
        await open_loop(
            conns, "/v1/tcdp", points, expect_point, spec["point_rate_qps"],
            rng, start + seconds, point,
        )
        after = await conns[0].get_json("/metricz")
        out["flight"] = await conns[0].get_json("/debugz")
        if trace:
            # Grid phase: Monte Carlo tiles closed loop on one connection
            # beside an open-loop point stream on the other.
            grids, beside = Tally(), Tally()
            grid_before = after
            grid_start = time.monotonic()
            until = grid_start + spec["grid_phase_s"]
            await asyncio.gather(
                closed_loop(
                    conns[:1], "/v1/grid", grid_bodies, lambda i: None, until,
                    grids, keep=out["grid_keep"], cycle=False,
                ),
                open_loop(
                    conns[1:], "/v1/tcdp", points, expect_point,
                    spec["grid_phase_point_rate_qps"], rng, until, beside,
                ),
            )
            grid_after = await conns[0].get_json("/metricz")
            out.update(
                grid_tally=grids, beside_grid_tally=beside,
                grid_elapsed=grids.completed_at[-1] - grid_start,
                sweep_hits=_counter_delta(grid_before, grid_after, "cache.sweep.hits"),
                sweep_misses=_counter_delta(grid_before, grid_after, "cache.sweep.misses"),
            )
    finally:
        for conn in conns:
            await conn.close()
    out.update(
        warm_tally=warm, closed_tally=closed, point_tally=point,
        closed_start=start, closed_elapsed=closed.completed_at[-1] - start,
        metricz=(before, after),
    )
    return out


def _serve_layers(
    out: Dict[str, Any],
    points: Sequence[bytes],
    grid_eval_s: Sequence[float],
    mc_clock: Any,
    mc_samples: int,
    lag_p99_ms: float,
) -> Dict[str, float]:
    """Per-layer figures of a traced run."""
    before, after = out["metricz"]
    point: Tally = out["point_tally"]
    batches = _counter_delta(before, after, "serve.batch.count")
    occupancy = _counter_delta(before, after, "serve.batch.queries") / batches
    start = time.perf_counter()
    replay = replay_point_layers(
        [post("/v1/tcdp", points[i]) for i in point.sent], max(1, round(occupancy))
    )
    replay_s = time.perf_counter() - start
    server_ms, ring = _server_point_latency_ms(out["flight"])
    wire_ms = sum(point.wire_s[-ring:]) / ring * 1e3
    busy_ms = (
        replay["parse_us"] + replay["validate_us"] + replay["evaluate_us"]
        + replay["encode_us"]
    ) / 1e3
    hits, misses = out["sweep_hits"], out["sweep_misses"]
    beside: Tally = out["beside_grid_tally"]
    return {
        "serve.http.parse_us": replay["parse_us"],
        "serve.model.validate_us": replay["validate_us"],
        "serve.model.evaluate_us": replay["evaluate_us"],
        "serve.http.encode_us": replay["encode_us"],
        "serve.batcher.occupancy_mean": occupancy,
        "serve.batcher.batches": batches,
        "serve.server_latency_ms": server_ms,
        "serve.queue_wait_ms": server_ms - busy_ms,
        "serve.transport_ms": wire_ms - server_ms,
        "serve.errors": sum(
            _counter_delta(before, after, name)
            for name in ("serve.errors.protocol", "serve.errors.internal", "serve.shed.total")
        ),
        "serve.latency_p95_ms": percentile(point.latencies_s, 0.95) * 1e3,
        "serve.latency_p99_ms": percentile(point.latencies_s, 0.99) * 1e3,
        "loadgen.lag_p99_ms": lag_p99_ms,
        "serve.grid.qps": out["grid_tally"].attempted / out["grid_elapsed"],
        "serve.grid.point_latency_p50_ms": percentile(beside.latencies_s, 0.50) * 1e3,
        "serve.grid.point_latency_p95_ms": percentile(beside.latencies_s, 0.95) * 1e3,
        "serve.model.grid_evaluate_ms": median(grid_eval_s) * 1e3,
        "core.uncertainty.mc_samples_per_s": (
            mc_samples * len(grid_eval_s) / mc_clock.busy_s("mc")
        ),
        "runtime.cache.sweep_hits": hits,
        "runtime.cache.sweep_misses": misses,
        "runtime.cache.sweep_hit_ratio": hits / (hits + misses),
        "trace.overhead_s": replay_s,
    }
