//! The serving loop: bounded accept queue, fixed worker pool,
//! structured request logs, clean shutdown.
//!
//! Idle workers block in `accept` themselves, then parse, route and
//! respond, so a request reaches a worker without a hand-off. While
//! every worker is busy, one acceptor thread takes over `accept`: it
//! queues up to `queue_depth` connections, each with its accept instant
//! (latency and deadlines run from there), and beyond that answers 503
//! `queue_full` inline — load sheds at the front door instead of
//! queueing unboundedly. A worker drains the queue before it turns idle.
//! Shutdown (`POST /admin/shutdown` or [`ServerHandle::stop`]) sets a
//! flag and self-connects to wake a blocked `accept`; each thread that
//! wakes to the flag passes the wake-up on, and every thread is joined.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use webtable_core::wire::Json;

use crate::http::{read_request, write_response};
use crate::metrics::Endpoint;
use crate::router::{endpoint_of, err_response, handle, Routed};
use crate::state::AppState;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted-but-unserviced connection bound; beyond it new
    /// connections get an immediate 503.
    pub queue_depth: usize,
    /// Whether to emit one JSON log line per request to stderr.
    pub log_requests: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { workers: 4, queue_depth: 64, log_requests: true }
    }
}

/// Connections the acceptor queued while every worker was busy, and
/// the number of idle workers (each blocked in `accept` itself).
#[derive(Debug, Default)]
struct Pending {
    conns: VecDeque<(TcpStream, Instant)>,
    idle: usize,
}

#[derive(Debug, Default)]
struct Queue {
    pending: Mutex<Pending>,
    /// Wakes the acceptor: the last idle worker turned busy, or one exited.
    all_busy: Condvar,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`stop`](ServerHandle::stop) (or POST `/admin/shutdown`).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect metrics and swap directly).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Requests shutdown and joins every thread. Idempotent with an
    /// `/admin/shutdown` that already set the flag.
    pub fn stop(self) {
        request_shutdown(&self.state, self.addr);
        self.wait();
    }

    /// Blocks until shutdown has been requested, joining every thread.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Sets the shutdown flag and wakes a thread out of `accept`.
fn request_shutdown(state: &AppState, addr: SocketAddr) {
    state.shutdown.store(true, Ordering::Release);
    wake_accept(addr);
}

/// Wakes one thread blocked in `accept` on `addr` with an empty
/// connection, through loopback when `addr` is unspecified.
fn wake_accept(mut addr: SocketAddr) {
    match &mut addr {
        SocketAddr::V4(a) if a.ip().is_unspecified() => a.set_ip(Ipv4Addr::LOCALHOST),
        SocketAddr::V6(a) if a.ip().is_unspecified() => a.set_ip(Ipv6Addr::LOCALHOST),
        _ => {}
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Binds `addr` and starts the accept + worker threads.
pub fn serve(
    addr: &str,
    state: Arc<AppState>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let workers = config.workers.max(1);
    let queue = Arc::new(Queue::default());
    queue.lock().idle = workers;
    let mut threads = Vec::with_capacity(workers + 1);
    for _ in 0..workers {
        let (l, st, q, log) =
            (listener.try_clone()?, Arc::clone(&state), Arc::clone(&queue), config.log_requests);
        threads.push(std::thread::spawn(move || worker_loop(&l, &st, &q, log)));
    }
    let (st, q, depth) = (Arc::clone(&state), Arc::clone(&queue), config.queue_depth.max(1));
    threads.push(std::thread::spawn(move || accept_loop(&listener, &st, &q, depth)));
    Ok(ServerHandle { addr: local, state, threads })
}

/// Accepts only while every worker is busy: queues up to `depth`
/// connections for the workers and answers 503 `queue_full` beyond.
fn accept_loop(listener: &TcpListener, state: &AppState, queue: &Queue, depth: usize) {
    let shutting_down = || state.shutdown.load(Ordering::Acquire);
    loop {
        drop(queue.all_busy.wait_while(queue.lock(), |p| p.idle > 0 && !shutting_down()));
        if shutting_down() {
            return;
        }
        let accepted = listener.accept().map(|(conn, _)| (conn, Instant::now()));
        if shutting_down() {
            let _ = listener.local_addr().map(wake_accept); // pass the wake-up on
            return;
        }
        let Ok((mut conn, ingress)) = accepted else {
            // A real accept error (EMFILE, ...): back off, don't spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let mut pending = queue.lock();
        if pending.conns.len() >= depth {
            drop(pending);
            state.metrics.queue_rejections.fetch_add(1, Ordering::Relaxed);
            let full = err_response(503, "queue_full", "accept queue is full; retry");
            write_response(&mut conn, &full);
        } else {
            let idle = pending.idle > 0;
            pending.conns.push_back((conn, ingress));
            drop(pending);
            // A worker turned idle while this accept was pending; it waits
            // in `accept`, so an empty connection sends it to the queue.
            if idle {
                let _ = listener.local_addr().map(wake_accept);
            }
        }
    }
}

/// Idle workers accept connections themselves, so a request reaches a
/// worker without a hand-off; a busy worker drains the queue before it
/// turns idle again.
fn worker_loop(listener: &TcpListener, state: &AppState, queue: &Queue, log: bool) {
    loop {
        let accepted = listener.accept();
        let ingress = Instant::now();
        let mut pending = queue.lock();
        pending.idle -= 1;
        let shutting_down = state.shutdown.load(Ordering::Acquire);
        if pending.idle == 0 || shutting_down {
            queue.all_busy.notify_one();
        }
        drop(pending);
        if shutting_down {
            let _ = listener.local_addr().map(wake_accept); // pass the wake-up on
            return;
        }
        match accepted {
            Ok((mut conn, _)) => serve_connection(state, &mut conn, ingress, log),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        drain(state, queue, log);
    }
}

/// Serves queued connections until none is left, then counts the
/// caller as idle under the same lock, so the acceptor never queues
/// behind a worker that has already looked.
fn drain(state: &AppState, queue: &Queue, log: bool) {
    loop {
        let mut pending = queue.lock();
        let Some((mut conn, ingress)) = pending.conns.pop_front() else {
            pending.idle += 1;
            return;
        };
        drop(pending);
        serve_connection(state, &mut conn, ingress, log);
    }
}

/// Runs the router under `catch_unwind` so a panicking handler costs
/// one 500 response, not a worker thread. The pool never shrinks: the
/// worker that caught the panic loops straight back to the queue.
fn route_isolated(state: &AppState, req: &crate::http::Request, ingress: Instant) -> Routed {
    match catch_unwind(AssertUnwindSafe(|| handle(state, req, ingress))) {
        Ok(routed) => routed,
        Err(_) => {
            state.metrics.panics.fetch_add(1, Ordering::Relaxed);
            err_response(500, "internal", "request handler panicked").into()
        }
    }
}

/// Reads, routes, responds, records, logs — one connection, one
/// request (`Connection: close`). `ingress` is the accept instant.
fn serve_connection(state: &AppState, conn: &mut TcpStream, ingress: Instant, log: bool) {
    // A stalled peer must not pin a worker: bound both directions.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
    let (endpoint, method, path, routed) = match read_request(conn) {
        Ok(Some(req)) => {
            let routed = route_isolated(state, &req, ingress);
            (endpoint_of(&req.path), req.method, req.path, routed)
        }
        Ok(None) => return, // peer connected and left; nothing to answer
        Err(e) => (
            Endpoint::Other,
            String::from("-"),
            String::from("-"),
            err_response(e.status, e.code, &e.message).into(),
        ),
    };
    let Routed { response, query_kind } = routed;
    let duration_us = ingress.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    state.metrics.record(endpoint, response.status, duration_us);
    if let Some(kind) = query_kind {
        state.metrics.record_query_kind(kind);
    }
    write_response(conn, &response);
    // Reply sent: wake the acceptor so the shutdown proceeds.
    if path == "/admin/shutdown" && state.shutdown.load(Ordering::Acquire) {
        if let Ok(local) = conn.local_addr() {
            request_shutdown(state, local);
        }
    }
    if log {
        eprintln!("{}", log_line(state, &method, &path, query_kind, response.status, duration_us));
    }
}

/// One structured request-log line (sorted keys, stable shape).
/// `query_kind` is present for decoded search requests, `null` elsewhere.
fn log_line(
    state: &AppState,
    method: &str,
    path: &str,
    query_kind: Option<&'static str>,
    status: u16,
    duration_us: u64,
) -> String {
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0);
    Json::Obj(vec![
        ("dur_us".into(), Json::u64(duration_us)),
        ("gen".into(), Json::u64(state.metrics.swap_generation.load(Ordering::Relaxed))),
        ("method".into(), Json::str(method)),
        ("path".into(), Json::str(path)),
        ("query_kind".into(), query_kind.map(Json::str).unwrap_or(Json::Null)),
        ("status".into(), Json::u64(u64::from(status))),
        ("ts_ms".into(), Json::u64(ts_ms)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn queued_connection_reports_its_queue_wait() {
        let dir = std::env::temp_dir().join(format!("webtable-queue-wait-{}", std::process::id()));
        crate::demo::prepare_data_dir(&dir, 11).unwrap();
        let initial = crate::state::load_generation(&dir, 1).unwrap();
        let state = Arc::new(AppState::new(dir.clone(), initial, Duration::from_secs(30)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(b"BOGUS\r\n\r\n").unwrap(); // a parse error: no handler runs
        let queue = Queue::default();
        queue.lock().conns.push_back((listener.accept().unwrap().0, Instant::now()));
        let wait = Duration::from_millis(40);
        std::thread::sleep(wait);
        drain(&state, &queue, false); // serves the queued request, then turns idle
        let stats = state.metrics.to_json(0, 0, 0, Default::default());
        let rows = stats.get("endpoints").and_then(Json::as_arr).unwrap();
        let other = rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("other"));
        let duration_us = other.and_then(|r| r.get("duration_us")).and_then(Json::as_u64).unwrap();
        assert!(u128::from(duration_us) >= wait.as_micros(), "{duration_us} µs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
