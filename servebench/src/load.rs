//! The load harness: an open loop that times every request from when it
//! was *due*, and a closed loop for capacity. Both keep every attempt —
//! failed exchanges are recorded with their outcome instead of being
//! dropped, so failures count against attempts and against latency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one exchange produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// An HTTP response: status and body.
    Response(u16, String),
    /// No response: connect refused, reset, timeout, malformed reply.
    IoError(String),
}

impl Outcome {
    /// True for a 2xx response.
    pub fn is_2xx(&self) -> bool {
        matches!(self, Outcome::Response(s, _) if (200..300).contains(s))
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request within its phase.
    pub idx: usize,
    /// When the request was due (the send time in a closed loop).
    pub due: Instant,
    /// When the sender actually started it.
    pub sent: Instant,
    /// When the exchange finished.
    pub done: Instant,
    /// What came back.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the due time — what a user arriving on schedule saw.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// Time from send to response.
    pub fn service(&self) -> Duration {
        self.done.saturating_duration_since(self.sent)
    }

    /// How late the generator started this request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Open loop: request `k` of `n` is due at `start + k / rate`, whatever
/// happened to earlier requests. `senders` threads claim requests in
/// due order; a sender that is still busy when its next request falls
/// due sends it late, and that lateness is part of the request's
/// latency. Samples come back in request order. An infinite rate makes
/// every request due at `start`: `n` requests sent back to back.
pub fn open_loop<F>(n: usize, rate: f64, senders: usize, start: Instant, send: F) -> Vec<Sample>
where
    F: Fn(usize) -> Outcome + Sync,
{
    assert!(rate > 0.0, "open loop needs a positive rate");
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let due = if rate.is_finite() {
                        start + Duration::from_secs_f64(k as f64 / rate)
                    } else {
                        start
                    };
                    sleep_until(due);
                    let sent = Instant::now();
                    let outcome = send(k);
                    local.push(Sample { idx: k, due, sent, done: Instant::now(), outcome });
                }
                out.lock().expect("sample lock").extend(local);
            });
        }
    });
    let mut samples = out.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.idx);
    samples
}

/// Closed loop: `clients` threads each send, wait, and send again until
/// `duration` has passed. Returns the samples (request order) and the
/// wall time until the last client stopped.
pub fn closed_loop<F>(clients: usize, duration: Duration, send: F) -> (Vec<Sample>, Duration)
where
    F: Fn(usize) -> Outcome + Sync,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                while Instant::now() < deadline {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let outcome = send(k);
                    local.push(Sample { idx: k, due: sent, sent, done: Instant::now(), outcome });
                }
                out.lock().expect("sample lock").extend(local);
            });
        }
    });
    let elapsed = start.elapsed();
    let mut samples = out.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.idx);
    (samples, elapsed)
}

/// One HTTP exchange with the server (a fresh connection per request,
/// as the server closes after each response).
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Outcome {
    match webtable_server::client::request(addr, method, path, body) {
        Ok((status, body)) => Outcome::Response(status, body),
        Err(e) => Outcome::IoError(e.to_string()),
    }
}
