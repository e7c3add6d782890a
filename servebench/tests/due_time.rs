//! Open-loop latency runs from the due time: a stall on one request
//! shows up in the latency of the requests queued behind it, not only
//! in its own.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use webtable_servebench::load::{closed_loop, http, open_loop, Outcome};

/// A one-thread HTTP stub: answers `200 {}` at once, except that the
/// request with path `/stall` sleeps `stall` first. Stops after `n`
/// connections.
fn stub(n: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        for _ in 0..n {
            let Ok((mut s, _)) = listener.accept() else { return };
            let mut buf = [0u8; 1024];
            let got = s.read(&mut buf).unwrap_or(0);
            if buf[..got].starts_with(b"GET /stall") {
                std::thread::sleep(stall);
            }
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}");
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_delays_every_request_queued_behind_it() {
    let n = 30;
    let stall = Duration::from_millis(200);
    let (addr, server) = stub(n, stall);
    // One sender at 100 rps: request 5 stalls for 200 ms, so requests
    // 6.. are sent late and their latency includes the wait.
    let samples = open_loop(n, 100.0, 1, Instant::now(), |k| {
        http(&addr, "GET", if k == 5 { "/stall" } else { "/fast" }, "")
    });
    server.join().unwrap();
    assert_eq!(samples.len(), n);
    assert!(samples.iter().all(|s| s.outcome.is_2xx()));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    assert!(ms(samples[5].latency()) >= 190.0);
    // Request 6 was due 10 ms after request 5, so it waited ~190 ms
    // behind the stall although its own exchange was fast.
    assert!(ms(samples[6].latency()) >= 150.0, "{:?}", samples[6].latency());
    assert!(ms(samples[6].service()) < 100.0);
    assert!(ms(samples[6].lateness()) >= 150.0);
    // Latency from the send time alone would have hidden the stall.
    assert!(samples[6].latency() > samples[6].service() * 2);
    // Long after the stall the generator has caught up again.
    assert!(ms(samples[n - 1].lateness()) < 100.0);
}

#[test]
fn failures_are_kept_not_dropped() {
    // Nothing listens on this port: every exchange is an I/O error, and
    // every one is still a sample.
    let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    let addr = format!("127.0.0.1:{port}");
    let samples = open_loop(5, 1000.0, 2, Instant::now(), |_| http(&addr, "GET", "/", ""));
    assert_eq!(samples.len(), 5);
    assert!(samples.iter().all(|s| matches!(s.outcome, Outcome::IoError(_))));
    let (closed, _) = closed_loop(2, Duration::from_millis(50), |_| http(&addr, "GET", "/", ""));
    assert!(!closed.is_empty());
    assert!(closed.iter().all(|s| !s.outcome.is_2xx()));
}
