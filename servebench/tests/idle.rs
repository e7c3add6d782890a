//! The idle-class spinners stop and join when dropped.

use std::time::{Duration, Instant};

use webtable_servebench::idle::Spinners;

#[test]
fn spinners_stop_on_drop() {
    let t = Instant::now();
    let spinners = Spinners::start(2);
    std::thread::sleep(Duration::from_millis(20));
    drop(spinners);
    assert!(t.elapsed() < Duration::from_secs(5), "spinners did not stop");
}
