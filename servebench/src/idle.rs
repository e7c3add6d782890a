//! Keeps every CPU out of its idle state while a run measures.
//!
//! On a virtual machine an idle vCPU is descheduled by the host, and
//! waking it for the next request costs several milliseconds at random.
//! At the benchmark's modest request rates that wake-up jitter, not the
//! program, set the p99s. One spinner per CPU at the lowest scheduling
//! class (`SCHED_IDLE`) keeps the vCPUs running: it gets the CPU only
//! when nothing else wants it, so it takes no time from the server or
//! the load generator. Where the class cannot be set, no spinner runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Running spinners; dropping the value stops and joins them.
#[derive(Debug)]
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Starts `n` spinners.
    pub fn start(n: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !lower_to_idle_class() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread into `SCHED_IDLE`. Returns false when that
/// is not possible.
#[cfg(target_os = "linux")]
fn lower_to_idle_class() -> bool {
    const SCHED_IDLE: i32 = 5;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    let priority: i32 = 0;
    // SAFETY: `sched_setscheduler` only reads one `struct sched_param`
    // (a single `int` on Linux) through `param`, which points at a live
    // local. pid 0 names the calling thread, so no other thread changes.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lower_to_idle_class() -> bool {
    false
}
