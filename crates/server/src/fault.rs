//! Deterministic fault injection: the failure-containment layer's test
//! harness.
//!
//! Every operation the serving path cannot afford to trust — reading a
//! snapshot, reading or renaming the manifest, reading the corpus,
//! finishing a generation build, running a request handler — passes
//! through a named *fault point*. A [`FaultPlan`] arms points with a
//! bounded number of faults (I/O errors, truncated or bit-flipped
//! bytes, injected latency, panics); once a point's budget is consumed
//! it behaves normally again, which is exactly the shape recovery tests
//! need ("fail N times, then heal").
//!
//! Determinism is a hard requirement: nothing here consults the wall
//! clock or OS randomness. Corruption offsets derive from the plan's
//! seed and a per-point hit counter via a xorshift mix, so the same
//! plan against the same bytes always corrupts the same bit.
//!
//! When no plan is armed the hooks are a single relaxed atomic load —
//! effectively free on the request path. Plans are installed
//! process-globally (tests hold an [`ArmedGuard`]; the binary arms one
//! from the `WEBTABLE_FAULT_PLAN` environment variable), because the
//! points fire deep inside free functions that have no state handle.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The named places faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Reading the lemma-index snapshot during a generation load.
    SnapshotRead,
    /// Reading `MANIFEST` (or `MANIFEST.last-good`).
    ManifestRead,
    /// The rename that atomically promotes a new manifest.
    ManifestRename,
    /// Reading the corpus tables file during a generation load.
    CorpusRead,
    /// The tail of a generation build (after all inputs parsed).
    GenerationBuild,
    /// The request handler, before routing.
    Handler,
}

impl FaultPoint {
    /// Every point, in declaration order (indexes match [`idx`](Self::idx)).
    pub const ALL: [FaultPoint; 6] = [
        FaultPoint::SnapshotRead,
        FaultPoint::ManifestRead,
        FaultPoint::ManifestRename,
        FaultPoint::CorpusRead,
        FaultPoint::GenerationBuild,
        FaultPoint::Handler,
    ];

    /// The stable name used in plan specs and log lines.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::SnapshotRead => "snapshot_read",
            FaultPoint::ManifestRead => "manifest_read",
            FaultPoint::ManifestRename => "manifest_rename",
            FaultPoint::CorpusRead => "corpus_read",
            FaultPoint::GenerationBuild => "generation_build",
            FaultPoint::Handler => "handler",
        }
    }

    /// Parses a point name (inverse of [`name`](Self::name)).
    pub fn parse(s: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == s)
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// What an armed fault point does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with an injected `std::io::Error`.
    IoError,
    /// Deliver only the first N bytes of the read (non-read points
    /// degrade to [`IoError`](FaultAction::IoError)).
    Truncate(usize),
    /// Flip one seeded bit near the middle of the read bytes (non-read
    /// points degrade to [`IoError`](FaultAction::IoError)).
    BitFlip,
    /// Sleep this many milliseconds, then proceed normally.
    LatencyMs(u64),
    /// Panic (exercises the worker pool's panic isolation).
    Panic,
}

#[derive(Debug)]
struct Rule {
    point: FaultPoint,
    action: FaultAction,
    remaining: AtomicU64,
}

/// A seeded, bounded schedule of faults. Build one with
/// [`new`](FaultPlan::new) + [`fail`](FaultPlan::fail), or parse a spec
/// like `snapshot_read=io_error*3;handler=panic` (see
/// [`parse`](FaultPlan::parse)), then arm it with [`arm`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    hits: [AtomicU64; 6],
}

impl FaultPlan {
    /// An empty plan with the given corruption seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Arms `point` with `times` occurrences of `action` (consumed in
    /// the order rules were added).
    pub fn fail(mut self, point: FaultPoint, action: FaultAction, times: u64) -> FaultPlan {
        self.rules.push(Rule { point, action, remaining: AtomicU64::new(times) });
        self
    }

    /// Parses a plan spec: `;`- or `,`-separated entries, each
    /// `point=action[*count]` with an optional leading `seed=N`.
    /// Actions: `io_error`, `truncate:BYTES`, `bit_flip`,
    /// `latency:MS`, `panic`. Count defaults to 1.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for entry in spec.split([';', ',']).map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) =
                entry.split_once('=').ok_or_else(|| format!("malformed entry `{entry}`"))?;
            if key == "seed" {
                plan.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                continue;
            }
            let point =
                FaultPoint::parse(key).ok_or_else(|| format!("unknown fault point `{key}`"))?;
            let (action, times) = match value.rsplit_once('*') {
                Some((a, n)) => (a, n.parse::<u64>().map_err(|_| format!("bad count `{n}`"))?),
                None => (value, 1),
            };
            let action = match action.split_once(':') {
                None => match action {
                    "io_error" => FaultAction::IoError,
                    "bit_flip" => FaultAction::BitFlip,
                    "panic" => FaultAction::Panic,
                    other => return Err(format!("unknown action `{other}`")),
                },
                Some(("truncate", n)) => FaultAction::Truncate(
                    n.parse().map_err(|_| format!("bad truncate length `{n}`"))?,
                ),
                Some(("latency", ms)) => {
                    FaultAction::LatencyMs(ms.parse().map_err(|_| format!("bad latency `{ms}`"))?)
                }
                Some((other, _)) => return Err(format!("unknown action `{other}`")),
            };
            plan = plan.fail(point, action, times);
        }
        Ok(plan)
    }

    /// Unconsumed faults still armed at `point` (tests assert drainage).
    pub fn remaining(&self, point: FaultPoint) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.point == point)
            .map(|r| r.remaining.load(Ordering::Relaxed))
            .sum()
    }

    /// Consumes one fault at `point`, returning the action and this
    /// point's hit ordinal (drives deterministic corruption offsets).
    fn take(&self, point: FaultPoint) -> Option<(FaultAction, u64)> {
        for rule in self.rules.iter().filter(|r| r.point == point) {
            // Decrement-if-positive without a lock: CAS loop.
            let mut cur = rule.remaining.load(Ordering::Relaxed);
            while cur > 0 {
                match rule.remaining.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let hit = self.hits[point.idx()].fetch_add(1, Ordering::Relaxed);
                        return Some((rule.action, hit));
                    }
                    Err(seen) => cur = seen,
                }
            }
        }
        None
    }
}

fn xorshift(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15); // avoid the zero fixpoint
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static REGISTRY: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// Clears the installed plan; unarmed hooks are a single relaxed load.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *registry().lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Disarms the global plan when dropped, so a panicking test cannot
/// leave faults armed for its neighbours.
#[derive(Debug)]
#[must_use = "faults disarm when the guard drops"]
pub struct ArmedGuard(());

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Installs `plan` process-globally and returns a guard that disarms
/// it on drop. The caller keeps the `Arc` to inspect
/// [`remaining`](FaultPlan::remaining).
pub fn arm(plan: Arc<FaultPlan>) -> ArmedGuard {
    *registry().lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    ARMED.store(true, Ordering::Release);
    ArmedGuard(())
}

#[inline]
fn active(point: FaultPoint) -> Option<(FaultAction, u64, u64)> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let guard = registry().lock().unwrap_or_else(|e| e.into_inner());
    let plan = guard.as_ref()?;
    let (action, hit) = plan.take(point)?;
    Some((action, hit, plan.seed))
}

fn injected(point: FaultPoint) -> io::Error {
    io::Error::other(format!("injected fault at {}", point.name()))
}

/// A non-read fault point: returns an injected error, sleeps, panics,
/// or (unarmed) does nothing. Corruption actions degrade to an I/O
/// error — there are no bytes to corrupt.
#[inline]
pub fn hit(point: FaultPoint) -> io::Result<()> {
    match active(point) {
        None => Ok(()),
        Some((FaultAction::LatencyMs(ms), _, _)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some((FaultAction::Panic, _, _)) => panic!("injected panic at {}", point.name()),
        Some(_) => Err(injected(point)),
    }
}

/// A fault-injectable whole-file read. Unarmed, this is
/// `std::fs::read` plus one atomic load.
#[inline]
pub fn read(point: FaultPoint, path: &Path) -> io::Result<Vec<u8>> {
    match active(point) {
        None => std::fs::read(path),
        Some(armed) => apply_read_action(armed, point, path),
    }
}

/// Like [`read`], but lets the healthy path skip the heap read
/// entirely: `Ok(None)` means no fault rule was consumed — load the
/// file however you like (the generation loader memory-maps it). When a
/// rule *is* armed this consumes exactly one fault (the same budget
/// [`read`] would) and returns the corrupted-or-delayed bytes, so chaos
/// plans exercise the identical failure surface regardless of how the
/// healthy path reaches the bytes.
#[inline]
pub fn read_intercept(point: FaultPoint, path: &Path) -> io::Result<Option<Vec<u8>>> {
    match active(point) {
        None => Ok(None),
        Some(armed) => apply_read_action(armed, point, path).map(Some),
    }
}

/// One consumed fault applied to a whole-file read.
fn apply_read_action(
    (action, hit, seed): (FaultAction, u64, u64),
    point: FaultPoint,
    path: &Path,
) -> io::Result<Vec<u8>> {
    match action {
        FaultAction::IoError => Err(injected(point)),
        FaultAction::LatencyMs(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            std::fs::read(path)
        }
        FaultAction::Panic => panic!("injected panic at {}", point.name()),
        FaultAction::Truncate(keep) => {
            let mut bytes = std::fs::read(path)?;
            bytes.truncate(keep.min(bytes.len()));
            Ok(bytes)
        }
        FaultAction::BitFlip => {
            let mut bytes = std::fs::read(path)?;
            if !bytes.is_empty() {
                // Middle of the file, nudged deterministically by the
                // seeded hit counter — lands in real payload, not in
                // tiny headers, and never varies run to run.
                let mix = xorshift(seed ^ (hit + 1));
                let at = bytes.len() / 2 + (mix % 16) as usize % bytes.len();
                let at = at.min(bytes.len() - 1);
                bytes[at] ^= 1 << (mix >> 8 & 7);
            }
            Ok(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is process-wide; unit tests here serialize on
    // this lock (the chaos integration suite is a separate process).
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_points_are_no_ops() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        assert!(hit(FaultPoint::Handler).is_ok());
    }

    #[test]
    fn budgets_are_consumed_then_exhausted() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan =
            Arc::new(FaultPlan::new(7).fail(FaultPoint::GenerationBuild, FaultAction::IoError, 2));
        let _g = arm(Arc::clone(&plan));
        assert!(hit(FaultPoint::GenerationBuild).is_err());
        assert!(hit(FaultPoint::GenerationBuild).is_err());
        assert!(hit(FaultPoint::GenerationBuild).is_ok(), "budget spent: healthy again");
        assert_eq!(plan.remaining(FaultPoint::GenerationBuild), 0);
        assert!(hit(FaultPoint::Handler).is_ok(), "other points unaffected");
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _g = arm(Arc::new(FaultPlan::new(1).fail(
                FaultPoint::Handler,
                FaultAction::IoError,
                10,
            )));
            assert!(hit(FaultPoint::Handler).is_err());
        }
        assert!(hit(FaultPoint::Handler).is_ok());
    }

    #[test]
    fn read_faults_corrupt_deterministically() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("webtable-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let original: Vec<u8> = (0..=255u8).collect();
        std::fs::write(&path, &original).unwrap();

        let flip = |seed| {
            let _g = arm(Arc::new(FaultPlan::new(seed).fail(
                FaultPoint::SnapshotRead,
                FaultAction::BitFlip,
                1,
            )));
            read(FaultPoint::SnapshotRead, &path).unwrap()
        };
        let a = flip(42);
        let b = flip(42);
        assert_eq!(a, b, "same seed, same corruption");
        assert_ne!(a, original, "one bit differs");
        assert_eq!(a.iter().zip(&original).filter(|(x, y)| x != y).count(), 1);

        {
            let _g = arm(Arc::new(FaultPlan::new(0).fail(
                FaultPoint::SnapshotRead,
                FaultAction::Truncate(10),
                1,
            )));
            assert_eq!(read(FaultPoint::SnapshotRead, &path).unwrap(), original[..10]);
            // Budget spent: the very next read is intact.
            assert_eq!(read(FaultPoint::SnapshotRead, &path).unwrap(), original);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_specs_parse() {
        let plan =
            FaultPlan::parse("seed=9; snapshot_read=io_error*3, handler=panic;corpus_read=truncate:128,manifest_rename=latency:50*2")
                .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.remaining(FaultPoint::SnapshotRead), 3);
        assert_eq!(plan.remaining(FaultPoint::Handler), 1);
        assert_eq!(plan.remaining(FaultPoint::CorpusRead), 1);
        assert_eq!(plan.remaining(FaultPoint::ManifestRename), 2);
        assert!(FaultPlan::parse("bogus_point=io_error").is_err());
        assert!(FaultPlan::parse("handler=explode").is_err());
        assert!(FaultPlan::parse("handler").is_err());
    }
}
