//! Fault-injection failpoints for the propagation and commit paths.
//!
//! Compiled only under `cfg(test)` or the `fault-inject` feature, so
//! release builds carry no trace of it. Four points exist, mirroring
//! the places a production deployment can die mid-commit:
//!
//! * [`PREPARE_PANIC`] — panic inside [`MaintenanceEngine::prepare`]
//!   (a view dies while reading the pre-apply document);
//! * [`FINISH_PANIC`] — panic inside [`MaintenanceEngine::finish`]
//!   (a view dies while patching its store);
//! * [`SEAL_DELAY`] — sleep before the async service drains its queue
//!   (a slow seal, for observing submit-vs-seal latency; whatever is
//!   submitted meanwhile joins the drained batch, so a test can shape
//!   one window);
//! * [`RECOVER_PANIC`] — panic inside the async service's post-panic
//!   recovery (the from-scratch recompute dies on the same document
//!   the window did): the unrecoverable case, which poisons the
//!   service instead of hanging it.
//!
//! Points are **one-shot**: arming sets a bit, the first propagation
//! that reaches the point trips it (exactly one view, atomically)
//! and the bit clears — so the recovery path that follows runs clean
//! (unless [`RECOVER_PANIC`] is armed for it). [`arm_at`] lets the
//! point pass its first *k − 1* reaches instead: every view of every
//! step reaches `prepare` / `finish` once, so a panic can land on a
//! later step of a window than its first.
//! Arm programmatically with [`arm`] or through the environment
//! (`XIVM_FAULT=prepare_panic,finish_panic,seal_delay,recover_panic`,
//! read once at first use). Tests that arm faults must serialize on
//! [`exclusive`]: the armed set is process-global.
//!
//! `tests/fault_injection.rs` uses these to prove the async service's
//! containment guarantees: a panicking window drains cleanly, the
//! error surfaces on `Ticket::wait()` / `flush()`, the database equals
//! a sequential replay of the committed prefix, surviving
//! subscriptions stay gapless, and a failed recovery fails every
//! later call loudly.
//!
//! [`MaintenanceEngine::prepare`]: crate::engine::MaintenanceEngine::prepare
//! [`MaintenanceEngine::finish`]: crate::engine::MaintenanceEngine::finish

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

/// Panic at the start of `MaintenanceEngine::prepare`.
pub const PREPARE_PANIC: u32 = 1 << 0;
/// Panic at the start of `MaintenanceEngine::finish`.
pub const FINISH_PANIC: u32 = 1 << 1;
/// Sleep ~40ms before the async service drains its queue.
pub const SEAL_DELAY: u32 = 1 << 2;
/// Panic at the start of the async service's post-panic recovery.
pub const RECOVER_PANIC: u32 = 1 << 3;

static ARMED: AtomicU32 = AtomicU32::new(0);
/// Per point (indexed by its bit's position), the reaches it still
/// lets pass before it trips; written by every arming of the point,
/// read only while it is armed.
static PASSES: [AtomicU32; 4] = [const { AtomicU32::new(0) }; 4];
static ENV_INIT: Once = Once::new();
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// How long [`SEAL_DELAY`] sleeps.
pub const SEAL_DELAY_MS: u64 = 40;

/// Per window the async service sealed, the document images its thread
/// took (`xivm_xml::arena::work` counts per thread), for the unit tests
/// that pin the image rule; they hold [`exclusive`] while they read it.
#[cfg(all(test, debug_assertions))]
pub(crate) static WINDOW_CLONES: Mutex<Vec<u64>> = Mutex::new(Vec::new());

fn ensure_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("XIVM_FAULT") {
            let mut bits = 0u32;
            for part in spec.split(',') {
                bits |= match part.trim() {
                    "prepare_panic" => PREPARE_PANIC,
                    "finish_panic" => FINISH_PANIC,
                    "seal_delay" => SEAL_DELAY,
                    "recover_panic" => RECOVER_PANIC,
                    _ => 0,
                };
            }
            ARMED.fetch_or(bits, Ordering::SeqCst);
        }
    });
}

/// Serializes fault-arming tests: the armed set is process-global, so
/// two tests arming concurrently would see each other's faults. Hold
/// the guard for the whole test (a poisoned guard — a previous test
/// panicked while holding it, which injection tests do by design — is
/// recovered, not propagated).
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms the given failpoint bits (OR-ed into the armed set). Each
/// armed point trips exactly once, at its next reach, then disarms
/// itself.
pub fn arm(bits: u32) {
    (0..PASSES.len()).filter(|i| bits & 1 << i != 0).for_each(|i| arm_at(1 << i, 1));
}

/// Arms the one failpoint `bit` to trip at its `k`-th reach from now
/// (`k ≥ 1`; `arm_at(bit, 1)` is `arm(bit)`), letting the reaches
/// before it pass.
pub fn arm_at(bit: u32, k: u32) {
    assert!(bit.is_power_of_two() && k >= 1);
    ensure_env();
    PASSES[bit.trailing_zeros() as usize].store(k - 1, Ordering::SeqCst);
    ARMED.fetch_or(bit, Ordering::SeqCst);
}

/// Clears every armed failpoint (tests call this on their way out so
/// a failed assertion cannot leak an armed fault into another test).
pub fn disarm_all() {
    ensure_env();
    ARMED.store(0, Ordering::SeqCst);
}

/// True while any failpoint is armed.
pub fn any_armed() -> bool {
    ensure_env();
    ARMED.load(Ordering::SeqCst) != 0
}

/// Atomically claims `bit`: returns true for exactly one caller per
/// arming — the reach that finds no passes left — clearing the bit;
/// every view of a commit passes the point, and so may other threads,
/// but only one trips it.
fn trip(bit: u32) -> bool {
    ensure_env();
    if ARMED.load(Ordering::Relaxed) & bit == 0 {
        return false;
    }
    let passes = &PASSES[bit.trailing_zeros() as usize];
    if passes.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok() {
        return false;
    }
    ARMED.fetch_and(!bit, Ordering::SeqCst) & bit != 0
}

/// The failpoint inside `MaintenanceEngine::prepare`.
pub(crate) fn prepare_point() {
    if trip(PREPARE_PANIC) {
        panic!("injected fault: panic in prepare");
    }
}

/// The failpoint inside `MaintenanceEngine::finish`.
pub(crate) fn finish_point() {
    if trip(FINISH_PANIC) {
        panic!("injected fault: panic in finish");
    }
}

/// The failpoint before the async service drains its queue.
pub(crate) fn seal_point() {
    if trip(SEAL_DELAY) {
        std::thread::sleep(std::time::Duration::from_millis(SEAL_DELAY_MS));
    }
}

/// The failpoint inside the async service's post-panic recovery.
pub(crate) fn recover_point() {
    if trip(RECOVER_PANIC) {
        panic!("injected fault: panic in recover");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_points_trip_exactly_once() {
        let _guard = exclusive();
        disarm_all();
        assert!(!trip(PREPARE_PANIC), "disarmed points never trip");
        arm(PREPARE_PANIC | SEAL_DELAY);
        assert!(any_armed());
        assert!(trip(PREPARE_PANIC));
        assert!(!trip(PREPARE_PANIC), "one-shot: the first trip disarms");
        assert!(!trip(FINISH_PANIC), "unarmed bits stay untripped");
        assert!(trip(SEAL_DELAY));
        assert!(!any_armed());
        disarm_all();
    }

    #[test]
    fn a_point_armed_at_k_trips_at_its_kth_reach_only() {
        let _guard = exclusive();
        disarm_all();
        arm_at(FINISH_PANIC, 3);
        arm(PREPARE_PANIC);
        assert_eq!([0; 4].map(|_| trip(FINISH_PANIC)), [false, false, true, false]);
        assert!(trip(PREPARE_PANIC), "the other points keep their own count");
        arm_at(FINISH_PANIC, 2);
        disarm_all();
        assert!(!trip(FINISH_PANIC) && !trip(FINISH_PANIC), "disarmed mid-count");
        assert!(!any_armed());
    }
}
