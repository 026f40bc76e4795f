//! Epoch-shared snapshot publication.
//!
//! The serving daemon keeps its compiled instance behind an
//! [`EpochCell`]: request threads take [`EpochCell::snapshot`] guards
//! and share one immutable value, while a writer
//! [`EpochCell::publish`]es new epochs. The cell is the current `Arc`
//! plus its epoch number under one `Mutex`; both critical sections are
//! an `Arc` clone or swap, and the traffic is one snapshot per solve
//! and, under `ΔV` load, one publish every few milliseconds. A reader
//! keeps its `Arc` for the whole solve, so in-flight requests keep the
//! epoch they started with, and an old epoch is reclaimed only when its
//! last guard drops. `publish` drops the retired `Arc` after unlocking:
//! if that was the last reference, dropping an engine never holds up
//! readers.
//!
//! `concurrent_readers_and_writer_tear_nothing` checks the cell's
//! contract across threads (untorn payloads, epoch numbers matching
//! payloads and never running backwards, retired guards intact); Miri
//! and ThreadSanitizer run it too.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

/// An epoch-published, snapshot-shared value (see the module docs).
pub struct EpochCell<T> {
    /// The current epoch's value and number; the constructor's value is
    /// epoch 1.
    current: Mutex<(Arc<T>, u64)>,
}

/// A snapshot guard from [`EpochCell::snapshot`]: derefs to the
/// published value and keeps that epoch alive (and never reclaimed or
/// reused) until dropped. Cheap to clone — it is an `Arc` plus the
/// epoch number.
#[derive(Debug, Clone)]
pub struct EpochSnapshot<T> {
    value: Arc<T>,
    epoch: u64,
}

impl<T> EpochSnapshot<T> {
    /// The epoch number this guard pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared value as an owned `Arc`.
    pub fn to_arc(&self) -> Arc<T> {
        Arc::clone(&self.value)
    }
}

impl<T> Deref for EpochSnapshot<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> EpochCell<T> {
    /// A cell publishing `initial` as epoch 1.
    pub fn new(initial: T) -> Self {
        EpochCell {
            current: Mutex::new((Arc::new(initial), 1)),
        }
    }

    /// The critical section never panics, so a poisoned lock still
    /// holds a consistent pair.
    fn lock(&self) -> MutexGuard<'_, (Arc<T>, u64)> {
        self.current.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current epoch number (monotone, starts at 1).
    pub fn epoch(&self) -> u64 {
        self.lock().1
    }

    /// Take a snapshot guard on the current epoch.
    pub fn snapshot(&self) -> EpochSnapshot<T> {
        let current = self.lock();
        EpochSnapshot {
            value: Arc::clone(&current.0),
            epoch: current.1,
        }
    }

    /// Publish `value` as the next epoch and return its epoch number.
    /// Readers holding snapshot guards keep their epoch; new snapshots
    /// see this one.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_arc(Arc::new(value))
    }

    /// [`EpochCell::publish`] from an existing `Arc` (no re-allocation).
    pub fn publish_arc(&self, value: Arc<T>) -> u64 {
        let mut current = self.lock();
        let epoch = current.1 + 1;
        let retired = std::mem::replace(&mut *current, (value, epoch));
        // Unlock before the retired epoch drops: it may be the last
        // reference to a large value, and readers must not wait on it.
        drop(current);
        drop(retired);
        epoch
    }
}

impl<T: fmt::Debug> fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("EpochCell")
            .field("epoch", &snap.epoch())
            .field("value", &*snap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sees_the_initial_epoch() {
        let cell = EpochCell::new(41);
        let s = cell.snapshot();
        assert_eq!(*s, 41);
        assert_eq!(s.epoch(), 1);
        assert_eq!(cell.epoch(), 1);
    }

    #[test]
    fn publish_advances_the_epoch_and_old_guards_survive() {
        let cell = EpochCell::new(String::from("a"));
        let old = cell.snapshot();
        assert_eq!(cell.publish(String::from("b")), 2);
        assert_eq!(cell.publish(String::from("c")), 3);
        let new = cell.snapshot();
        // The old guard still reads its epoch — never reclaimed or
        // reused under it, even after the writer lapped both slots.
        assert_eq!(*old, "a");
        assert_eq!(old.epoch(), 1);
        assert_eq!(*new, "c");
        assert_eq!(new.epoch(), 3);
    }

    #[test]
    fn guards_are_cheap_clones_of_one_allocation() {
        let cell = EpochCell::new(7u64);
        let a = cell.snapshot();
        let b = cell.snapshot();
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.to_arc(), &b.to_arc()));
        assert_eq!(*c, 7);
    }

    #[test]
    fn concurrent_readers_and_writer_tear_nothing() {
        // Pairs published together are read together, each guard's
        // epoch matches its payload, and a guard held across later
        // publishes still reads what it pinned. Miri runs this test too.
        const PUBLISHES: u64 = if cfg!(miri) { 20 } else { 2_000 };
        const READERS: usize = if cfg!(miri) { 2 } else { 4 };
        let cell = EpochCell::new((0u64, 0u64));
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    // The previous guard stays held while the next is
                    // taken, so later publishes may retire it meanwhile.
                    let mut held = cell.snapshot();
                    loop {
                        let snap = cell.snapshot();
                        let (a, b) = *snap;
                        assert_eq!(a, b, "torn epoch payload");
                        assert_eq!(snap.epoch(), a + 1, "epoch does not match payload");
                        assert!(snap.epoch() >= held.epoch(), "epoch went backwards");
                        assert_eq!(held.epoch(), held.0 + 1, "retired guard changed");
                        if a == PUBLISHES {
                            break;
                        }
                        held = snap;
                        std::hint::spin_loop();
                    }
                });
            }
            for k in 1..=PUBLISHES {
                cell.publish((k, k));
            }
        });
        assert_eq!(cell.epoch(), PUBLISHES + 1);
        assert_eq!(*cell.snapshot(), (PUBLISHES, PUBLISHES));
    }

    /// A payload whose drop records whether the cell's lock was free.
    struct DropProbe(u32);

    static PROBED: std::sync::OnceLock<EpochCell<DropProbe>> = std::sync::OnceLock::new();
    static DROPS: Mutex<Vec<(u32, bool)>> = Mutex::new(Vec::new());

    impl Drop for DropProbe {
        fn drop(&mut self) {
            let unlocked = PROBED.get().is_some_and(|c| c.current.try_lock().is_ok());
            DROPS.lock().unwrap().push((self.0, unlocked));
        }
    }

    #[test]
    fn retired_epochs_drop_outside_the_lock() {
        let cell = PROBED.get_or_init(|| EpochCell::new(DropProbe(1)));
        // No guard outstanding: each publish holds the last reference to
        // the epoch it retires.
        assert_eq!(cell.publish(DropProbe(2)), 2);
        assert_eq!(cell.publish(DropProbe(3)), 3);
        assert_eq!(*DROPS.lock().unwrap(), [(1, true), (2, true)]);
    }
}
