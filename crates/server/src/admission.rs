//! Admission control: bounded queueing and typed load shedding.
//!
//! The [`Gate`] bounds three things a misbehaving client population
//! could otherwise grow without limit: concurrent solves (globally and
//! per tenant) and the number of requests *waiting* for a slot. A
//! request that cannot be admitted within those bounds gets a typed
//! [`AdmissionError`] — rendered as an `overloaded` response — rather
//! than an unbounded queue slot, so the daemon's memory and tail
//! latency stay bounded under any offered load.
//!
//! The gate is a classic `Mutex` + `Condvar` monitor, deliberately
//! *not* a lock-free structure: admission is off the solve hot path
//! (one lock per request, held for a few loads and stores), and the
//! blocking-with-timeout semantics of [`Condvar::wait_timeout`] are
//! exactly what a bounded wait queue needs.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use delprop_core::runtime::now;

/// Gate limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Solves admitted concurrently, across all tenants.
    pub max_inflight: usize,
    /// Solves admitted concurrently for any one tenant.
    pub max_per_tenant: usize,
    /// Requests allowed to wait for a slot; beyond this, shed
    /// immediately.
    pub max_queued: usize,
    /// Longest a request waits for a slot before it is shed.
    pub max_wait: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 8,
            max_per_tenant: 4,
            max_queued: 16,
            max_wait: Duration::from_millis(250),
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The daemon is shutting down.
    Closed,
    /// The tenant is already at its concurrency limit.
    TenantSaturated {
        /// The saturated tenant.
        tenant: String,
        /// Its limit.
        limit: usize,
    },
    /// The wait queue is full.
    QueueFull {
        /// The queue bound.
        limit: usize,
    },
    /// No slot freed up within the admission wait.
    Timeout {
        /// How long the request waited.
        waited: Duration,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Closed => f.write_str("shutting down"),
            AdmissionError::TenantSaturated { tenant, limit } => {
                write!(f, "tenant `{tenant}` saturated ({limit} inflight)")
            }
            AdmissionError::QueueFull { limit } => write!(f, "queue full ({limit} waiting)"),
            AdmissionError::Timeout { waited } => {
                write!(f, "no slot within {} ms", waited.as_millis())
            }
        }
    }
}

#[derive(Default)]
struct GateState {
    inflight: usize,
    queued: usize,
    per_tenant: HashMap<String, usize>,
    closed: bool,
}

/// The admission monitor.
pub struct Gate {
    cfg: AdmissionConfig,
    state: Mutex<GateState>,
    freed: Condvar,
}

impl Gate {
    /// A gate with the given limits.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Gate {
            cfg,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
        }
    }

    /// Lock the state, recovering from poisoning: a panic in some
    /// other conn thread must not take admission (and with it the
    /// whole daemon) down.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tenant_count(st: &GateState, tenant: &str) -> usize {
        st.per_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Try to admit `tenant`, waiting at most
    /// `min(max_wait, cfg.max_wait)` for a slot. On success the
    /// returned [`Permit`] holds the slot until dropped.
    pub fn acquire(&self, tenant: &str, max_wait: Duration) -> Result<Permit<'_>, AdmissionError> {
        let max_wait = max_wait.min(self.cfg.max_wait);
        let mut st = self.lock();
        if st.closed {
            return Err(AdmissionError::Closed);
        }
        // Per-tenant saturation sheds immediately: queueing more work
        // from a tenant that already holds its full share would only
        // let one tenant crowd the bounded queue.
        if Self::tenant_count(&st, tenant) >= self.cfg.max_per_tenant {
            crate::stats::SHED_TENANT.inc();
            return Err(AdmissionError::TenantSaturated {
                tenant: tenant.to_string(),
                limit: self.cfg.max_per_tenant,
            });
        }
        if st.inflight >= self.cfg.max_inflight {
            if st.queued >= self.cfg.max_queued {
                crate::stats::SHED_QUEUE.inc();
                return Err(AdmissionError::QueueFull {
                    limit: self.cfg.max_queued,
                });
            }
            // From here to admission there are three distinct exits
            // (timeout, close, slot won); the queued counter must be
            // decremented on exactly one of them. `QueuedSlot` owns the
            // slot and the guard, so every exit — including a panic
            // unwinding through the wait loop — releases it exactly
            // once, under the still-held lock.
            let mut slot = QueuedSlot::claim(st);
            let start = now();
            let deadline = start + max_wait;
            loop {
                let remaining = deadline.saturating_duration_since(now());
                if remaining.is_zero() {
                    crate::stats::SHED_TIMEOUT.inc();
                    return Err(AdmissionError::Timeout {
                        waited: start.elapsed(),
                    });
                }
                slot.wait(&self.freed, remaining);
                let state = slot.state();
                if state.closed {
                    return Err(AdmissionError::Closed);
                }
                if state.inflight < self.cfg.max_inflight
                    && Self::tenant_count(state, tenant) < self.cfg.max_per_tenant
                {
                    break;
                }
            }
            st = slot.admit();
            crate::stats::QUEUE_WAIT_MICROS.observe(start.elapsed().as_micros() as u64);
        }
        st.inflight += 1;
        *st.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(Permit {
            gate: self,
            tenant: tenant.to_string(),
        })
    }

    /// Stop admitting: current holders finish, waiters and future
    /// requests get [`AdmissionError::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.freed.notify_all();
    }

    /// Solves currently admitted.
    pub fn inflight(&self) -> usize {
        self.lock().inflight
    }

    /// Requests currently waiting for a slot.
    pub fn queued(&self) -> usize {
        self.lock().queued
    }
}

/// A claimed wait-queue slot. Holds the gate's mutex guard across the
/// wait loop and owns the `queued` increment it performed at claim
/// time: the matching decrement happens exactly once, either in
/// [`QueuedSlot::admit`] on the success path or in `Drop` on any early
/// exit (timeout, close, panic) — always under the still-held lock, so
/// the counter can neither leak nor underflow.
struct QueuedSlot<'a> {
    /// `None` only transiently inside [`QueuedSlot::wait`] (the condvar
    /// consumes the guard) and permanently after [`QueuedSlot::admit`].
    guard: Option<MutexGuard<'a, GateState>>,
}

impl<'a> QueuedSlot<'a> {
    /// Enter the wait queue (caller has checked the queue bound).
    fn claim(mut guard: MutexGuard<'a, GateState>) -> QueuedSlot<'a> {
        guard.queued += 1;
        QueuedSlot { guard: Some(guard) }
    }

    /// The locked gate state.
    fn state(&mut self) -> &mut GateState {
        // lint:allow(panic): slot protocol — `guard` is only vacated by
        // `admit`/`wait`, which restore it or consume `self`
        self.guard.as_mut().expect("queued slot already released")
    }

    /// Block on `freed` for at most `dur`, reacquiring the lock (and
    /// with it the guard) before returning.
    fn wait(&mut self, freed: &Condvar, dur: Duration) {
        // lint:allow(panic): slot protocol — `guard` is present between
        // public calls; `wait` itself restores it before returning
        let guard = self.guard.take().expect("queued slot already released");
        let guard = freed
            .wait_timeout(guard, dur)
            .unwrap_or_else(|e| e.into_inner())
            .0;
        self.guard = Some(guard);
    }

    /// Leave the queue for admission: decrement `queued` and hand the
    /// guard back so the caller can take an inflight slot atomically.
    fn admit(mut self) -> MutexGuard<'a, GateState> {
        // lint:allow(panic): slot protocol — `admit` consumes the slot,
        // so the guard is still present and `queued` counts this slot
        let mut guard = self.guard.take().expect("queued slot already released");
        // lint:allow(panic): accounting invariant — queued >= 1 here
        guard.queued = guard
            .queued
            .checked_sub(1)
            .expect("admission queued counter underflow");
        guard
    }
}

impl Drop for QueuedSlot<'_> {
    fn drop(&mut self) {
        if let Some(mut guard) = self.guard.take() {
            // This decrement pairs with the increment in `claim`;
            // underflow is a bug worth a loud crash in the accept loop.
            // lint:allow(panic): accounting invariant, see above
            guard.queued = guard
                .queued
                .checked_sub(1)
                .expect("admission queued counter underflow");
        }
    }
}

/// An admitted slot; dropping it releases the slot and wakes waiters.
pub struct Permit<'a> {
    gate: &'a Gate,
    tenant: String,
}

impl fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        // Each Permit decrements exactly once what its issue
        // incremented.
        // lint:allow(panic): accounting invariant, see above
        st.inflight = st
            .inflight
            .checked_sub(1)
            .expect("admission inflight counter underflow");
        if let Some(n) = st.per_tenant.get_mut(&self.tenant) {
            // The per-tenant count covers every outstanding Permit.
            // lint:allow(panic): accounting invariant, see above
            *n = n
                .checked_sub(1)
                .expect("admission per-tenant counter underflow");
            if *n == 0 {
                st.per_tenant.remove(&self.tenant);
            }
        }
        drop(st);
        self.gate.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(max_inflight: usize, max_per_tenant: usize, max_queued: usize) -> Gate {
        Gate::new(AdmissionConfig {
            max_inflight,
            max_per_tenant,
            max_queued,
            max_wait: Duration::from_millis(50),
        })
    }

    #[test]
    fn admits_up_to_the_global_limit_then_times_out() {
        let g = gate(2, 2, 4);
        let p1 = g.acquire("a", Duration::from_millis(5)).unwrap();
        let _p2 = g.acquire("b", Duration::from_millis(5)).unwrap();
        assert_eq!(g.inflight(), 2);
        match g.acquire("c", Duration::from_millis(5)) {
            Err(AdmissionError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        drop(p1);
        let _p3 = g.acquire("c", Duration::from_millis(50)).unwrap();
        assert_eq!(g.inflight(), 2);
    }

    #[test]
    fn tenant_saturation_sheds_immediately() {
        let g = gate(8, 1, 4);
        let _p = g.acquire("a", Duration::from_millis(5)).unwrap();
        let start = now();
        match g.acquire("a", Duration::from_millis(5)) {
            Err(AdmissionError::TenantSaturated { tenant, limit }) => {
                assert_eq!((tenant.as_str(), limit), ("a", 1));
            }
            other => panic!("expected tenant saturation, got {other:?}"),
        }
        // Immediate: no queue wait was spent on a hopeless request.
        assert!(start.elapsed() < Duration::from_millis(5));
        let _p2 = g.acquire("b", Duration::from_millis(5)).unwrap();
    }

    #[test]
    fn queue_bound_sheds_excess_waiters() {
        let g = gate(1, 1, 0);
        let _p = g.acquire("a", Duration::from_millis(5)).unwrap();
        match g.acquire("b", Duration::from_millis(5)) {
            Err(AdmissionError::QueueFull { limit: 0 }) => {}
            other => panic!("expected queue full, got {other:?}"),
        };
    }

    #[test]
    fn close_rejects_waiters_and_newcomers() {
        let g = gate(1, 1, 4);
        let p = g.acquire("a", Duration::from_millis(5)).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| g.acquire("b", Duration::from_millis(500)));
            // Give the waiter a moment to enter the queue, then close.
            while g.queued() == 0 {
                std::thread::yield_now();
            }
            g.close();
            assert!(matches!(
                waiter.join().unwrap(),
                Err(AdmissionError::Closed)
            ));
        });
        drop(p);
        assert!(matches!(
            g.acquire("c", Duration::from_millis(5)),
            Err(AdmissionError::Closed)
        ));
    }

    #[test]
    fn counters_never_underflow_and_drain_to_zero_under_contention() {
        // Deterministically-shaped multithreaded stress over a small
        // gate: eight threads across three tenants, with per-iteration
        // waits chosen to force every exit path (admitted, timeout,
        // tenant-saturated, queue-full). The `checked_sub` invariants
        // inside `QueuedSlot` and `Permit` panic on any underflow —
        // which `scope` propagates — and afterwards every counter must
        // drain to exactly zero.
        let g = gate(3, 2, 2);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let g = &g;
                s.spawn(move || {
                    let tenant = ["a", "b", "c"][t % 3];
                    for i in 0..50usize {
                        let wait = Duration::from_micros(((t * 31 + i * 7) % 500) as u64);
                        if let Ok(_permit) = g.acquire(tenant, wait) {
                            if (t + i) % 3 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(g.inflight(), 0, "inflight must drain to 0");
        assert_eq!(g.queued(), 0, "queued must drain to 0");
        assert!(
            g.lock().per_tenant.is_empty(),
            "per-tenant counts must drain with their permits"
        );
    }

    #[test]
    fn close_mid_stress_releases_every_queued_slot() {
        // Waiters evicted by `close` take the QueuedSlot drop path; the
        // queue counter must still drain to zero.
        let g = gate(1, 1, 8);
        let p = g.acquire("holder", Duration::from_millis(5)).unwrap();
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..4)
                .map(|i| {
                    let g = &g;
                    s.spawn(move || g.acquire(&format!("w{i}"), Duration::from_millis(500)))
                })
                .collect();
            while g.queued() < 4 {
                std::thread::yield_now();
            }
            g.close();
            for w in waiters {
                assert!(matches!(w.join().unwrap(), Err(AdmissionError::Closed)));
            }
        });
        drop(p);
        assert_eq!(g.queued(), 0, "closed waiters must release their slots");
        assert_eq!(g.inflight(), 0);
    }

    #[test]
    fn permits_release_on_drop_and_wake_waiters() {
        let g = gate(1, 1, 4);
        let p = g.acquire("a", Duration::from_millis(5)).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| g.acquire("b", Duration::from_millis(2_000)).map(|_| ()));
            while g.queued() == 0 {
                std::thread::yield_now();
            }
            drop(p);
            waiter.join().unwrap().unwrap();
        });
        assert_eq!(g.inflight(), 0);
    }
}
