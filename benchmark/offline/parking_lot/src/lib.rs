//! Offline stand-in for `parking_lot` 0.12: `Mutex` and `Condvar` with
//! parking_lot's calling convention (no poisoning, `wait` takes the guard by
//! `&mut`), built on `std::sync`.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutex whose `lock` never fails: a panic while the lock was held does
/// not poison it, as in parking_lot.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

/// Holds the lock until dropped. The inner guard is an `Option` only so
/// `Condvar::wait` can hand it to `std` and put it back.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

/// Result of a timed wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.guard.take().expect("guard present outside wait");
        guard.guard = Some(
            self.inner
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let held = guard.guard.take().expect("guard present outside wait");
        let (held, result) = self
            .inner
            .wait_timeout(held, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(held);
        WaitTimeoutResult(result.timed_out())
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_hands_over_a_value() {
        let pair = Arc::new((Mutex::new(None::<u32>), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let producer = std::thread::spawn(move || {
            *pair2.0.lock() = Some(7);
            pair2.1.notify_all();
        });
        let mut slot = pair.0.lock();
        while slot.is_none() {
            pair.1.wait(&mut slot);
        }
        assert_eq!(*slot, Some(7));
        drop(slot);
        producer.join().unwrap();
    }

    #[test]
    fn wait_for_times_out_and_keeps_the_lock() {
        let m = Mutex::new(0u8);
        let cv = Condvar::new();
        let mut g = m.lock();
        let t0 = Instant::now();
        let r = cv.wait_for(&mut g, Duration::from_millis(20));
        assert!(r.timed_out());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        *g = 3;
        drop(g);
        assert_eq!(*m.lock(), 3);
    }
}
