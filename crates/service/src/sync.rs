//! The one locking rule of this crate: **a panic under a lock does not
//! poison it.** The daemon must keep serving after a screening panic or a
//! killed worker (`fault`), and every critical section here leaves its
//! data valid at each step — they are pushes, counter bumps and whole-value
//! swaps, and a mutation is planned and logged *before* `apply`, which
//! cannot fail — so the state behind a lock a panicking thread held is
//! still good.

use std::sync::{LockResult, MutexGuard, PoisonError};

/// The rule, applied to whatever `std::sync` hands back with a poison flag.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// `std::sync::Mutex` whose `lock` applies [`unpoisoned`].
#[derive(Default)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        unpoisoned(self.0.lock())
    }
}
