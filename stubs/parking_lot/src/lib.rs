//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::{Mutex, RwLock, Condvar}` behind parking_lot's
//! ergonomics: `lock()`/`read()`/`write()` return guards directly (no
//! `Result`), and poisoning is transparently ignored — a panicked holder
//! does not wedge the lock, matching parking_lot's semantics as closely
//! as std allows.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::Duration;

/// A mutual exclusion primitive (std-backed, poison-free API).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A reader-writer lock (std-backed, poison-free API).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Condition variable usable with [`Mutex`] guards.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Waits for a notification or until `timeout` passes.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        replace_with(&mut guard.inner, |g| {
            match self.inner.wait_timeout(g, timeout) {
                Ok((g, _)) => g,
                Err(e) => e.into_inner().0,
            }
        });
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Runs `f` on the std guard in `slot`, which `f` consumes (std's
/// `wait_timeout` takes the guard by value), and puts the guard `f`
/// returns back into `slot`.
fn replace_with<'a, T>(
    slot: &mut sync::MutexGuard<'a, T>,
    f: impl FnOnce(sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
) {
    struct Bomb;
    impl Drop for Bomb {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    // SAFETY: `old` is a bitwise copy of the guard in `slot`, `f` consumes
    // it, and the guard `f` returns overwrites `slot` without dropping the
    // moved-from value, so exactly one guard is live and dropped. If `f`
    // unwound after consuming `old`, `slot` would be dropped a second time;
    // `Bomb` aborts the process first (the closure used here never panics:
    // poison is mapped to `into_inner`).
    unsafe {
        let old = std::ptr::read(slot);
        let bomb = Bomb;
        let new = f(old);
        std::mem::forget(bomb);
        std::ptr::write(slot, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_and_rwlock_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);

        let rw = RwLock::new(vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(*rw.read(), vec![1, 2, 3]);
    }

    #[test]
    fn poisoned_lock_still_usable() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            *g = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            cv.wait_for(&mut g, Duration::from_secs(1));
        }
        assert!(*g);
        t.join().unwrap();
    }
}
