//! Offline stand-in for `crossbeam`.
//!
//! One submodule, matching the subset of crossbeam this workspace uses:
//! [`channel`], a multi-producer multi-consumer bounded channel with
//! `try_send`/`recv`/`try_recv` and disconnect semantics, implemented with
//! `Mutex` + `Condvar`. Not lock-free; plenty for the request queue of
//! `gpp-serve` where each item is a TCP connection.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        not_empty: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    /// Sending half; clonable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; clonable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error for [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// All receivers dropped.
        Disconnected(T),
    }

    /// Error for [`Receiver::recv`]: channel empty and all senders dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Creates a bounded MPMC channel with capacity `cap` (≥ 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let cap = cap.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::with_capacity(cap),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Non-blocking send; `Err(Full)` applies backpressure.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.queue.lock().unwrap();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if st.items.len() >= st.cap {
                return Err(TrySendError::Full(value));
            }
            st.items.push_back(value);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive; `Err` once empty and all senders dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap();
            }
        }

        /// Non-blocking receive; `None` when empty (regardless of senders).
        pub fn try_recv(&self) -> Option<T> {
            self.shared.queue.lock().unwrap().items.pop_front()
        }

        /// Items currently queued.
        pub fn len(&self) -> usize {
            self.shared.queue.lock().unwrap().items.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.queue.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Wake all blocked receivers so they observe disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.queue.lock().unwrap().receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, TrySendError};

    #[test]
    fn bounded_backpressure_and_disconnect() {
        let (tx, rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.try_recv(), None);
        drop(tx);
        assert!(rx.recv().is_err());
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
    }

    #[test]
    fn mpmc_many_producers_consumers() {
        let (tx, rx) = bounded::<usize>(4);
        let n_prod = 4;
        let per = 100;
        let got = std::thread::scope(|s| {
            for p in 0..n_prod {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let mut item = p * per + i;
                        while let Err(TrySendError::Full(back)) = tx.try_send(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            drop(tx);
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let mut all: Vec<usize> = consumers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            all
        });
        assert_eq!(got, (0..n_prod * per).collect::<Vec<_>>());
    }
}
