//! Offline shim for the one part of `crossbeam` this workspace uses: the
//! `deque` work-stealing primitives (`Injector`/`Worker`/`Stealer`) that
//! back the rayon shim's thread pool.

pub mod deque {
    //! `crossbeam::deque` stand-in: a global FIFO [`Injector`] plus
    //! per-worker deques ([`Worker`]) with FIFO thieves ([`Stealer`]).
    //!
    //! The owner pushes and pops at the back (LIFO, so it keeps working on
    //! the most recently split — cache-hot — half of a divide-and-conquer
    //! tree) while thieves steal from the front (FIFO, so they take the
    //! oldest, i.e. largest, pending subtree). Backed by `Mutex<VecDeque>`
    //! rather than the lock-free Chase–Lev deque: the rayon shim only
    //! schedules coarse chunk tasks, so lock hold times are tens of
    //! nanoseconds and correctness is trivially auditable.

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, MutexGuard};

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // A panicking task poisons nothing we care about: the queue only
        // holds plain task handles, so keep going.
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Result of a steal attempt (API-compatible subset of crossbeam's).
    #[derive(Debug)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// A task was stolen.
        Success(T),
        /// The operation lost a race and may be retried (never produced by
        /// this mutex-backed shim, but kept so caller loops match the real
        /// crate).
        Retry,
    }

    impl<T> Steal<T> {
        /// `Some` on success.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(v) => Some(v),
                _ => None,
            }
        }
    }

    /// The owning side of a worker deque.
    pub struct Worker<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// A new deque whose owner pops in LIFO order.
        pub fn new_lifo() -> Self {
            Worker {
                q: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Push a task (owner side).
        pub fn push(&self, task: T) {
            lock(&self.q).push_back(task);
        }

        /// Pop the most recently pushed task (owner side, LIFO).
        pub fn pop(&self) -> Option<T> {
            lock(&self.q).pop_back()
        }

        /// True when no tasks are queued.
        pub fn is_empty(&self) -> bool {
            lock(&self.q).is_empty()
        }

        /// A handle other threads can steal through.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer { q: self.q.clone() }
        }
    }

    /// The stealing side of a worker deque.
    pub struct Stealer<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer { q: self.q.clone() }
        }
    }

    impl<T> Stealer<T> {
        /// Steal the oldest task (FIFO side).
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.q).pop_front() {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            }
        }

        /// True when no tasks are queued.
        pub fn is_empty(&self) -> bool {
            lock(&self.q).is_empty()
        }
    }

    /// A global FIFO injection queue shared by all workers.
    pub struct Injector<T> {
        q: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// An empty injector.
        pub fn new() -> Self {
            Injector {
                q: Mutex::new(VecDeque::new()),
            }
        }

        /// Push a task from any thread.
        pub fn push(&self, task: T) {
            lock(&self.q).push_back(task);
        }

        /// Steal the oldest task.
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.q).pop_front() {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            }
        }

        /// True when no tasks are queued.
        pub fn is_empty(&self) -> bool {
            lock(&self.q).is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deque_owner_is_lifo_thieves_are_fifo() {
        let w = deque::Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        // Thief takes the oldest…
        assert!(matches!(s.steal(), deque::Steal::Success(1)));
        // …owner takes the newest.
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(matches!(s.steal(), deque::Steal::Empty));
    }

    #[test]
    fn injector_is_concurrent_fifo() {
        let inj = std::sync::Arc::new(deque::Injector::new());
        for i in 0..100 {
            inj.push(i);
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let inj = inj.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let deque::Steal::Success(v) = inj.steal() {
                    got.push(v);
                }
                got
            }));
        }
        let mut all: Vec<i32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
