//! Minimal offline replacement for the `crossbeam` crate.
//!
//! Only `crossbeam::channel` is provided: an unbounded MPMC channel
//! with cloneable senders *and* receivers, blocking `recv`, and the
//! disconnect semantics the SWDUAL master/worker runtime relies on
//! (receiver iteration ends when every sender is dropped; sends fail
//! when every receiver is dropped).

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message like crossbeam's.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel is currently empty but senders remain.
        Empty,
        /// Channel is empty and every sender is dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`] and
    /// [`Receiver::recv_deadline`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait expired with no message.
        Timeout,
        /// Channel is empty and every sender is dropped.
        Disconnected,
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (MPMC: receivers steal from one queue).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails when every receiver is dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(msg));
            }
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            queue.push_back(msg);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake all blocked receivers so they can
                // observe the disconnect. A receiver checks `senders`
                // and starts to wait under the queue lock; passing
                // through the lock first puts this wake-up after any
                // receiver that has already made the check, which
                // would otherwise sleep through the only one it gets.
                drop(self.shared.queue.lock());
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self.shared.ready.wait(queue).expect("channel poisoned");
            }
        }

        /// Block until a message arrives, every sender is dropped, or
        /// `timeout` elapses.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(std::time::Instant::now() + timeout)
        }

        /// Block until a message arrives, every sender is dropped, or
        /// `deadline` passes.
        pub fn recv_deadline(&self, deadline: std::time::Instant) -> Result<T, RecvTimeoutError> {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .shared
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .expect("channel poisoned");
                queue = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            if let Some(msg) = queue.pop_front() {
                return Ok(msg);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator: yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_within_single_producer() {
        let (tx, rx) = channel::unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn iter_ends_only_after_all_senders_drop() {
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        let h = thread::spawn(move || {
            for i in 0..5 {
                tx2.send(i).unwrap();
            }
        });
        for i in 5..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        h.join().unwrap();
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_workers_drain_shared_queue_exactly_once() {
        let (tx, rx) = channel::unbounded();
        let n = 1000;
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rx = rx.clone();
            handles.push(thread::spawn(move || rx.iter().collect::<Vec<usize>>()));
        }
        drop(rx);
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_receivers_gone() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(channel::SendError(7)));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let (tx, rx) = channel::unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_racing_the_last_sender_drop_always_wakes() {
        // A receiver that has seen a live sender but not yet started to
        // wait must still get the disconnect's wake-up. Both sides
        // reach the race at a jittered moment; a lost wake-up shows as
        // a receiver that never reports back.
        use std::time::{Duration, Instant};
        let spin = |ns: u64| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_nanos(ns) {
                std::hint::spin_loop();
            }
        };
        for round in 0..20_000u64 {
            let (tx, rx) = channel::unbounded::<u32>();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            // A spinning rendezvous: a parked one would release the two
            // sides microseconds apart, wider than the race.
            let arrived = Arc::new(AtomicUsize::new(0));
            let rendezvous = |arrived: &AtomicUsize| {
                arrived.fetch_add(1, Ordering::AcqRel);
                while arrived.load(Ordering::Acquire) < 2 {
                    std::hint::spin_loop();
                }
            };
            let theirs = Arc::clone(&arrived);
            let h = thread::spawn(move || {
                rendezvous(&theirs);
                spin(round * 37 % 2000);
                done_tx.send(rx.recv()).unwrap();
            });
            rendezvous(&arrived);
            spin(round * 53 % 2000);
            drop(tx);
            let got = done_rx.recv_timeout(Duration::from_secs(5));
            assert_eq!(got, Ok(Err(channel::RecvError)), "round {round}");
            h.join().unwrap();
        }
    }

    #[test]
    fn blocking_recv_wakes_on_late_send() {
        let (tx, rx) = channel::unbounded::<u32>();
        let h = thread::spawn(move || rx.recv());
        thread::sleep(std::time::Duration::from_millis(20));
        tx.send(99).unwrap();
        assert_eq!(h.join().unwrap(), Ok(99));
    }
}
