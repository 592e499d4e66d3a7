//! The live event bus: bounded, lock-cheap broadcast of recorded
//! events to in-process subscribers.
//!
//! Every enabled [`Obs`](crate::Obs) publishes each recorded event into
//! the bus *under the same lock that orders the journal*, so a
//! subscriber observes events in exactly journal order. Subscribers are
//! **non-blocking**: each one owns a bounded queue, and when the queue
//! is full the event is *dropped for that subscriber* — never held, and
//! never allowed to backpressure the recording hot path. Drops are
//! accounted explicitly, per subscriber ([`BusSubscriber::dropped`])
//! and globally (`swdual_bus_dropped_events` in the Prometheus export),
//! so a lagging consumer is visible instead of silent.
//!
//! Cost model:
//! * disabled recorder — no bus exists at all (the usual
//!   allocation-free early return);
//! * enabled recorder, no taps — one relaxed atomic load per event;
//! * enabled recorder with taps — one `VecDeque` push (or an atomic
//!   drop count) per tap per event.
//!
//! The flight recorder's overwrite-oldest ring
//! ([`crate::flight::FlightRecorder`]) rides the same tap list with
//! different full-queue semantics: a ring keeps the *newest* N events,
//! a subscriber queue keeps the *oldest* pending ones and drops the
//! rest (a live consumer must not lose the stream's past, a crash dump
//! must not lose its present).

use crate::flight::RingShared;
use crate::Event;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on a subscriber's pending queue.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 4096;

/// Shared state of one subscription: the bounded queue the publisher
/// pushes into and the subscriber drains from.
pub(crate) struct SubShared {
    capacity: usize,
    queue: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
    closed: AtomicBool,
}

/// One tap on the bus: a subscriber queue (drop-newest when full) or a
/// flight-recorder ring (overwrite-oldest).
enum Tap {
    Queue(Arc<SubShared>),
    Ring(Arc<RingShared>),
}

/// The broadcast fan-out carried by every enabled recorder.
#[derive(Default)]
pub(crate) struct Bus {
    /// Open-tap count, checked before touching the tap list so the
    /// common no-subscriber publish costs one relaxed atomic load.
    tap_count: AtomicUsize,
    /// Events dropped across all subscribers since the recorder was
    /// created (ring taps never drop — they overwrite).
    dropped_total: AtomicU64,
    taps: Mutex<Vec<Tap>>,
}

impl Bus {
    /// Open a new bounded subscription.
    pub(crate) fn subscribe(&self, capacity: usize) -> Arc<SubShared> {
        let shared = Arc::new(SubShared {
            capacity: capacity.max(1),
            queue: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let mut taps = self.taps.lock().expect("bus taps lock");
        taps.push(Tap::Queue(Arc::clone(&shared)));
        self.tap_count.fetch_add(1, Ordering::Relaxed);
        shared
    }

    /// Attach a flight-recorder ring as a tap.
    pub(crate) fn attach_ring(&self, ring: Arc<RingShared>) {
        let mut taps = self.taps.lock().expect("bus taps lock");
        taps.push(Tap::Ring(ring));
        self.tap_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Deliver one event to every open tap. The caller holds the
    /// journal's event lock, so tap delivery order equals journal
    /// order. Closed subscriptions are swept out here, lazily.
    pub(crate) fn publish(&self, event: &Event) {
        if self.tap_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut taps = self.taps.lock().expect("bus taps lock");
        taps.retain(|tap| match tap {
            Tap::Queue(s) => {
                if s.closed.load(Ordering::Relaxed) {
                    self.tap_count.fetch_sub(1, Ordering::Relaxed);
                    return false;
                }
                let mut queue = s.queue.lock().expect("bus queue lock");
                if queue.len() < s.capacity {
                    queue.push_back(event.clone());
                } else {
                    // Never block, never grow: account the drop and
                    // move on. The subscriber reconciles via dropped().
                    s.dropped.fetch_add(1, Ordering::Relaxed);
                    self.dropped_total.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
            Tap::Ring(r) => {
                r.record(event);
                true
            }
        });
    }

    /// Events dropped across all subscribers so far.
    pub(crate) fn dropped_total(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }
}

/// A handle to one bounded subscription on a recorder's event bus.
///
/// Obtained from [`Obs::subscribe`](crate::Obs::subscribe). Dropping
/// the handle closes the subscription (the publisher sweeps it out on
/// its next event). A subscriber on a *disabled* recorder is inert:
/// it allocates nothing, receives nothing and reports zero drops.
pub struct BusSubscriber(Option<Arc<SubShared>>);

impl BusSubscriber {
    pub(crate) fn live(shared: Arc<SubShared>) -> BusSubscriber {
        BusSubscriber(Some(shared))
    }

    /// The inert subscriber a disabled recorder hands out.
    pub(crate) fn disabled() -> BusSubscriber {
        BusSubscriber(None)
    }

    /// Whether this subscription is backed by a live recorder.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Pop the oldest pending event, if any. Never blocks.
    pub fn try_recv(&self) -> Option<Event> {
        let shared = self.0.as_ref()?;
        shared.queue.lock().expect("bus queue lock").pop_front()
    }

    /// Drain every pending event, oldest first. Never blocks.
    pub fn drain(&self) -> Vec<Event> {
        match &self.0 {
            Some(shared) => {
                let mut queue = shared.queue.lock().expect("bus queue lock");
                queue.drain(..).collect()
            }
            None => Vec::new(),
        }
    }

    /// Drain into a caller-owned buffer (appended), returning how many
    /// events arrived. Lets steady-state consumers reuse one
    /// allocation.
    pub fn drain_into(&self, buf: &mut Vec<Event>) -> usize {
        match &self.0 {
            Some(shared) => {
                let mut queue = shared.queue.lock().expect("bus queue lock");
                let n = queue.len();
                buf.extend(queue.drain(..));
                n
            }
            None => 0,
        }
    }

    /// Events the publisher dropped on this subscription because the
    /// queue was full. `received + pending + dropped` always equals the
    /// number of events published since the subscription opened.
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(shared) => shared.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Pending (delivered but not yet drained) events.
    pub fn pending(&self) -> usize {
        match &self.0 {
            Some(shared) => shared.queue.lock().expect("bus queue lock").len(),
            None => 0,
        }
    }
}

impl Drop for BusSubscriber {
    fn drop(&mut self) {
        if let Some(shared) = &self.0 {
            shared.closed.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testkit::job;
    use crate::{EventBody, Obs, Track};

    #[test]
    fn subscriber_sees_events_in_journal_order() {
        let obs = Obs::enabled();
        obs.instant(Track::Master, EventBody::other("before"));
        let sub = obs.subscribe();
        obs.instant(Track::Master, EventBody::other("a"));
        obs.span(Track::Worker(0), 0.0, 1.0, Some((0.0, 1.0)), job(0, None));
        obs.instant(Track::Faults, EventBody::other("b"));
        let names: Vec<String> = sub
            .drain()
            .into_iter()
            .map(|e| e.name().into_owned())
            .collect();
        // Only events published after subscribing arrive, in order.
        assert_eq!(names, vec!["a", "task-0", "b"]);
        assert_eq!(sub.dropped(), 0);
    }

    #[test]
    fn full_queue_drops_newest_and_accounts_for_it() {
        let obs = Obs::enabled();
        let sub = obs.subscribe_with_capacity(2);
        for i in 0..5 {
            obs.instant(Track::Master, EventBody::other(&format!("e{i}")));
        }
        let names: Vec<String> = sub
            .drain()
            .into_iter()
            .map(|e| e.name().into_owned())
            .collect();
        // Oldest pending survive; the overflow was dropped, not queued.
        assert_eq!(names, vec!["e0", "e1"]);
        assert_eq!(sub.dropped(), 3);
        assert_eq!(obs.bus_dropped_events(), 3);
        // Draining frees capacity again.
        obs.instant(Track::Master, EventBody::other("late"));
        assert_eq!(sub.drain().len(), 1);
        assert_eq!(sub.dropped(), 3);
    }

    #[test]
    fn dropping_the_subscriber_closes_the_tap() {
        let obs = Obs::enabled();
        let sub = obs.subscribe();
        obs.instant(Track::Master, EventBody::other("seen"));
        assert_eq!(sub.pending(), 1);
        drop(sub);
        // The publisher sweeps the closed tap on the next event and
        // keeps recording normally.
        obs.instant(Track::Master, EventBody::other("unseen"));
        obs.instant(Track::Master, EventBody::other("unseen2"));
        assert_eq!(obs.event_count(), 3);
        assert_eq!(obs.bus_dropped_events(), 0);
    }

    #[test]
    fn disabled_recorder_hands_out_an_inert_subscriber() {
        let obs = Obs::disabled();
        let sub = obs.subscribe();
        assert!(!sub.is_live());
        obs.instant(Track::Master, EventBody::other("nothing"));
        assert!(sub.drain().is_empty());
        assert!(sub.try_recv().is_none());
        assert_eq!(sub.dropped(), 0);
        assert_eq!(sub.pending(), 0);
        assert_eq!(obs.bus_dropped_events(), 0);
    }

    #[test]
    fn multiple_subscribers_each_get_the_full_stream() {
        let obs = Obs::enabled();
        let a = obs.subscribe();
        let b = obs.subscribe_with_capacity(1);
        obs.instant(Track::Master, EventBody::other("x"));
        obs.instant(Track::Master, EventBody::other("y"));
        assert_eq!(a.drain().len(), 2);
        assert_eq!(b.drain().len(), 1); // capacity 1: second dropped
        assert_eq!(b.dropped(), 1);
        assert_eq!(obs.bus_dropped_events(), 1);
    }

    #[test]
    fn concurrent_publishers_yield_a_journal_consistent_stream() {
        let obs = Obs::enabled();
        let sub = obs.subscribe_with_capacity(10_000);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let handle = obs.clone();
                scope.spawn(move || {
                    for j in 0..100 {
                        handle.span(Track::Worker(w), 0.0, 0.1, None, job(j, None));
                    }
                });
            }
        });
        let journal: Vec<(String, String)> = obs
            .events()
            .iter()
            .map(|e| (e.track.label(), e.name().into_owned()))
            .collect();
        let seen: Vec<(String, String)> = sub
            .drain()
            .into_iter()
            .map(|e| (e.track.label(), e.name().into_owned()))
            .collect();
        // Nothing dropped at this capacity, so the streams are equal —
        // publication happens under the journal's own ordering lock.
        assert_eq!(sub.dropped(), 0);
        assert_eq!(seen, journal);
    }
}
