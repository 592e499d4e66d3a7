//! Property tests for the live bus and the flight ring.
//!
//! The contract under test: what a subscriber observes is a
//! prefix-preserving subsequence of the journal (events arrive in
//! journal order, a saturated queue loses individual events but never
//! reorders), and the events it does *not* observe are exactly the
//! drop counter — `received + dropped == published`, always.

use proptest::prelude::*;
use swdual_obs::{EventBody, FlightRecorder, Obs, Track};

proptest! {
    #[test]
    fn subscriber_stream_is_a_journal_subsequence_with_exact_drops(
        capacity in 1usize..8,
        // op 0 = drain, anything else = publish an event.
        ops in prop::collection::vec(0u8..6, 1..200),
    ) {
        let obs = Obs::enabled();
        // Pre-subscribe traffic must never be delivered.
        obs.instant(Track::Master, EventBody::other("pre"));
        let sub = obs.subscribe_with_capacity(capacity);

        let mut received: Vec<String> = Vec::new();
        let mut published: Vec<String> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if *op == 0 {
                received.extend(sub.drain().into_iter().map(|e| e.name().into_owned()));
            } else {
                let name = format!("e{i}");
                obs.instant(Track::Master, EventBody::other(&name));
                published.push(name);
            }
        }
        received.extend(sub.drain().into_iter().map(|e| e.name().into_owned()));

        // Exact accounting: nothing is lost silently.
        prop_assert_eq!(
            received.len() as u64 + sub.dropped(),
            published.len() as u64
        );
        prop_assert_eq!(sub.dropped(), obs.bus_dropped_events());

        // No pre-subscribe leakage.
        prop_assert!(received.iter().all(|n| n != "pre"));

        // Subsequence of the published order: every received event
        // matches a strictly later publication than the previous one.
        let mut idx = 0usize;
        for name in &received {
            match published[idx..].iter().position(|p| p == name) {
                Some(pos) => idx += pos + 1,
                None => prop_assert!(false, "{name} not a later publication"),
            }
        }

        // Prefix preservation: with no drops the streams are equal —
        // and in general the received stream starts with the published
        // prefix up to the first drop (the queue drops the newest
        // event, never an already-queued one).
        if sub.dropped() == 0 {
            prop_assert_eq!(&received, &published);
        } else {
            let intact = received
                .iter()
                .zip(published.iter())
                .take_while(|(r, p)| r == p)
                .count();
            // Everything before the first divergence was delivered
            // contiguously; at least the first min(capacity, published)
            // events can never have been dropped.
            prop_assert!(intact >= capacity.min(published.len()));
        }
    }

    #[test]
    fn flight_ring_retains_exactly_the_newest_events(
        capacity in 1usize..16,
        count in 0usize..64,
    ) {
        let obs = Obs::enabled();
        let flight = FlightRecorder::new(capacity);
        obs.attach_flight(&flight);
        for i in 0..count {
            obs.instant(Track::Worker(i % 3), EventBody::other(&format!("e{i}")));
        }
        let held: Vec<String> = flight.events().into_iter().map(|e| e.name().into_owned()).collect();
        let expect: Vec<String> = (count.saturating_sub(capacity)..count)
            .map(|i| format!("e{i}"))
            .collect();
        prop_assert_eq!(held, expect);
        prop_assert_eq!(flight.seen(), count as u64);
        // Rings overwrite, they never count as bus drops.
        prop_assert_eq!(obs.bus_dropped_events(), 0);
        // And the dump parses as a journal fragment of exactly len().
        let parsed = swdual_obs::journal::parse_journal(&flight.dump_jsonl()).unwrap();
        prop_assert_eq!(parsed.len(), flight.len());
    }
}
