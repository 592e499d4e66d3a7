//! The claim table of lent tasks, one per search.
//!
//! A task the master lends stays on its owner's queue. The helper
//! *claims* it here before computing it and leaves its result; whoever
//! is dispatched the task later *settles* it: it takes the helper's
//! result, waits for one the helper is still computing, or — when no
//! helper has started — keeps the task for itself, after which no
//! helper can claim it. Exactly one of them computes it, and the result
//! is the same either way: scores are a pure function of the task.
//!
//! `Slots` is that rule as plain transitions, which answer
//! `Settled::Wait` where an owner must wait; [`Claims`] wraps them in
//! a `Mutex` and a `Condvar`. A helper that unwinds mid-task releases
//! its claim ([`Claim`]'s `Drop`), so a settling owner never waits on a
//! helper that is gone.

use crate::messages::Hit;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use swdual_align::{PhaseTimings, TierStats};

/// What a helper computed for a lent task.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Lent {
    /// The best `top_k` hits of the task's slice, ranked.
    pub(crate) hits: Vec<Hit>,
    /// Where the tier ladder resolved its subjects.
    pub(crate) tiers: TierStats,
    /// Where the helper's time went, for the owner's phase split.
    pub(crate) timings: PhaseTimings,
}

#[derive(Debug)]
enum Slot {
    /// A helper is computing the task.
    Helping,
    /// A helper computed the task; its owner has not taken it yet.
    Helped(Lent),
    /// The task's owner keeps it: no helper may claim it.
    Kept,
}

/// What settling a lent task gives its owner.
#[derive(Debug, PartialEq)]
pub(crate) enum Settled {
    /// The helper's result.
    Lent(Lent),
    /// The task is the owner's to compute.
    Own,
    /// A helper is computing it: settle again once it is done.
    Wait,
}

/// The claim rule over lent tasks by id, without a lock.
#[derive(Debug, Default)]
pub(crate) struct Slots(HashMap<usize, Slot>);

impl Slots {
    /// A helper claims `task`: false when its owner kept it or another
    /// helper claimed it first.
    pub(crate) fn claim(&mut self, task: usize) -> bool {
        !self.0.contains_key(&task) && self.0.insert(task, Slot::Helping).is_none()
    }

    /// The helper leaves its result for `task`, or hands it back.
    pub(crate) fn fulfil(&mut self, task: usize, result: Option<Lent>) {
        match result {
            Some(lent) => self.0.insert(task, Slot::Helped(lent)),
            None => self.0.remove(&task),
        };
    }

    /// The owner's side of `task`. A result is taken once: a second
    /// settle (a re-dispatch) keeps the task.
    pub(crate) fn settle(&mut self, task: usize) -> Settled {
        match self.0.remove(&task) {
            Some(Slot::Helping) => {
                self.0.insert(task, Slot::Helping);
                Settled::Wait
            }
            Some(Slot::Helped(lent)) => Settled::Lent(lent),
            Some(Slot::Kept) | None => {
                self.0.insert(task, Slot::Kept);
                Settled::Own
            }
        }
    }
}

/// Lent tasks by id. See the module docs.
#[derive(Debug, Default)]
pub struct Claims {
    slots: Mutex<Slots>,
    changed: Condvar,
}

impl Claims {
    /// The table, whatever a thread that panicked while holding it left:
    /// every slot is whole between two statements that change it.
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's claim on `task`, or `None` when its owner kept it or
    /// another helper claimed it first.
    pub(crate) fn claim(&self, task: usize) -> Option<Claim<'_>> {
        let claimed = self.slots().claim(task);
        claimed.then(|| Claim { claims: self, task })
    }

    /// The owner's side: the helper's result for `task` — after waiting
    /// for the helper still computing it — or `None`, and the task is
    /// the caller's to compute.
    pub(crate) fn settle(&self, task: usize) -> Option<Lent> {
        let mut slots = self.slots();
        loop {
            match slots.settle(task) {
                Settled::Lent(lent) => return Some(lent),
                Settled::Own => return None,
                Settled::Wait => {
                    slots = self
                        .changed
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }

    fn finish(&self, task: usize, result: Option<Lent>) {
        self.slots().fulfil(task, result);
        self.changed.notify_all();
    }
}

/// A helper's hold on one task: fulfilled with its result, or released
/// unscored when dropped — on an unwind, say.
#[derive(Debug)]
pub(crate) struct Claim<'a> {
    claims: &'a Claims,
    task: usize,
}

impl Claim<'_> {
    /// Leave the result for the task's owner.
    pub(crate) fn fulfil(self, lent: Lent) {
        self.claims.finish(self.task, Some(lent));
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.claims.finish(self.task, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn lent(score: i32) -> Lent {
        Lent {
            hits: vec![Hit { db_index: 0, score }],
            tiers: TierStats::default(),
            timings: PhaseTimings::default(),
        }
    }

    #[test]
    fn an_owner_takes_a_fulfilled_result_once() {
        let claims = Claims::default();
        claims.claim(3).unwrap().fulfil(lent(7));
        assert!(claims.claim(3).is_none(), "no task is claimed twice");
        assert_eq!(claims.settle(3), Some(lent(7)));
        // Taken: a second settle (a re-dispatch) computes it itself.
        assert_eq!(claims.settle(3), None);
    }

    #[test]
    fn a_kept_task_cannot_be_claimed() {
        let claims = Claims::default();
        assert_eq!(claims.settle(4), None);
        assert!(claims.claim(4).is_none());
    }

    #[test]
    fn an_owner_waits_for_the_helper_computing_its_task() {
        let mut slots = Slots::default();
        assert!(slots.claim(1));
        assert_eq!(slots.settle(1), Settled::Wait);
        assert_eq!(slots.settle(1), Settled::Wait, "waiting changes nothing");
        slots.fulfil(1, Some(lent(9)));
        assert_eq!(slots.settle(1), Settled::Lent(lent(9)));

        let claims = Claims::default();
        let claim = claims.claim(1).unwrap();
        std::thread::scope(|scope| {
            let owner = scope.spawn(|| claims.settle(1));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!owner.is_finished(), "the owner waits on the claim");
            claim.fulfil(lent(9));
            assert_eq!(owner.join().unwrap(), Some(lent(9)));
        });
    }

    #[test]
    fn a_helper_that_unwinds_hands_the_task_back() {
        let claims = Claims::default();
        std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                let _claim = claims.claim(2).unwrap();
                panic!("the helper dies mid-task");
            });
            assert!(helper.join().is_err());
        });
        assert_eq!(claims.settle(2), None, "the owner computes it");
        assert!(claims.claim(2).is_none());
    }
}
