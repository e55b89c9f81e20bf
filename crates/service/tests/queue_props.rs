//! Queue-semantics property tests: any interleaving of `submit` / `take` /
//! `complete` over the bounded queue preserves job-state monotonicity
//! (`queued → running → done | failed`), and backpressure never drops an
//! accepted job — after a full drain every accepted id is still observable
//! and terminal.
//!
//! The interleavings are driven through the non-blocking
//! [`JobQueue::try_take`] so each generated op sequence is one exact,
//! reproducible schedule (the vendored proptest derives its RNG from the
//! test name and case index).

use proptest::prelude::*;
use radionet_api::{Driver, RunReport, RunSpec};
use radionet_graph::families::Family;
use radionet_service::{JobQueue, JobState, SubmitError};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One canned report cloned into every completion — the queue never looks
/// inside it, so a single real run keeps the property cheap.
fn canned_report() -> RunReport {
    static REPORT: OnceLock<RunReport> = OnceLock::new();
    REPORT
        .get_or_init(|| Driver::standard().run(&RunSpec::new("luby-mis", Family::Path, 8)).unwrap())
        .clone()
}

/// Re-reads every known job and checks its rank never decreased.
fn check_monotone(queue: &JobQueue, ranks: &mut HashMap<u64, u8>) {
    for (&id, prev) in ranks.iter_mut() {
        let state = queue.status(id).expect("accepted jobs stay observable").state;
        assert!(state.rank() >= *prev, "job {id} moved backwards: rank {prev} -> {}", state.rank());
        *prev = state.rank();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleavings_keep_states_monotone_and_drop_no_job(
        cap in 1usize..5,
        ops in proptest::collection::vec((0u8..4, 0u64..16), 1..60),
    ) {
        let queue = JobQueue::new(cap);
        let mut accepted: Vec<u64> = Vec::new();
        let mut running: Vec<u64> = Vec::new();
        let mut ranks: HashMap<u64, u8> = HashMap::new();
        for (op, pick) in ops {
            match op {
                // Producer step: submit, checking backpressure honesty.
                0 => match queue.submit(RunSpec::new("luby-mis", Family::Path, 8)) {
                    Ok(id) => {
                        accepted.push(id);
                        ranks.insert(id, JobState::Queued.rank());
                    }
                    Err(SubmitError::QueueFull { capacity }) => {
                        prop_assert_eq!(capacity, cap);
                        let backlog = accepted
                            .iter()
                            .filter(|id| queue.status(**id).unwrap().state == JobState::Queued)
                            .count();
                        prop_assert_eq!(backlog, cap, "QueueFull only at the high-water mark");
                    }
                    Err(SubmitError::ShuttingDown) => {
                        unreachable!("queue was never shut down")
                    }
                },
                // Worker intake step.
                1 => {
                    if let Some((id, _spec)) = queue.try_take() {
                        prop_assert_eq!(queue.status(id).unwrap().state, JobState::Running);
                        running.push(id);
                    }
                }
                // Worker completion step (success or injected failure).
                2 | 3 if !running.is_empty() => {
                    let id = running.swap_remove(pick as usize % running.len());
                    if op == 2 {
                        queue.complete(id, Ok((canned_report(), false)));
                        prop_assert_eq!(queue.status(id).unwrap().state, JobState::Done);
                    } else {
                        queue.complete(id, Err("injected failure".into()));
                        prop_assert_eq!(queue.status(id).unwrap().state, JobState::Failed);
                    }
                }
                // An op with no eligible target is a no-op step.
                _ => {}
            }
            check_monotone(&queue, &mut ranks);
        }
        // Drain: a worker loop empties the queue and settles stragglers.
        while let Some((id, _)) = queue.try_take() {
            queue.complete(id, Ok((canned_report(), false)));
        }
        for id in running {
            queue.complete(id, Ok((canned_report(), false)));
        }
        check_monotone(&queue, &mut ranks);
        // Backpressure never dropped an accepted job: every accepted id is
        // observable, terminal, and carries the payload its state implies.
        for id in accepted {
            let snap = queue.status(id).expect("accepted job vanished");
            prop_assert!(snap.state.is_terminal(), "job {} stuck in {:?}", id, snap.state);
            match snap.state {
                JobState::Done => prop_assert!(snap.report.is_some()),
                JobState::Failed => prop_assert!(snap.error.is_some()),
                other => unreachable!("non-terminal terminal state {other:?}"),
            }
        }
    }

    #[test]
    fn capacity_frees_exactly_when_jobs_leave_the_backlog(
        cap in 1usize..4,
        complete in any::<bool>(),
    ) {
        let queue = JobQueue::new(cap);
        for _ in 0..cap {
            queue.submit(RunSpec::new("luby-mis", Family::Path, 8)).unwrap();
        }
        prop_assert!(matches!(
            queue.submit(RunSpec::new("luby-mis", Family::Path, 8)),
            Err(SubmitError::QueueFull { .. })
        ));
        // Freeing a slot by taking a job (and optionally completing it)
        // admits exactly one more.
        let (id, _) = queue.try_take().unwrap();
        if complete {
            queue.complete(id, Err("free the slot".into()));
        }
        prop_assert!(queue.submit(RunSpec::new("luby-mis", Family::Path, 8)).is_ok());
        prop_assert!(matches!(
            queue.submit(RunSpec::new("luby-mis", Family::Path, 8)),
            Err(SubmitError::QueueFull { .. })
        ));
    }
}
