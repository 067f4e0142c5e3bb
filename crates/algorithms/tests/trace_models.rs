//! Tracing reaches model-priced runs: FAST under an identity
//! communication model must record exactly the search the homogeneous
//! path records — same counters, same trajectory — across the fuzz
//! corpus.

use fastsched_algorithms::{Fast, Scheduler, Workspace};
use fastsched_schedule::{AlphaBeta, CommModel, Machine};
use fastsched_trace::SearchTrace;
use fastsched_workloads::fuzz::fuzz_corpus;

#[test]
fn identity_model_runs_record_the_homogeneous_search() {
    let identity = Machine::from(CommModel::AlphaBeta(AlphaBeta::new(0, 1, 1)));
    let mut ws = Workspace::new();
    let mut probes = 0;
    for case in fuzz_corpus(0x7ACE, 12) {
        let fast = Fast::new();
        let mut plain = SearchTrace::recording();
        let homogeneous = &Machine::Homogeneous;
        let fresh = &mut Workspace::new();
        let expected = fast.run(&case.dag, case.procs, homogeneous, fresh, &mut plain);
        let mut priced = SearchTrace::recording();
        let schedule = fast.run(&case.dag, case.procs, &identity, &mut ws, &mut priced);
        assert_eq!(schedule, expected, "{}: schedules diverged", case.name);
        let schedule = schedule.expect("schedulable");
        assert_eq!(
            (
                priced.probes_attempted,
                priced.probes_accepted,
                priced.probes_reverted,
                priced.steps_skipped
            ),
            (
                plain.probes_attempted,
                plain.probes_accepted,
                plain.probes_reverted,
                plain.steps_skipped
            ),
            "{}: search counters diverged",
            case.name
        );
        assert_eq!(
            priced.to_report().trajectory(),
            plain.to_report().trajectory(),
            "{}: trajectories diverged",
            case.name
        );
        probes += priced.probes_attempted;
        ws.recycle(schedule);
    }
    assert!(probes > 0, "the corpus must exercise the search");
}
