//! The traced run must not change what the host does: for every
//! workload, traced and untraced runs with the same seed give
//! identical `HostCounters`, and the benchmark's own correctness
//! checks pass.

use mbtls_perfbench::bench::{check, fixed_counters, Report};
use mbtls_perfbench::workload::Workload;

#[test]
fn traced_and_untraced_runs_give_identical_counters() {
    for workload in Workload::ALL {
        let (untraced, _) = fixed_counters(workload, 11, false).expect("untraced run");
        let (traced, _) = fixed_counters(workload, 11, true).expect("traced run");
        assert_eq!(
            untraced.completed(),
            workload.check_sessions() as u64,
            "{}",
            workload.name()
        );
        assert_eq!(traced, untraced, "{}", workload.name());
    }
}

#[test]
fn correctness_checks_pass_on_every_workload() {
    for workload in Workload::ALL {
        let mut report = Report::default();
        check(workload, 5, &mut report);
        assert!(
            report.problems.is_empty(),
            "{}: {:?}",
            workload.name(),
            report.problems
        );
        assert_eq!(report.failed, 0);
    }
}

#[test]
fn seeds_change_inputs_but_not_structure() {
    let (a, _) = fixed_counters(Workload::HandshakeFull, 1, false).expect("run");
    let (b, _) = fixed_counters(Workload::HandshakeFull, 2, false).expect("run");
    assert_eq!(a.completed(), b.completed());
    assert_ne!(
        a.handshake_latencies_ns(),
        b.handshake_latencies_ns(),
        "seeded link latency"
    );
}
