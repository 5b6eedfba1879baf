//! Exact gain-ledger assertions on a fixed 64-node torus run.
//!
//! The ledger's determinism contract is stronger than "same totals":
//! for a fixed job spec and seed, the entire entry sequence — passes,
//! levels, steps, signed gains, makespan trajectory — is byte-identical
//! across runs, telescopes exactly within every refinement run, and
//! cross-checks against the `refine.accepted` counter one for one.

use mimd_engine::TopologySpec;
use mimd_engine::{execute_job, AlgorithmSpec, JobSpec, TopologyCache, WorkloadSpec};
use mimd_telemetry::{split_runs, GainEntry, GainKind, GainLedger, Recorder};

fn torus_job(algorithm: AlgorithmSpec) -> JobSpec {
    JobSpec {
        id: None,
        workload: WorkloadSpec::Layered {
            tasks: 128,
            width: None,
        },
        clustering: None,
        topology: TopologySpec::Torus { rows: 8, cols: 8 },
        topology_seed: None,
        algorithm,
        seed: 7,
    }
}

fn run_with_ledger(spec: &JobSpec) -> (u64, Vec<GainEntry>, u64) {
    let cache = TopologyCache::new();
    let recorder = Recorder::enabled().with_ledger(GainLedger::enabled());
    let result = execute_job(spec, 0, &cache, &recorder);
    assert!(result.error.is_none(), "{:?}", result.error);
    (
        result.total_time,
        recorder.ledger().snapshot(),
        recorder.snapshot().counter("refine.accepted"),
    )
}

#[test]
fn multilevel_torus_ledger_is_exact_and_deterministic() {
    let spec = torus_job(AlgorithmSpec::Multilevel {
        direct_threshold: None,
        refine_rounds: None,
        refine_batch: None,
        refine_threads: None,
    });
    let (total_a, entries_a, accepted_a) = run_with_ledger(&spec);
    let (total_b, entries_b, accepted_b) = run_with_ledger(&spec);

    // Byte-identical across runs: same passes, steps, gains, totals.
    assert_eq!(total_a, total_b);
    assert_eq!(entries_a, entries_b);
    assert_eq!(accepted_a, accepted_b);
    assert!(
        !entries_a.is_empty(),
        "a V-cycle run records ledger entries"
    );

    // Steps are the ledger's own monotonic sequence.
    for (i, e) in entries_a.iter().enumerate() {
        assert_eq!(e.step, i as u64);
    }

    // Every refinement run opens with a baseline and telescopes: the
    // summed gains equal the makespan delta across that run, exactly.
    let runs = split_runs(&entries_a);
    assert!(runs.len() > 1, "one run per V-cycle level plus the top map");
    for run in &runs {
        assert_eq!(run[0].kind, GainKind::Baseline);
        let summed: i64 = run.iter().map(|e| e.gain).sum();
        let first = run[0].total_after as i64;
        let last = run.last().unwrap().total_after as i64;
        assert_eq!(summed, first - last, "run at step {}", run[0].step);
        // Within a run the trajectory is stepwise consistent too.
        for pair in run.windows(2) {
            assert_eq!(
                pair[1].gain,
                pair[0].total_after as i64 - pair[1].total_after as i64
            );
        }
    }

    // Accepted entries cross-check the refine.accepted counter 1:1.
    let accepts = entries_a
        .iter()
        .filter(|e| e.kind == GainKind::Accept)
        .count() as u64;
    assert_eq!(accepts, accepted_a);

    // The V-cycle attributes its passes: one scoped top-level map, then
    // per-level group refinement runs walking down to level 0.
    assert_eq!(entries_a[0].pass, "vcycle.initial_map");
    let refine_levels: Vec<u32> = runs
        .iter()
        .filter(|r| r[0].pass == "vcycle.refine")
        .map(|r| r[0].level)
        .collect();
    assert!(!refine_levels.is_empty());
    let mut sorted_desc = refine_levels.clone();
    sorted_desc.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(refine_levels, sorted_desc, "levels walk downward");
    assert_eq!(
        *refine_levels.last().unwrap(),
        0,
        "finest level refined last"
    );

    // The final entry leaves the makespan the job reported.
    assert_eq!(entries_a.last().unwrap().total_after, total_a);
}

#[test]
fn flat_paper_ledger_telescopes_to_the_reported_makespan() {
    let spec = torus_job(AlgorithmSpec::Paper {
        refine_iterations: None,
        exchange_pool: 8,
    });
    let (total, entries, accepted) = run_with_ledger(&spec);
    assert!(!entries.is_empty());
    // Flat refinement reports under its own pass names.
    assert!(entries
        .iter()
        .all(|e| e.pass == "flat.random" || e.pass == "flat.exchange"));
    let accepts = entries
        .iter()
        .filter(|e| e.kind == GainKind::Accept)
        .count() as u64;
    assert_eq!(accepts, accepted);
    for run in split_runs(&entries) {
        let summed: i64 = run.iter().map(|e| e.gain).sum();
        let first = run[0].total_after as i64;
        let last = run.last().unwrap().total_after as i64;
        assert_eq!(summed, first - last);
    }
    assert_eq!(entries.last().unwrap().total_after, total);
}

#[test]
fn disabled_ledger_records_nothing_and_changes_nothing() {
    let spec = torus_job(AlgorithmSpec::Multilevel {
        direct_threshold: None,
        refine_rounds: None,
        refine_batch: None,
        refine_threads: None,
    });
    let cache = TopologyCache::new();
    let plain = execute_job(&spec, 0, &cache, &Recorder::disabled());
    let (total, _, _) = run_with_ledger(&spec);
    assert_eq!(plain.total_time, total, "the ledger never alters results");
    let recorder = Recorder::disabled();
    let _ = execute_job(&spec, 0, &cache, &recorder);
    assert!(recorder.ledger().snapshot().is_empty());
}
