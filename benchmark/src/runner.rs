//! One run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ones. Both end in an [`Outcome`] the caller prints.

use std::time::Instant;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::jobs::JobWorkload;
use crate::procstat::peak_rss_mb;
use crate::serve::ServeWorkload;
use crate::sessions::ReplayWorkload;
use crate::spans::Tracer;
use crate::stats::{fastest_quarter, median, percentile, tail, Tail};
use crate::workload::{Kind, Rep, RunContext, Verification, Workload};

/// Set-ups per untraced run: at least this many, and more while they
/// are cheap (see [`SETUP_SECONDS`]). `setup_s` is the median of their
/// fastest quarter.
const MIN_SETUPS: usize = 5;
/// Further set-ups are made until this much time has gone into them.
const SETUP_SECONDS: f64 = 2.0;
/// However cheap a set-up is, this many are enough.
const MAX_SETUPS: usize = 25;
/// No run needs more reps than this, however short they get.
const MAX_REPS: usize = 64;

/// What a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output verified, every digest equal, every stepwise
    /// replay equal to its end-to-end result.
    pub correct: bool,
    /// Ops (and opens) sent to the product over all reps.
    pub attempted: usize,
    /// Of those, errored + refused + unanswered + failed verification.
    pub failed: usize,
    /// `(name, unit, value)` in catalog order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Lines for the human-readable log: rep count, digests, which
    /// percentile each tail metric was read at, verification notes.
    pub notes: Vec<String>,
    /// Digest of the outputs (one value: all reps agreed, or `correct`
    /// is false).
    pub digest: u64,
}

fn rung_note(name: &str, tail: &Tail) -> String {
    format!(
        "{name}: read at p{:.0} of {} samples",
        tail.rung * 100.0,
        tail.samples
    )
}

/// Fold one verification into the running counts and notes.
fn fold_verification(verification: &Verification, failed: &mut usize, notes: &mut Vec<String>) {
    *failed += verification.failed;
    notes.push(format!(
        "verified {} outputs, {} failed",
        verification.checked, verification.failed
    ));
    notes.extend(verification.notes.iter().map(|n| format!("FAILED {n}")));
}

/// The untraced run: set up several times, run reps for `seconds`,
/// read the high-water mark, then verify the first rep's outputs.
fn untraced<W: Workload>(
    kind: Kind,
    context: &RunContext,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // The previous set-up must be gone first: two of them alive
        // would double the high-water mark.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::setup(kind, context, false)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("MIN_SETUPS >= 1");
    setup_s.sort_by(f64::total_cmp);
    let setups = setup_s.len();
    let setup_s = median(&setup_s[..fastest_quarter(setups)]);

    let mut reps: Vec<Rep> = Vec::new();
    let mut first_outputs = None;
    let started = Instant::now();
    loop {
        let (rep, outputs) = workload.rep(None)?;
        reps.push(rep);
        if first_outputs.is_none() {
            first_outputs = Some(outputs);
        }
        let typical = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        // Another rep only if it is expected to end within the budget.
        if reps.len() >= MAX_REPS || started.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mb();

    let mut notes = vec![format!(
        "{} set-ups, {} reps of {} {}s",
        setups,
        reps.len(),
        reps[0].op_ms.len(),
        kind.op()
    )];
    let mut failed: usize = reps.iter().map(|r| r.failed).sum();
    let attempted: usize = reps.iter().map(|r| r.attempted).sum();
    let verification = workload.verify(&first_outputs.expect("at least one rep"), None);
    fold_verification(&verification, &mut failed, &mut notes);
    let digest = reps[0].digest;
    let digests_agree = reps.iter().all(|r| r.digest == digest);
    if !digests_agree {
        notes.push("FAILED digests differ between reps".into());
    }
    notes.push(format!("digest {digest:016x}"));

    // This host slows by up to half for seconds to minutes at a time
    // (README.md, "Steadiness"), and in its worse hours the slow phases
    // fill most of a run, so a median over all reps, or over their
    // faster half, lands in one. Every timing is therefore read from
    // the fastest quarter of the reps only: their median wall and CPU
    // time, their pooled samples.
    let mut by_wall: Vec<&Rep> = reps.iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let kept = &by_wall[..fastest_quarter(reps.len())];
    notes.push(format!(
        "timings read from the fastest {} of {} reps",
        kept.len(),
        reps.len()
    ));
    notes.push(format!(
        "rep wall_s in run order: {}",
        reps.iter()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let wall_s = median(&kept.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let cpu_s = median(&kept.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
    let mut op_ms: Vec<f64> = kept.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    let open_ms: Vec<f64> = kept
        .iter()
        .flat_map(|r| r.open_ms.iter().copied())
        .collect();
    if op_ms.is_empty() {
        return Err("no op completed".into());
    }
    op_ms.sort_by(f64::total_cmp);
    let (at_95, at_99) = kind.tail_rungs();
    let op_p50 = percentile(&op_ms, 0.50);
    let op_p95 = tail(&op_ms, at_95);
    let op_p99 = tail(&op_ms, at_99);
    notes.push(format!("op_p50_ms: median of {} samples", op_ms.len()));
    notes.push(rung_note("op_p95_ms", &op_p95));
    notes.push(rung_note("op_p99_ms", &op_p99));
    // A job is its own opening op; only session workloads open.
    let open_p50 = if open_ms.is_empty() {
        notes.push("open_p50_ms: no sessions here, so it repeats op_p50_ms".to_string());
        op_p50
    } else {
        notes.push(format!("open_p50_ms: median of {} samples", open_ms.len()));
        median(&open_ms)
    };
    let quality = &reps[0].quality;
    let quality_mean = quality.iter().sum::<f64>() / quality.len().max(1) as f64;

    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "wall_s" => wall_s,
        "cpu_s" => cpu_s,
        "ops_per_s" => reps[0].op_ms.len() as f64 / wall_s,
        "op_p50_ms" => op_p50,
        "op_p95_ms" => op_p95.value,
        "op_p99_ms" => op_p99.value,
        "open_p50_ms" => open_p50,
        "quality_pct_over_lb" => quality_mean,
        "peak_rss_mb" => peak_rss,
        other => unreachable!("no value for end-to-end metric {other}"),
    };
    Ok(Outcome {
        correct: failed == 0 && digests_agree,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
        notes,
        digest,
    })
}

/// The traced run: reference reps (telemetry off, no spans) and
/// subject reps (telemetry on, every op in a span) alternating R S R S
/// R, then verification, the stepwise replay and the layer probes on
/// the first subject rep. Writes the trace file.
fn traced<W: Workload>(kind: Kind, context: &RunContext) -> Result<Outcome, String> {
    let mut reference = W::setup(kind, context, false)?;
    let mut subject = W::setup(kind, context, true)?;
    let mut tracer = Tracer::default();
    let (before, _) = reference.rep(None)?;
    let run = subject.rep(Some(&mut tracer))?;
    let (between, _) = reference.rep(None)?;
    let (again, _) = subject.rep(Some(&mut Tracer::default()))?;
    let (after, _) = reference.rep(None)?;
    drop(reference);

    // The cost of looking, from the fastest rep on either side: on
    // this host a single pair differs by far more than the overhead.
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let reference_wall = fastest(&[before.wall_s, between.wall_s, after.wall_s]);
    let subject_wall = fastest(&[run.0.wall_s, again.wall_s]);
    let reference_ops_per_s = before.op_ms.len() as f64 / reference_wall;
    let mut notes = Vec::new();
    let mut failed = run.0.failed;
    let verification = subject.verify(&run.1, Some(&mut tracer));
    fold_verification(&verification, &mut failed, &mut notes);
    let mut values = subject.layers(&mut tracer, &run, reference_ops_per_s)?;
    notes.push("stepwise replay equals the end-to-end result on every sampled op".into());
    values.insert(
        "telemetry.overhead_share",
        subject_wall / reference_wall - 1.0,
    );
    values.insert("trace.rep_wall_s", subject_wall);
    values.insert("trace.reference_wall_s", reference_wall);
    values.insert(
        "run.failed_share",
        failed as f64 / run.0.attempted.max(1) as f64,
    );
    if let Some(stray) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
    {
        return Err(format!("per-layer value '{stray}' is not in the catalog"));
    }

    std::fs::create_dir_all(&context.out_dir)
        .map_err(|e| format!("{}: {e}", context.out_dir.display()))?;
    let path = context.out_dir.join(format!("trace-{}.jsonl", kind.name()));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    for (name, totals) in tracer.totals().iter() {
        notes.push(format!(
            "span {name}: {} calls, total {:.6} s, self {:.6} s",
            totals.count,
            totals.total_ns as f64 / 1e9,
            totals.self_ns as f64 / 1e9
        ));
    }
    notes.push(format!("digest {:016x}", run.0.digest));

    Ok(Outcome {
        correct: failed == 0
            && [&before, &between, &again, &after]
                .iter()
                .all(|r| r.digest == run.0.digest),
        attempted: run.0.attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        notes,
        digest: run.0.digest,
    })
}

/// Run `kind` once: untraced for `seconds`, or traced.
pub fn run(kind: Kind, context: &RunContext, seconds: f64, trace: bool) -> Result<Outcome, String> {
    fn go<W: Workload>(
        kind: Kind,
        context: &RunContext,
        seconds: f64,
        trace: bool,
    ) -> Result<Outcome, String> {
        if trace {
            traced::<W>(kind, context)
        } else {
            untraced::<W>(kind, context, seconds)
        }
    }
    match kind {
        Kind::FlatBatch | Kind::VcycleScale | Kind::TopoCold => {
            go::<JobWorkload>(kind, context, seconds, trace)
        }
        Kind::ReplayChurn => go::<ReplayWorkload>(kind, context, seconds, trace),
        Kind::ServeSmall => go::<ServeWorkload>(kind, context, seconds, trace),
    }
}
