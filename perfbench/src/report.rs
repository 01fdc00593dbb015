//! Runs a workload and turns what it measured into named metrics.

use std::time::Instant;

use jvolve::Update;
use jvolve_classfile::ClassFile;
use jvolve_vm::{Vm, VmConfig};

use crate::fleet::{self, FleetResult};
use crate::kv::{self, Kv, KvConfig, KvResult};
use crate::setup::{self, Prepared, SetupTimes};
use crate::stats::{interquartile_mean, median, Sample};
use crate::trace::Tracer;
use crate::update::PHASES;
use crate::{out_dir, peak_rss_mb, Args, Progress};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// The steady window of each round.
const STEADY_WINDOW_NS: u64 = 500_000_000;

/// Fleet time of each round: whole chains, at least one.
const FLEET_ROUND_NS: u64 = 400_000_000;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// A finished run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every reply and update checked out.
    pub correct: bool,
    /// Requests, read-backs and updates attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Report lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: &'static str,
        n: usize,
    ) {
        let name = name.into();
        self.lines.push(format!(
            "metric {name} = {value} {unit} ({better} is better, n={n})"
        ));
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    /// A metric where lower is better.
    fn lower(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metric(name, value, unit, "lower", n);
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.lines.push(format!("FAIL {why}"));
    }

    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs set-up `SETUPS` times and keeps the last result. The bundles
/// are deleted only after the last set-up, so no set-up pays for
/// another's file removal.
fn set_up(config: &VmConfig) -> (Prepared, Vec<SetupTimes>) {
    let root = out_dir().join(format!("bundles-{}", std::process::id()));
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        let (prepared, t) = setup::prepare(config, &root.join(k.to_string()));
        times.push(t);
        last = Some(prepared);
    }
    std::fs::remove_dir_all(&root).expect("bundle scratch is removed");
    (last.expect("at least one set-up"), times)
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>()).expect("set-up ran")
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// What one pass measured.
struct Pass {
    kv: KvResult,
    fleet: FleetResult,
    /// `VmHWM` after the first round's kv segments, before any fleet
    /// shard thread existed, MB.
    kv_rss_mb: f64,
}

/// One pass: rounds of a steady window, a stream chain and fleet chains,
/// until `seconds` have passed (at least one round).
fn pass(
    cfg: &KvConfig,
    seconds: f64,
    releases: &[Vec<ClassFile>],
    updates: &[Update],
    vm: Vm,
    tracer: &mut Tracer,
    progress: &Progress,
) -> Pass {
    let t0 = Instant::now();
    let end_ns = (seconds * 1e9) as u64;
    let elapsed = || t0.elapsed().as_nanos() as u64;
    let mut fleet = FleetResult::default();
    let mut kv = Kv::start(cfg, releases, updates, vm, t0, tracer, progress);
    let mut kv_rss_mb = None;
    while kv_rss_mb.is_none() || elapsed() < end_ns {
        kv.steady_window(STEADY_WINDOW_NS);
        kv.stream_chain();
        // The shard threads' allocator arenas would move the peak from
        // run to run, so it is read before the first fleet chain.
        kv_rss_mb.get_or_insert_with(peak_rss_mb);
        let fleet_end = elapsed() + FLEET_ROUND_NS;
        loop {
            fleet::chain(&mut fleet, t0, releases, updates, kv.tracer(), progress);
            if elapsed() >= fleet_end {
                break;
            }
        }
        let ((a, f), (fa, ff)) = (kv.counts(), fleet.counts());
        progress.set(a + fa, f + ff);
    }
    Pass {
        kv: kv.finish(),
        fleet,
        kv_rss_mb: kv_rss_mb.expect("a round ran"),
    }
}

/// Runs the workload `args` names and reports it.
pub fn run(args: &Args, progress: &Progress) -> Outcome {
    let cfg = KvConfig {
        lazy: args.workload == "kv-stream-lazy",
        seed: args.seed,
    };
    let config = cfg.vm_config();
    let (prepared, setups) = set_up(&config);
    let setup_s = median_of(&setups, |t| t.total_s);
    let Prepared {
        releases,
        updates,
        vm,
    } = prepared;
    let mut out = Outcome::new();

    // A traced run splits its time between an untraced pass (the
    // reference for the overhead) and the traced pass.
    let seconds = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let mut tracer = Tracer::new(false);
    let plain = pass(
        &cfg,
        seconds,
        &releases,
        &updates,
        vm,
        &mut tracer,
        progress,
    );
    check(&mut out, &plain.kv);
    check_fleet(&mut out, &plain.fleet);
    let mut e2e = kv_end_to_end(&plain.kv, setup_s, plain.kv_rss_mb);
    e2e.note(format!(
        "diagnostic run_peak_rss_mb = {} MB (after the fleet chains)",
        peak_rss_mb()
    ));
    fleet_end_to_end(&mut e2e, &plain.fleet);
    out.correct &= e2e.correct;
    if !args.trace {
        out.lines.extend(e2e.lines);
        out.metrics = e2e.metrics;
        return out;
    }

    for m in &e2e.metrics {
        out.note(format!("untraced {} = {} {}", m.name, m.value, m.unit));
    }
    let mut tracer = Tracer::new(true);
    setup_layers(&mut out, &setups);
    let vm = setup::boot(&releases[0], &config);
    let traced = pass(
        &cfg,
        seconds,
        &releases,
        &updates,
        vm,
        &mut tracer,
        progress,
    );
    check(&mut out, &traced.kv);
    check_fleet(&mut out, &traced.fleet);
    kv_per_layer(&mut out, &traced.kv);
    fleet_per_layer(&mut out, &traced.fleet);
    reconcile(&mut out, &traced.kv);
    let mut traced_e2e = kv_end_to_end(&traced.kv, setup_s, traced.kv_rss_mb);
    fleet_end_to_end(&mut traced_e2e, &traced.fleet);
    out.correct &= traced_e2e.correct;
    for (before, after) in e2e.metrics.iter().zip(traced_e2e.metrics) {
        if before.unit == "us" || before.unit == "ms" {
            let name = format!("trace.overhead_{}", before.name);
            out.lower(name, after.value - before.value, before.unit, after.n);
        }
    }
    let path = out_dir().join(format!("spans-{}.csv", args.workload));
    match std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write_csv(&path)) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
    out
}

/// Adds a run's counts to the outcome and fails it on any wrong reply,
/// lost request or failed update.
fn check(out: &mut Outcome, r: &KvResult) {
    let (sent, failed) = r.requests;
    let updates = r.updates.len() as u64;
    let upd_failed = r.updates_failed();
    out.attempted += sent + r.read_back.0 + updates;
    out.failed += failed + r.read_back.1 + upd_failed;
    out.note(format!(
        "requests: {sent} sent, {failed} failed (req_failed_frac = {}); read-back: {} checked, {} wrong",
        failed as f64 / sent.max(1) as f64,
        r.read_back.0,
        r.read_back.1
    ));
    out.note(format!(
        "updates: {updates} attempted in {} chains, {upd_failed} failed (update_failed_frac = {})",
        r.stream.len(),
        upd_failed as f64 / updates.max(1) as f64
    ));
    for m in &r.mismatches {
        out.note(format!("  mismatch: {m}"));
    }
    if failed + r.read_back.1 + upd_failed > 0 || updates == 0 {
        out.fail("wrong replies, lost requests or failed updates".into());
    }
}

fn sample_ns(values: impl IntoIterator<Item = u64>) -> Sample {
    Sample::new(values.into_iter().map(|v| v as f64).collect())
}

/// Request and update samples of a kv run (ns), grouped by steady
/// window, by chain, or (requests due during an update) by update.
struct Groups {
    steady: Vec<Vec<u64>>,
    requests: Vec<Vec<u64>>,
    in_update: Vec<Vec<u64>>,
    pauses: Vec<Vec<u64>>,
    commits: Vec<Vec<u64>>,
}

fn groups(r: &KvResult) -> Groups {
    let chains = r.stream.len();
    let mut g = Groups {
        steady: r.steady.clone(),
        requests: Vec::new(),
        in_update: Vec::new(),
        pauses: vec![Vec::new(); chains],
        commits: vec![Vec::new(); chains],
    };
    for (c, requests) in r.stream.iter().enumerate() {
        let windows: Vec<(u64, u64)> = r
            .updates
            .iter()
            .filter(|u| u.chain == c)
            .map(|u| (u.rec.arrival, u.rec.commit))
            .collect();
        let (all, inside) = crate::update::split_by_windows(requests, &windows);
        g.requests.push(all);
        g.in_update.extend(inside);
    }
    for u in r.updates.iter().filter(|u| u.stats.is_some()) {
        g.pauses[u.chain].push(u.rec.pause.wall());
        g.commits[u.chain].push(u.rec.commit - u.rec.arrival);
    }
    g
}

impl Outcome {
    /// Adds the interquartile mean over `groups` of each group's `p`
    /// percentile (ns, reported in `scale` units): a slow window or chain
    /// of the host moves one group's figure, and the mean of the middle
    /// half neither jumps with it as a median of a few groups does nor
    /// follows the outliers. Fails the run when no group has samples.
    /// A `gated` metric goes into the result line; otherwise it is a
    /// printed diagnostic.
    fn grouped(
        &mut self,
        name: &str,
        groups: &[Vec<u64>],
        p: f64,
        scale: f64,
        unit: &'static str,
        gated: bool,
    ) {
        let per_group: Vec<f64> = groups
            .iter()
            .filter_map(|g| sample_ns(g.iter().copied()).percentile(p))
            .collect();
        let pooled = sample_ns(groups.iter().flatten().copied());
        match interquartile_mean(&per_group) {
            Some(v) if !gated => self.note(format!(
                "diagnostic {name} = {} {unit} (n={}, interquartile mean of {} groups; pooled p{p} = {} {unit} with {} samples beyond)",
                v / scale,
                pooled.len(),
                per_group.len(),
                pooled.percentile(p).unwrap_or(0.0) / scale,
                pooled.beyond(p)
            )),
            Some(v) => {
                self.metric(name, v / scale, unit, "lower", pooled.len());
                self.note(format!(
                    "  {name}: interquartile mean of {} groups; pooled p{p} = {} {unit} with {} samples beyond",
                    per_group.len(),
                    pooled.percentile(p).unwrap_or(0.0) / scale,
                    pooled.beyond(p)
                ));
            }
            None => self.fail(format!("{name}: no samples")),
        }
    }
}

/// The end-to-end metrics of a kv run.
fn kv_end_to_end(r: &KvResult, setup_s: f64, rss_mb: f64) -> Outcome {
    let mut out = Outcome::new();
    out.lower("setup_s", setup_s, "s", SETUPS);
    out.lower("peak_rss_mb", rss_mb, "MB", 1);
    let g = groups(r);
    // Only the update path's timings are gated. Request latencies are
    // printed, not gated: on a shared host the same guest work ran up to
    // 1.8 times slower for seconds at a time, and the single-threaded
    // request path moved the most, so from run to run their middle half
    // spread by 0.14 to 0.35 of the median, past the 0.25 a bound may
    // allow (see the README).
    out.grouped("steady_req_p50_us", &g.steady, 50.0, US, "us", false);
    out.grouped("steady_req_p90_us", &g.steady, 90.0, US, "us", false);
    out.grouped("req_p50_us", &g.requests, 50.0, US, "us", false);
    out.grouped("req_p90_us", &g.requests, 90.0, US, "us", false);
    out.grouped("upd_req_p50_us", &g.in_update, 50.0, US, "us", false);
    out.grouped("upd_req_p90_us", &g.in_update, 90.0, US, "us", false);
    out.grouped("pause_p50_us", &g.pauses, 50.0, US, "us", true);
    out.grouped("pause_p90_us", &g.pauses, 90.0, US, "us", false);
    out.grouped("commit_p50_ms", &g.commits, 50.0, MS, "ms", true);
    out
}

/// The set-up layers: medians over the run's set-ups.
fn setup_layers(out: &mut Outcome, setups: &[SetupTimes]) {
    type Layer = fn(&SetupTimes) -> f64;
    let layers: [(&str, Layer); 5] = [
        ("lang.compile_ms", |t| t.compile_ms),
        ("upt.prepare_ms", |t| t.prepare_ms),
        ("bundle.emit_ms", |t| t.emit_ms),
        ("bundle.load_ms", |t| t.load_ms),
        ("vm.boot_ms", |t| t.boot_ms),
    ];
    for (name, layer) in layers {
        out.lower(name, median_of(setups, layer), "ms", setups.len());
    }
}

/// The per-layer metrics of a traced kv run.
fn kv_per_layer(out: &mut Outcome, r: &KvResult) {
    // Controller: per-update step time in each phase, medians over updates.
    let committed: Vec<_> = r
        .updates
        .iter()
        .filter_map(|u| Some((u, u.stats.as_ref()?)))
        .collect();
    let k = committed.len();
    let per_update = |f: &dyn Fn(&kv::Measured, &jvolve::UpdateStats) -> f64| {
        Sample::new(committed.iter().map(|(u, s)| f(u, s)).collect())
    };
    for (i, phase) in PHASES.iter().enumerate().take(4) {
        let s = per_update(&|u, _| u.rec.phase_ns[i] as f64 / US);
        out.lower(
            format!("ctl.{phase}_us"),
            s.percentile(50.0).unwrap_or(0.0),
            "us",
            k,
        );
    }
    let s = per_update(&|_, s| s.slices_waited as f64);
    out.lower("ctl.safepoint_slices", s.mean().unwrap_or(0.0), "count", k);
    let lazy_steps = sample_ns(
        committed
            .iter()
            .flat_map(|(u, _)| u.rec.lazy_steps.iter().copied()),
    );
    out.lower(
        "ctl.lazy_step_us_p50",
        lazy_steps.percentile(50.0).unwrap_or(0.0) / US,
        "us",
        lazy_steps.len(),
    );
    out.lower(
        "ctl.lazy_step_us_max",
        lazy_steps.max().unwrap_or(0.0) / US,
        "us",
        lazy_steps.len(),
    );
    let s = per_update(&|u, _| u.rec.phase_ns[4] as f64 / US);
    out.lower(
        "ctl.lazy_total_us",
        s.percentile(50.0).unwrap_or(0.0),
        "us",
        k,
    );
    let s = per_update(&|u, _| u.rec.phase_steps[4] as f64);
    out.lower("ctl.lazy_steps", s.mean().unwrap_or(0.0), "count", k);
    let s = per_update(&|_, s| s.total_time.as_nanos() as f64 / US);
    out.lower(
        "ctl.stats_total_us",
        s.percentile(50.0).unwrap_or(0.0),
        "us",
        k,
    );
    let s = per_update(&|u, _| {
        (u.rec.pause.wall() - u.rec.pause.phase_ns.iter().sum::<u64>()) as f64 / US
    });
    out.lower(
        "ctl.pause_outside_steps_us",
        s.percentile(50.0).unwrap_or(0.0),
        "us",
        k,
    );
    type Count = fn(&jvolve::UpdateStats) -> usize;
    let counts: [(&str, Count); 5] = [
        ("ctl.classes_loaded", |s| s.classes_loaded),
        ("ctl.methods_invalidated", |s| s.methods_invalidated),
        ("ctl.osr_replacements", |s| s.osr_replacements),
        ("ctl.objects_transformed", |s| s.objects_transformed),
        ("ctl.gc_copied_words", |s| s.gc_copied_words),
    ];
    for (name, f) in counts {
        let s = per_update(&|_, s| f(s) as f64);
        out.lower(name, s.mean().unwrap_or(0.0), "count", k);
    }

    // VM: dispatch, JIT and GC over the stream chains; busy time also
    // over the steady windows.
    for (prefix, u) in [("vm.steady_", &r.steady_vm), ("vm.", &r.stream_vm)] {
        let reqs = u.requests.max(1) as f64;
        out.lower(
            format!("{prefix}busy_ns_per_req"),
            u.busy_ns as f64 / reqs,
            "ns",
            u.requests as usize,
        );
        out.lower(
            format!("{prefix}steps_per_req"),
            u.stats.steps as f64 / reqs,
            "count",
            u.requests as usize,
        );
    }
    let s = &r.stream_vm.stats;
    let calls = (s.ic_hits + s.ic_misses).max(1);
    out.metric(
        "vm.ic_hit_rate",
        s.ic_hits as f64 / calls as f64,
        "ratio",
        "higher",
        calls as usize,
    );
    out.metric(
        "vm.fused_step_frac",
        s.fused_steps as f64 / s.steps.max(1) as f64,
        "ratio",
        "higher",
        s.steps as usize,
    );
    out.lower("vm.jit_compiles", s.jit_compiles as f64, "count", 1);
    out.lower("vm.deopts", s.deopts as f64, "count", 1);
    let reqs = (r.steady_vm.requests + r.stream_vm.requests).max(1);
    let gcs = r.steady_vm.stats.gcs + s.gcs;
    out.lower(
        "gc.count_per_kreq",
        gcs as f64 * 1e3 / reqs as f64,
        "count",
        reqs as usize,
    );
    let gc = sample_ns(r.gc_slices.iter().copied());
    out.lower(
        "gc.slice_us_p50",
        gc.percentile(50.0).unwrap_or(0.0) / US,
        "us",
        gc.len(),
    );
    out.lower(
        "gc.slice_us_max",
        gc.max().unwrap_or(0.0) / US,
        "us",
        gc.len(),
    );
    let stale = committed
        .iter()
        .map(|(u, _)| u.stale_peak)
        .max()
        .unwrap_or(0);
    out.lower("lazy.stale_peak", stale as f64, "count", k);
    let late = sample_ns(r.late.iter().copied());
    out.lower(
        "gen.late_us_p99",
        late.percentile(99.0).unwrap_or(0.0) / US,
        "us",
        late.len(),
    );
    out.lower(
        "gen.late_us_max",
        late.max().unwrap_or(0.0) / US,
        "us",
        late.len(),
    );

    // Diagnostics, not gated: the tail the bounds leave out.
    let steady = sample_ns(r.steady.iter().flatten().copied());
    let all = sample_ns(r.stream.iter().flatten().map(|d| d.1));
    for (name, s) in [("steady_req", &steady), ("req", &all)] {
        for p in [99.0, 99.9] {
            if let Some(v) = s.percentile(p) {
                out.note(format!(
                    "diagnostic {name}_p{p}_us = {} us (n={}, {} beyond)",
                    v / US,
                    s.len(),
                    s.beyond(p)
                ));
            }
        }
    }
}

/// Per update: the outside-measured pause beside the sum of the step
/// times inside it (by phase) and the controller's own `total_time`.
fn reconcile(out: &mut Outcome, r: &KvResult) {
    out.note("reconcile: update pause_us = steps_in_pause_us [pending safepoint installing transforming_heap] | stats_total_us".into());
    for (i, u) in r.updates.iter().enumerate() {
        let p = &u.rec.pause;
        let phases: Vec<String> = p
            .phase_ns
            .iter()
            .take(4)
            .map(|ns| format!("{:.1}", *ns as f64 / US))
            .collect();
        let total = u.stats.as_ref().map_or("aborted".to_string(), |s| {
            format!("{:.1}", s.total_time.as_nanos() as f64 / US)
        });
        out.note(format!(
            "reconcile: {i} pause_us = {:.1} steps_in_pause_us = {:.1} [{}] | stats_total_us = {total}",
            p.wall() as f64 / US,
            p.phase_ns.iter().sum::<u64>() as f64 / US,
            phases.join(" ")
        ));
    }
}

/// Adds a fleet run's counts to the outcome and fails it on any wrong
/// or lost request or unclean roll.
fn check_fleet(out: &mut Outcome, r: &FleetResult) {
    let (attempted, failed) = r.counts();
    out.attempted += attempted;
    out.failed += failed;
    let requests: u64 = r
        .batches
        .iter()
        .map(|(_, b)| b.completed + b.incorrect)
        .sum();
    let wrong: u64 = r.batches.iter().map(|(_, b)| b.incorrect).sum();
    let mid: u64 = r.rolls.iter().map(|x| x.report.mid_roll_responses).sum();
    let dropped: u64 = r.rolls.iter().map(|x| x.report.dropped).sum();
    let bad = r.rolls.iter().filter(|x| !x.clean).count();
    out.note(format!(
        "fleet requests: {requests} in batches, {wrong} wrong; {mid} served mid-roll, {dropped} dropped (req_failed_frac = {})",
        (wrong + dropped) as f64 / (requests + mid + dropped).max(1) as f64
    ));
    out.note(format!(
        "fleet rolls: {} attempted in {} chains, {bad} not clean (update_failed_frac = {})",
        r.rolls.len(),
        r.chains,
        bad as f64 / r.rolls.len().max(1) as f64
    ));
    for x in r.rolls.iter().filter(|x| !x.clean).take(3) {
        out.note(format!(
            "  unclean roll: {:?}",
            x.report
                .shards
                .iter()
                .map(|s| &s.detail)
                .collect::<Vec<_>>()
        ));
    }
    if failed > 0 || dropped > 0 || r.rolls.is_empty() {
        out.fail("wrong or lost requests, or unclean rolls".into());
    }
}

/// Adds the fleet chains' end-to-end metrics to a kv run's, grouped by
/// chain like the stream's.
fn fleet_end_to_end(out: &mut Outcome, r: &FleetResult) {
    let mut rolls = vec![Vec::new(); r.chains];
    let mut served = vec![(0u64, 0f64); r.chains];
    for x in &r.rolls {
        rolls[x.chain].push(x.wall);
    }
    for (chain, b) in &r.batches {
        served[*chain].0 += b.completed;
        served[*chain].1 += b.wall.as_secs_f64();
    }
    out.grouped("roll_p50_ms", &rolls, 50.0, MS, "ms", true);
    let per_chain: Vec<f64> = served
        .iter()
        .filter(|(_, wall)| *wall > 0.0)
        .map(|(done, wall)| *done as f64 / wall)
        .collect();
    match interquartile_mean(&per_chain) {
        Some(v) => {
            out.metric("batch_rps", v, "1/s", "higher", r.batches.len());
            out.note(format!(
                "  batch_rps: interquartile mean of {} chains' requests per second of batch time",
                per_chain.len()
            ));
        }
        None => out.fail("batch_rps: no batches".into()),
    }
}

/// The per-layer metrics of a traced fleet run.
fn fleet_per_layer(out: &mut Outcome, r: &FleetResult) {
    let rolls = sample_ns(r.rolls.iter().map(|x| x.wall));
    out.lower(
        "fleet.roll_ms",
        rolls.percentile(50.0).unwrap_or(0.0) / MS,
        "ms",
        rolls.len(),
    );
    let shards: Vec<[u64; PHASES.len()]> = r
        .rolls
        .iter()
        .flat_map(|x| x.shard_phase_ns.iter().copied())
        .collect();
    for (i, phase) in PHASES.iter().enumerate().skip(1) {
        let s = sample_ns(shards.iter().map(|p| p[i]));
        out.lower(
            format!("fleet.shard_{phase}_us"),
            s.percentile(50.0).unwrap_or(0.0) / US,
            "us",
            s.len(),
        );
    }
    let mid = Sample::new(
        r.rolls
            .iter()
            .map(|x| x.report.mid_roll_responses as f64)
            .collect(),
    );
    out.metric(
        "fleet.mid_roll_responses",
        mid.mean().unwrap_or(0.0),
        "count",
        "higher",
        mid.len(),
    );
    let batches = sample_ns(r.batches.iter().map(|(_, b)| b.wall.as_nanos() as u64));
    out.lower(
        "fleet.batch_ms",
        batches.percentile(50.0).unwrap_or(0.0) / MS,
        "ms",
        batches.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvolve_json::Json;

    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let entries = json.get(key).and_then(Json::as_arr).expect("a list");
        entries
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// The result line carries exactly the metrics `BENCHMARK.json`
    /// lists, in its order, for every gated workload and both modes.
    #[test]
    fn emits_exactly_the_metrics_benchmark_json_lists() {
        for workload in listed("workloads") {
            assert!(crate::WORKLOADS.contains(&workload.as_str()), "{workload}");
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: workload.clone(),
                    seed: 1,
                    seconds: 2,
                    trace,
                    git_rev: String::new(),
                };
                let out = run(&args, &Progress::new());
                let got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
                assert_eq!(got, listed(key), "{workload}, trace {trace}");
            }
        }
    }
}
