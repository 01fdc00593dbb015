//! The fleet chains of every workload: two OS-thread kvstore shards
//! behind `apps::fleet`, serving closed batches of `Fleet::run_requests`
//! between `Fleet::roll`s of the same 20 updates, with the fleet defaults
//! (lazy commits, background load during each roll). Each chain boots a
//! fresh fleet at 1.0 and rolls it to 1.20; the chains run between the
//! kv segments of each round.

use std::sync::Arc;
use std::time::Instant;

use jvolve::{Update, UpdateEvent};
use jvolve_apps::fleet::LoadReport;
use jvolve_apps::harness::{app_vm_config, bench_apply_options};
use jvolve_apps::{Fleet, Kvstore, RollOptions, RollReport};
use jvolve_classfile::ClassFile;
use jvolve_vm::VmConfig;

use crate::trace::Tracer;
use crate::update::{phase_index, PHASES};
use crate::Progress;

/// Shards per fleet.
pub const SHARDS: usize = 2;
/// Requests per batch between rolls.
pub const BATCH: u64 = 200;

/// One roll as measured. The report's fingerprints and event stream are
/// summarised and dropped as soon as the roll ends, so that the harness
/// does not hold thousands of them and `peak_rss_mb` measures the program.
pub struct Roll {
    /// Wall time of `Fleet::roll`, ns.
    pub wall: u64,
    /// Chain the roll belongs to.
    pub chain: usize,
    /// Whether every shard committed, passed its health gate and
    /// converged, with no request lost or wrong.
    pub clean: bool,
    /// Controller time per phase bucket summed over each shard's update,
    /// from the `PhaseExited` events.
    pub shard_phase_ns: Vec<[u64; PHASES.len()]>,
    /// What the fleet reported, without fingerprints and events.
    pub report: RollReport,
}

impl Roll {
    fn new(wall: u64, chain: usize, mut report: RollReport) -> Roll {
        let clean = !report.rolled_back
            && report.shards.len() == SHARDS
            && report.shards.iter().all(|s| s.committed && s.healthy)
            && report.fingerprints_converged()
            && report.dropped == 0
            && report.incorrect == 0;
        let mut shard_phase_ns = vec![[0; PHASES.len()]; SHARDS];
        for (shard, event) in &report.events {
            if let (UpdateEvent::PhaseExited { phase, elapsed }, Some(slot)) =
                (event, shard_phase_ns.get_mut(*shard))
            {
                slot[phase_index(*phase)] += elapsed.as_nanos() as u64;
            }
        }
        report.fingerprints = Vec::new();
        report.events = Vec::new();
        Roll {
            wall,
            chain,
            clean,
            shard_phase_ns,
            report,
        }
    }
}

/// Everything a fleet run measured.
#[derive(Default)]
pub struct FleetResult {
    /// Chains run.
    pub chains: usize,
    /// Every roll attempted.
    pub rolls: Vec<Roll>,
    /// Every batch, with its chain.
    pub batches: Vec<(usize, LoadReport)>,
}

/// The fleet's VM configuration: the app harness default, lazy commits.
fn vm_config() -> VmConfig {
    VmConfig {
        lazy_migration: true,
        ..app_vm_config()
    }
}

/// Runs one whole chain: boots a fresh fleet at 1.0 and rolls it through
/// `updates`, with a batch of requests before each roll and after the
/// last. Span times count from `t0`.
pub fn chain(
    out: &mut FleetResult,
    t0: Instant,
    releases: &[Vec<ClassFile>],
    updates: &[Update],
    tracer: &mut Tracer,
    progress: &Progress,
) {
    let now = || t0.elapsed().as_nanos() as u64;
    let config = vm_config();
    let (opts, ropts) = (bench_apply_options(), RollOptions::default());
    let chain = out.chains;
    let start = now();
    let mut fleet = Fleet::boot(Arc::new(Kvstore), releases[0].clone(), SHARDS, &config);
    tracer.record("fleet.boot", start, now(), None, chain as u64);
    for (i, update) in updates.iter().enumerate() {
        let start = now();
        let batch = fleet.run_requests(BATCH);
        tracer.record("fleet.batch", start, now(), None, i as u64);
        out.batches.push((chain, batch));
        let start = now();
        let report = fleet.roll(update, &opts, &ropts);
        let end = now();
        tracer.record("fleet.roll", start, end, None, i as u64);
        out.rolls.push(Roll::new(end - start, chain, report));
        progress.beat();
    }
    let start = now();
    let batch = fleet.run_requests(BATCH);
    tracer.record("fleet.batch", start, now(), None, updates.len() as u64);
    out.batches.push((chain, batch));
    fleet.shutdown();
    out.chains += 1;
}

impl FleetResult {
    /// (attempted, failed): batch requests plus rolls.
    pub fn counts(&self) -> (u64, u64) {
        let requests: u64 = self
            .batches
            .iter()
            .map(|(_, b)| b.completed + b.incorrect)
            .sum();
        let wrong: u64 = self.batches.iter().map(|(_, b)| b.incorrect).sum();
        let bad_rolls = self.rolls.iter().filter(|r| !r.clean).count() as u64;
        (requests + self.rolls.len() as u64, wrong + bad_rolls)
    }
}
