//! The kvstore workloads: open-loop traffic against a fresh 1.20 with no
//! update (steady windows) and through chains of the 20 live updates
//! 1.0 → 1.20 arriving every 50 ms (stream chains). Each chain boots a
//! fresh 1.0, and the store is read back key by key after every window
//! and chain.

use std::time::Instant;

use jvolve::{ApplyOptions, StepProgress, Update, UpdateController, UpdatePhase, UpdateStats};
use jvolve_apps::harness::bench_apply_options;
use jvolve_classfile::ClassFile;
use jvolve_vm::{Vm, VmConfig, VmStats};

use crate::load::Client;
use crate::setup::{boot, PORT};
use crate::trace::Tracer;
use crate::update::{UpdateMeter, UpdateRecord, PHASES};
use crate::Progress;

/// Request interval: 20k requests/s.
pub const INTERVAL_NS: u64 = 50_000;
/// Update inter-arrival time within a chain.
pub const UPDATE_EVERY_NS: u64 = 50_000_000;
/// Untimed open-loop warm-up of the steady VM, before its first window.
const WARMUP_NS: u64 = 200_000_000;
/// A request unanswered this long after its due time is given up on.
const REQUEST_TIMEOUT_NS: u64 = 2_000_000_000;
/// Slice budget per read-back exchange.
const READ_BACK_BUDGET: usize = 40_000;

/// One kv workload's knobs.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Commit updates lazily (`VmConfig::lazy_migration`).
    pub lazy: bool,
    /// Seed of the request mix.
    pub seed: u64,
}

impl KvConfig {
    /// The VM configuration: the app harness default, lazy or eager.
    pub fn vm_config(&self) -> VmConfig {
        VmConfig {
            lazy_migration: self.lazy,
            ..jvolve_apps::harness::app_vm_config()
        }
    }
}

/// VM counters over a window or chain, and the time spent in slices that ran
/// guest code (traced runs only).
#[derive(Clone, Debug, Default)]
pub struct VmUse {
    /// Counter deltas.
    pub stats: VmStats,
    /// ns inside `step_slice` calls that retired at least one step.
    pub busy_ns: u64,
    /// Requests answered.
    pub requests: u64,
}

impl VmUse {
    fn add(&mut self, before: &VmStats, after: &VmStats) {
        let s = &mut self.stats;
        s.slices += after.slices - before.slices;
        s.steps += after.steps - before.steps;
        s.gcs += after.gcs - before.gcs;
        s.jit_compiles += after.jit_compiles - before.jit_compiles;
        s.deopts += after.deopts - before.deopts;
        s.fused_steps += after.fused_steps - before.fused_steps;
        s.ic_hits += after.ic_hits - before.ic_hits;
        s.ic_misses += after.ic_misses - before.ic_misses;
    }
}

/// One update as measured, with the controller's own stats when it
/// committed.
pub struct Measured {
    /// Outside-in measurements.
    pub rec: UpdateRecord,
    /// `UpdateController::stats` at commit; `None` if it aborted.
    pub stats: Option<UpdateStats>,
    /// Largest `Vm::lazy_remaining` seen after a drain step.
    pub stale_peak: usize,
    /// Chain the update belongs to.
    pub chain: usize,
}

/// Everything a kv run measured.
#[derive(Default)]
pub struct KvResult {
    /// Steady request latencies, ns, per window.
    pub steady: Vec<Vec<u64>>,
    /// Stream requests, (due, latency) ns in due order, per chain.
    pub stream: Vec<Vec<(u64, u64)>>,
    /// Every update attempted.
    pub updates: Vec<Measured>,
    /// Requests sent, failed (wrong, unanswered or dropped).
    pub requests: (u64, u64),
    /// Read-back checks made, failed.
    pub read_back: (u64, u64),
    /// First few mismatches.
    pub mismatches: Vec<String>,
    /// Send lateness against the schedule, ns.
    pub late: Vec<u64>,
    /// VM use in the steady windows.
    pub steady_vm: VmUse,
    /// VM use in the stream chains.
    pub stream_vm: VmUse,
    /// Durations of slices during which a collection ran, ns (traced).
    pub gc_slices: Vec<u64>,
}

impl KvResult {
    /// Updates that did not commit.
    pub fn updates_failed(&self) -> u64 {
        self.updates.iter().filter(|u| u.stats.is_none()).count() as u64
    }
}

/// The open-loop runner: the run's clock, the tracer, and the VM time
/// it books while pumping one VM with one client.
struct Runner<'a> {
    t0: Instant,
    tracer: &'a mut Tracer,
    progress: &'a Progress,
    busy_ns: u64,
    gc_slices: Vec<u64>,
}

impl Runner<'_> {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sends what is due, runs one guest slice, collects replies.
    fn pump(&mut self, vm: &mut Vm, client: &mut Client) {
        let now = self.now();
        client.send_due(vm, now);
        if self.tracer.enabled() {
            let (steps, gcs) = (vm.stats().steps, vm.stats().gcs);
            let start = self.now();
            vm.step_slice();
            let end = self.now();
            if vm.stats().steps > steps {
                self.busy_ns += end - start;
                self.tracer.record("vm.step_slice", start, end, None, 0);
            }
            if vm.stats().gcs > gcs {
                self.gc_slices.push(end - start);
            }
            client.poll(vm, end);
        } else {
            vm.step_slice();
            let now = self.now();
            client.poll(vm, now);
        }
    }

    /// Stops sending and serves until everything in flight is answered
    /// (or timed out).
    fn drain(&mut self, vm: &mut Vm, client: &mut Client) {
        client.closed = true;
        while client.in_flight() > 0 {
            self.pump(vm, client);
        }
    }

    /// Drains, reads every key back, and books the VM use and
    /// answered requests.
    fn finish(
        &mut self,
        vm: &mut Vm,
        client: &mut Client,
        before: &VmStats,
        usage: &mut VmUse,
        read_back: &mut (u64, u64),
    ) {
        self.drain(vm, client);
        usage.add(before, vm.stats());
        usage.requests += client.done.len() as u64;
        let (checked, wrong) = client.read_back(vm, READ_BACK_BUDGET);
        read_back.0 += checked;
        read_back.1 += wrong;
        usage.busy_ns += std::mem::take(&mut self.busy_ns);
        self.progress.beat();
    }

    fn boot(&mut self, classes: &[ClassFile], config: &VmConfig) -> Vm {
        let start = self.now();
        let vm = boot(classes, config);
        let end = self.now();
        self.tracer.record("vm.boot", start, end, None, 0);
        vm
    }

    /// Runs one chain of `updates` on `vm`: arrivals every 50 ms from
    /// the chain's start, then 50 ms of traffic after the last commit.
    fn chain(
        &mut self,
        vm: &mut Vm,
        client: &mut Client,
        updates: &[Update],
        opts: &ApplyOptions,
        out: &mut KvResult,
    ) {
        let start = self.now();
        client.resume(start);
        let mut next_arrival = start;
        for update in updates {
            next_arrival += UPDATE_EVERY_NS;
            while self.now() < next_arrival {
                self.pump(vm, client);
            }
            let key = out.updates.len() as u64;
            let mut m = self.apply(vm, client, update, next_arrival, opts, key);
            m.chain = out.stream.len();
            out.updates.push(m);
        }
        let end = self.now() + UPDATE_EVERY_NS;
        while self.now() < end {
            self.pump(vm, client);
        }
    }

    /// Steps one update to commit (or abort), pumping the guest after
    /// every step that leaves it runnable.
    fn apply(
        &mut self,
        vm: &mut Vm,
        client: &mut Client,
        update: &Update,
        arrival: u64,
        opts: &ApplyOptions,
        key: u64,
    ) -> Measured {
        self.progress.beat();
        let span = self.tracer.record("update", arrival, arrival, None, key);
        let mut ctl = UpdateController::new(update, opts.clone());
        let mut meter = UpdateMeter::new(arrival);
        let mut stale_peak = 0;
        loop {
            let phase = ctl.phase();
            let start = self.now();
            let progress = ctl.step(vm);
            let end = self.now();
            meter.step(phase, start, end);
            self.tracer.record(
                STEP_SPANS[crate::update::phase_index(phase)],
                start,
                end,
                span,
                key,
            );
            match progress {
                StepProgress::Pending(
                    UpdatePhase::WaitingForSafePoint | UpdatePhase::LazyMigrating,
                ) => {
                    if phase == UpdatePhase::LazyMigrating || phase == UpdatePhase::TransformingHeap
                    {
                        stale_peak = stale_peak.max(vm.lazy_remaining());
                    }
                    meter.guest_ran();
                    self.pump(vm, client);
                }
                StepProgress::Pending(_) => {}
                StepProgress::Committed | StepProgress::Aborted => {
                    self.tracer.close(span, end);
                    let stats = (progress == StepProgress::Committed).then(|| ctl.stats().clone());
                    return Measured {
                        rec: meter.finish(end),
                        stats,
                        stale_peak,
                        chain: 0,
                    };
                }
            }
        }
    }
}

/// Span names of controller steps, by [`PHASES`] bucket.
const STEP_SPANS: [&str; PHASES.len()] = [
    "ctl.pending",
    "ctl.safepoint",
    "ctl.installing",
    "ctl.transforming_heap",
    "ctl.lazy",
];

/// A kv workload in progress. The steady VM (a fresh 1.20, never
/// updated) stays booted for the whole pass and serves one window per
/// round; each stream chain boots a fresh 1.0 and walks the 20 updates.
/// Interleaving the two (and the fleet, between them) spreads every
/// metric over the whole pass, so a slow stretch of the host weighs on
/// all of them alike instead of on whichever segment it fell in.
pub struct Kv<'a> {
    releases: &'a [Vec<ClassFile>],
    updates: &'a [Update],
    config: VmConfig,
    opts: ApplyOptions,
    r: Runner<'a>,
    steady_vm: Vm,
    steady_client: Client,
    stream_client: Client,
    /// The VM set-up booted at 1.0, for the first chain.
    first_vm: Option<Vm>,
    out: KvResult,
}

impl<'a> Kv<'a> {
    /// Boots the steady VM and warms it up, untimed. `vm` is the 1.0 VM
    /// set-up booted; the first chain runs on it. Span times count from
    /// `t0`.
    pub fn start(
        cfg: &KvConfig,
        releases: &'a [Vec<ClassFile>],
        updates: &'a [Update],
        vm: Vm,
        t0: Instant,
        tracer: &'a mut Tracer,
        progress: &'a Progress,
    ) -> Kv<'a> {
        let config = cfg.vm_config();
        let client = |seed| Client::new(PORT, seed, 0, INTERVAL_NS, REQUEST_TIMEOUT_NS);
        let mut r = Runner {
            t0,
            tracer,
            progress,
            busy_ns: 0,
            gc_slices: Vec::new(),
        };
        let mut steady_vm = r.boot(releases.last().expect("releases"), &config);
        let mut steady_client = client(cfg.seed);
        let warm_end = r.now() + WARMUP_NS;
        steady_client.resume(r.now());
        while r.now() < warm_end {
            r.pump(&mut steady_vm, &mut steady_client);
        }
        r.drain(&mut steady_vm, &mut steady_client);
        steady_client.done.clear();
        steady_client.late.clear();
        r.busy_ns = 0;
        r.gc_slices.clear();
        Kv {
            releases,
            updates,
            config,
            opts: bench_apply_options(),
            r,
            steady_vm,
            steady_client,
            stream_client: client(cfg.seed.wrapping_add(1)),
            first_vm: Some(vm),
            out: KvResult::default(),
        }
    }

    /// Serves the steady VM open-loop for `ns`, then reads it back. The
    /// window's latencies are one group of the steady metrics.
    pub fn steady_window(&mut self, ns: u64) {
        let (vm, client) = (&mut self.steady_vm, &mut self.steady_client);
        let before = vm.stats().clone();
        let start = self.r.now();
        client.resume(start);
        while self.r.now() < start + ns {
            self.r.pump(vm, client);
        }
        self.r.finish(
            vm,
            client,
            &before,
            &mut self.out.steady_vm,
            &mut self.out.read_back,
        );
        let base = self.out.steady.iter().map(Vec::len).sum::<usize>();
        for (i, r) in client.done.iter().enumerate() {
            let id = (base + i) as u64;
            self.r
                .tracer
                .record("steady.request", r.due, r.due + r.latency, None, id);
        }
        self.out
            .steady
            .push(client.done.drain(..).map(|r| r.latency).collect());
    }

    /// Runs one whole chain of the 20 updates on a fresh 1.0 (the set-up
    /// VM for the first chain), then reads it back.
    pub fn stream_chain(&mut self) {
        let mut vm = match self.first_vm.take() {
            Some(vm) => vm,
            None => self.r.boot(&self.releases[0], &self.config),
        };
        let client = &mut self.stream_client;
        client.reset_store();
        let before = vm.stats().clone();
        self.r
            .chain(&mut vm, client, self.updates, &self.opts, &mut self.out);
        self.r.finish(
            &mut vm,
            client,
            &before,
            &mut self.out.stream_vm,
            &mut self.out.read_back,
        );
        let base = self.out.stream.iter().map(Vec::len).sum::<usize>();
        for (i, r) in client.done.iter().enumerate() {
            let id = (base + i) as u64;
            self.r
                .tracer
                .record("stream.request", r.due, r.due + r.latency, None, id);
        }
        self.out
            .stream
            .push(client.done.drain(..).map(|r| (r.due, r.latency)).collect());
    }

    /// The tracer, for the fleet chains run between kv segments.
    pub fn tracer(&mut self) -> &mut Tracer {
        self.r.tracer
    }

    /// (attempted, failed) so far: requests, read-backs and updates.
    pub fn counts(&self) -> (u64, u64) {
        let (s, t) = (&self.steady_client.tally, &self.stream_client.tally);
        let o = &self.out;
        (
            s.sent + t.sent + o.read_back.0 + o.updates.len() as u64,
            s.failed() + t.failed() + o.read_back.1 + o.updates_failed(),
        )
    }

    /// Ends the pass and hands over what it measured.
    pub fn finish(self) -> KvResult {
        let mut out = self.out;
        let (s, t) = (self.steady_client, self.stream_client);
        out.requests = (
            s.tally.sent + t.tally.sent,
            s.tally.failed() + t.tally.failed(),
        );
        out.mismatches = s.tally.mismatches;
        out.mismatches.extend(t.tally.mismatches);
        out.late = s.late;
        out.late.extend(t.late);
        out.gc_slices = self.r.gc_slices;
        out
    }
}
