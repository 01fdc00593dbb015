//! Set-up: everything a run needs before traffic starts. Compiles all 21
//! kvstore releases (`jvolve_lang`), prepares the 20 updates with the UPT
//! (`jvolve_upt`), round-trips each through an on-disk bundle
//! (`jvolve::bundle`), and boots the first VM (`apps::harness`).

use std::path::Path;
use std::time::Instant;

use jvolve::Update;
use jvolve_apps::kvstore::{self, Kvstore};
use jvolve_apps::GuestApp;
use jvolve_classfile::ClassFile;
use jvolve_upt::{prepare_classes, UptOptions};
use jvolve_vm::{Vm, VmConfig};

/// Per-layer set-up times, ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `jvolve_lang::compile` of every release.
    pub compile_ms: f64,
    /// `jvolve_upt::prepare_classes` of every update.
    pub prepare_ms: f64,
    /// `jvolve::bundle::emit` of every update.
    pub emit_ms: f64,
    /// `jvolve::bundle::load` of every bundle.
    pub load_ms: f64,
    /// Booting the first VM until it listens.
    pub boot_ms: f64,
    /// `setup_s`: the whole set-up except the bundle writes, s. Creating
    /// the bundles' ~440 small files took 22 to 260 ms (median of a run)
    /// on the same host from one run to the next, so it is reported as
    /// `bundle.emit_ms` only.
    pub total_s: f64,
}

/// What set-up produced.
pub struct Prepared {
    /// Compiled classes of every release, 1.0 first.
    pub releases: Vec<Vec<ClassFile>>,
    /// The 20 updates, as loaded back from their bundles.
    pub updates: Vec<Update>,
    /// A VM booted at 1.0, listening.
    pub vm: Vm,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the whole set-up once, writing bundles under `scratch`, which
/// must not exist yet. The caller removes it, untimed.
///
/// # Panics
///
/// Panics when a fixture fails to compile or prepare, or a bundle fails
/// to round-trip: the benchmark cannot run without them.
pub fn prepare(config: &VmConfig, scratch: &Path) -> (Prepared, SetupTimes) {
    let mut times = SetupTimes::default();
    let versions = Kvstore.versions();

    let t = Instant::now();
    let releases: Vec<Vec<ClassFile>> = versions
        .iter()
        .map(|v| jvolve_lang::compile(&v.source).expect("kvstore release compiles"))
        .collect();
    times.compile_ms = ms_since(t);

    let t = Instant::now();
    let prepared: Vec<Update> = (1..releases.len())
        .map(|to| {
            let opts = UptOptions::with_prefix(versions[to].prefix);
            prepare_classes(&releases[to - 1], &releases[to], &opts)
                .expect("kvstore update prepares")
                .update
        })
        .collect();
    times.prepare_ms = ms_since(t);

    let t = Instant::now();
    let dirs: Vec<_> = (0..prepared.len())
        .map(|i| scratch.join(format!("u{i:02}")))
        .collect();
    for (update, dir) in prepared.iter().zip(&dirs) {
        jvolve::bundle::emit(dir, update).expect("bundle is written");
    }
    times.emit_ms = ms_since(t);

    let t = Instant::now();
    let updates: Vec<Update> = dirs
        .iter()
        .map(|dir| jvolve::bundle::load(dir).expect("bundle loads back"))
        .collect();
    times.load_ms = ms_since(t);

    let t = Instant::now();
    let vm = boot(&releases[0], config);
    times.boot_ms = ms_since(t);

    times.total_s = (times.compile_ms + times.prepare_ms + times.load_ms + times.boot_ms) / 1e3;
    (
        Prepared {
            releases,
            updates,
            vm,
        },
        times,
    )
}

/// Boots the kvstore from `classes` and waits until it listens.
pub fn boot(classes: &[ClassFile], config: &VmConfig) -> Vm {
    jvolve_apps::harness::boot_classes(&Kvstore, classes, config.clone())
}

/// The kvstore's port.
pub const PORT: u16 = kvstore::PORT;
