//! The seed sweep behind the growth tolerances: every completed run of
//! the stepper workloads must pass all output checks on every swept
//! seed, and each tolerance must stay tight enough to catch a real
//! growth error (within 4× the largest deviation the sweep sees).
//!
//! Run with `cargo test --release` from this directory (about two and a
//! half minutes on a 2-core x86-64 host).

use perfbench::ops;
use perfbench::workload::{Workload, RANKS};

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

fn sweep(name: &str) {
    let w = Workload::by_name(name).expect("workload exists");
    let mut worst = 0.0f64;
    for seed in SEEDS {
        let op = ops::in_process(&w, seed, false, RANKS, w.cfg.steps);
        assert!(!op.failed(), "{name} seed {seed} crashed: {:?}", op.failure);
        assert_eq!(op.wrong_output(), None, "{name} seed {seed}");
        let dev = op
            .check
            .expect("full run is checked")
            .expect("check passed");
        println!("{name} seed {seed}: growth deviation {dev:+.4}");
        worst = worst.max(dev.abs());
    }
    assert!(
        w.growth_tol <= 4.0 * worst,
        "{name}: tolerance {} is loose against the sweep's worst deviation {worst}",
        w.growth_tol
    );
}

#[test]
fn pm_mesh_growth_within_tolerance() {
    sweep("pm_mesh");
}

#[test]
fn treepm_clustered_growth_within_tolerance() {
    sweep("treepm_clustered");
}
