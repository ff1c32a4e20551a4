//! Benchmark of the distributed TreePM step (`DistSimulation`,
//! `run_resilient`, in-process and over the socket transport), measured
//! from outside the program: it times its own calls into public
//! functions and reads the counters the program exposes.

pub mod bench;
pub mod checks;
pub mod host;
pub mod json;
pub mod ops;
pub mod stats;
pub mod stepper;
pub mod workload;
