//! Fig. 6 reproduction: weak scaling of the Poisson solver.
//!
//! The paper plots time (ns) per step per particle of the
//! long/medium-range solver against rank count on Roadrunner (slab FFT),
//! BG/P and BG/Q (pencil FFT), all essentially flat out to 131,072 ranks.
//! We measure the same quantity with simulated ranks at fixed grid volume
//! per rank for both decompositions, then print the BG/Q machine-model
//! series at the paper's rank counts. Both decompositions run the
//! production real-to-complex solve: the slab is the pencil transform on
//! a `ranks × 1` process grid, the pencil case the balanced 2-D grid.

use std::time::Instant;

use hacc_bench::print_table;
use hacc_comm::Machine;
use hacc_comm::dims_create;
use hacc_fft::{DistRealFft3, RealPencilFft};
use hacc_machine::FftModel;
use hacc_pm::{DistRealPoisson, SpectralParams};

fn main() {
    println!("Fig. 6: weak scaling of the Poisson solver (time per step per particle)");
    // Fixed per-rank volume of 32³ grid points; particle count per rank
    // taken equal to grid points (1 particle/cell loading).
    let configs: &[(usize, usize)] = &[(1, 32), (2, 40), (4, 50), (8, 64)];
    let mut rows = Vec::new();
    for &(ranks, n) in configs {
        let per_rank = n * n * n / ranks;
        let t_slab = measure(ranks, n, false);
        let t_pencil = measure(ranks, n, true);
        rows.push(vec![
            ranks.to_string(),
            format!("{n}^3"),
            per_rank.to_string(),
            format!("{:.2}", t_slab * 1e9 / (n * n * n) as f64),
            format!("{:.2}", t_pencil * 1e9 / (n * n * n) as f64),
        ]);
    }
    print_table(
        "Measured (simulated ranks, threads-as-ranks)",
        &["ranks", "grid", "points/rank", "slab ns/pt", "pencil ns/pt"],
        &rows,
    );

    // Machine-model series at paper scale: one Poisson solve = 4
    // transforms (1 forward + 3 gradient inverses).
    let model = FftModel::default();
    let mut mrows = Vec::new();
    for (ranks, n) in [
        (64usize, 512usize),
        (256, 812),
        (1024, 1290),
        (4096, 2048),
        (16384, 3250),
        (65536, 5160),
        (131072, 6502),
    ] {
        let row = model.transform_time(n, ranks, 8);
        let t_solve = 4.0 * row.time;
        mrows.push(vec![
            ranks.to_string(),
            format!("{n}^3"),
            format!("{:.2}", t_solve * 1e9 / (n as f64).powi(3)),
        ]);
    }
    print_table(
        "BG/Q model at paper scale (pencil, ~2M pts/rank; flat = ideal weak scaling)",
        &["ranks", "grid", "ns/pt/solve"],
        &mrows,
    );
    println!(
        "\npaper reference (Fig. 6): all three machines scale essentially ideally\n\
         (flat ns/step/particle) out to 131,072 ranks; BG/Q sits lowest, Roadrunner's\n\
         slab decomposition highest."
    );
}

/// One distributed Poisson force solve of size `n³` on `ranks` ranks;
/// returns wall-clock seconds (max over ranks). The solver and its
/// tables are built first, as the simulation driver builds them once,
/// so only the solve is timed.
fn measure(ranks: usize, n: usize, pencil: bool) -> f64 {
    let (times, _) = Machine::new(ranks).run(|comm| {
        let [p1, p2] = if pencil {
            let d = dims_create(comm.size(), 2);
            [d[0], d[1]]
        } else {
            [comm.size(), 1]
        };
        let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
        let rl = fft.real_layout();
        let solver = DistRealPoisson::new(fft, rl.n as f64, SpectralParams::default());
        // Deterministic synthetic density contrast.
        let src: Vec<f64> = (0..rl.len())
            .map(|i| ((i * 2_654_435_761) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let solver_start = Instant::now();
        let f = solver.solve_forces(&src);
        std::hint::black_box(&f);
        solver_start.elapsed().as_secs_f64()
    });
    times.into_iter().fold(0.0, f64::max)
}
