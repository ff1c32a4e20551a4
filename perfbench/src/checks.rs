//! Output checks that come from physics and hold on any seed.
//!
//! Every completed run must conserve its particles exactly (checked
//! after every step by the stepper), return each id once with finite
//! phase-space coordinates, and grow its largest-scale modes as linear
//! theory says: on the lowest k-bin `P_final/P_initial = (D(a_f)/D(a_i))²`
//! within the workload's tolerance. Only that bin is checked: the next
//! one is already mildly nonlinear at the final epochs (mode coupling
//! moves its growth by ±12 % from seed to seed on `pm_mesh`, in the
//! serial driver as much as in the distributed one).

use hacc::analysis::PowerSpectrum;
use hacc::cosmo::GrowthFactor;
use hacc::ics::IcsRealization;

use crate::workload::Workload;

/// P(k) of a particle set on the workload's PM mesh, in bins one
/// fundamental mode wide.
fn spectrum(w: &Workload, x: &[f32], y: &[f32], z: &[f32]) -> PowerSpectrum {
    PowerSpectrum::measure(x, y, z, w.cfg.box_len, w.cfg.ng, w.cfg.ng / 2)
}

/// The initial spectrum the growth check compares against.
#[must_use]
pub fn initial_spectrum(w: &Workload, ics: &IcsRealization) -> PowerSpectrum {
    spectrum(w, &ics.x, &ics.y, &ics.z)
}

/// `measured/linear − 1` of the growth of the lowest k-bin.
#[must_use]
pub fn growth_deviation(w: &Workload, initial: &PowerSpectrum, fin: &PowerSpectrum) -> f64 {
    let growth = GrowthFactor::new(&w.cfg.cosmology);
    let linear = (growth.d_of_a(w.cfg.a_final) / growth.d_of_a(w.cfg.a_init)).powi(2);
    fin.p[0] / initial.p[0] / linear - 1.0
}

/// Check the gathered final state of a completed run: `(id, position)`
/// sorted by id, as `gather_positions` and `run_resilient` return it.
/// Returns the growth deviation on success.
pub fn check_final(
    w: &Workload,
    initial: &PowerSpectrum,
    positions: &[(u64, [f32; 3])],
) -> Result<f64, String> {
    let n = w.particles();
    if positions.len() != n {
        return Err(format!(
            "gathered {} particles, expected {n}",
            positions.len()
        ));
    }
    if let Some((i, &(id, _))) = positions
        .iter()
        .enumerate()
        .find(|&(i, &(id, _))| id != i as u64)
    {
        return Err(format!(
            "ids not unique and gapless: slot {i} holds id {id}"
        ));
    }
    if let Some(&(id, p)) = positions
        .iter()
        .find(|(_, p)| p.iter().any(|c| !c.is_finite()))
    {
        return Err(format!("particle {id} has a non-finite position {p:?}"));
    }
    let (mut x, mut y, mut z) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for &(_, p) in positions {
        x.push(p[0]);
        y.push(p[1]);
        z.push(p[2]);
    }
    let dev = growth_deviation(w, initial, &spectrum(w, &x, &y, &z));
    if dev.abs() > w.growth_tol {
        return Err(format!(
            "lowest P(k) bin grew {:+.1}% off linear theory (tolerance ±{:.0}%)",
            dev * 100.0,
            w.growth_tol * 100.0
        ));
    }
    Ok(dev)
}
