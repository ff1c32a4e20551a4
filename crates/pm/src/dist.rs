//! Distributed spectral Poisson solver on the real-to-complex pipeline.
//!
//! Works over any [`DistRealFft3`] (a slab is the `p × 1` pencil grid):
//! the k-space kernels are tabulated once, at construction, over the
//! transform's own rank-local half-spectrum layout, so a solve is one
//! r2c forward, one table multiply, and three c2r inverses — the
//! paper's "Poisson-solve" composition with no transcendental left on
//! the per-step path. The full-code driver, the two-level coarse level
//! and the weak-scaling study of Fig. 6 all build on this.

use std::sync::Mutex;

use hacc_fft::wavenumber::k_of_index;
use hacc_fft::{Complex64, DistRealFft3, Layout3};

use crate::spectral::SpectralParams;


/// Table-driven distributed Poisson solve that owns its transform.
pub struct DistRealPoisson<F: DistRealFft3> {
    fft: F,
    /// Scalar (influence×filter-like) table over this rank's k layout,
    /// in layout order.
    gs: Vec<f64>,
    /// 1-D gradient multiplier, one entry per global index, zero at the
    /// Nyquist index. The grid is cubic, so all three axes share it.
    grad: Vec<f64>,
    /// Gradient-product buffer, reused by every component of every
    /// solve: the c2r inverse reads it in place.
    comp: Mutex<Vec<Complex64>>,
}

impl<F: DistRealFft3> DistRealPoisson<F> {
    /// The standard HACC kernel (filter × 6th-order influence ×
    /// Super-Lanczos gradient) for a periodic box of side `box_len`.
    ///
    /// The scalar table is assembled from separable 1-D factors: the
    /// influence denominator is a sum over axes and the filter a product
    /// over axes, so setup costs O(n) transcendentals however many modes
    /// the rank holds. Agrees with the per-mode
    /// `influence(idx)·filter(idx)` to rounding.
    pub fn new(fft: F, box_len: f64, params: SpectralParams) -> Self {
        let n = fft.n();
        let d = box_len / n as f64;
        let grad = (0..n)
            .map(|j| {
                if n.is_multiple_of(2) && j == n / 2 {
                    // Hermitian consistency: an odd multiplier must
                    // vanish where k ≡ -k (see [`crate::PmSolver`]).
                    0.0
                } else {
                    params.gradient(j, n, d)
                }
            })
            .collect();
        Self::with_tables(fft, separable_scalar(n, box_len, params), grad)
    }

    /// A solver with caller-supplied kernels: `scalar` gives the scalar
    /// multiplier at a global half-spectrum index and is evaluated once
    /// per rank-local mode, here; `grad` is the 1-D gradient multiplier
    /// (`n` entries, already zeroed wherever Hermitian consistency
    /// requires). The two-level coarse level runs through this with the
    /// [`crate::ForceSplit`] tables.
    pub fn with_tables(fft: F, scalar: impl Fn([usize; 3]) -> f64, grad: Vec<f64>) -> Self {
        assert_eq!(grad.len(), fft.n(), "gradient table size");
        let kl = fft.k_layout();
        let [sx, sy, sz] = kl.size;
        let [ox, oy, oz] = kl.origin;
        let mut gs = Vec::with_capacity(kl.len());
        for ix in 0..sx {
            for iy in 0..sy {
                for iz in 0..sz {
                    gs.push(scalar([ox + ix, oy + iy, oz + iz]));
                }
            }
        }
        DistRealPoisson {
            fft,
            gs,
            grad,
            comp: Mutex::new(Vec::new()),
        }
    }

    /// Layout of the rank-local real-space block.
    pub fn real_layout(&self) -> Layout3 {
        self.fft.real_layout()
    }

    /// Forward transform of `source` times the scalar table.
    fn filtered_spectrum(&self, source: &[f64]) -> Vec<Complex64> {
        assert_eq!(source.len(), self.real_layout().len(), "source does not match layout");
        let mut spec = self.fft.forward(source.to_vec());
        for (v, &g) in spec.iter_mut().zip(&self.gs) {
            *v = v.scale(g);
        }
        spec
    }

    /// Write `comp = -i·D_axis·base` over the rank-local half-spectrum.
    fn apply_gradient(&self, base: &[Complex64], comp: &mut [Complex64], axis: usize) {
        let kl = self.fft.k_layout();
        let [_, sy, sz] = kl.size;
        let [ox, oy, oz] = kl.origin;
        let grad = &self.grad;
        let rows = base.chunks_exact(sz).zip(comp.chunks_exact_mut(sz));
        for (r, (b, c)) in rows.enumerate() {
            let (ix, iy) = (r / sy, r % sy);
            let row_d = match axis {
                0 => grad[ox + ix],
                1 => grad[oy + iy],
                _ => 0.0,
            };
            for (iz, (v, o)) in b.iter().zip(c.iter_mut()).enumerate() {
                let d = if axis == 2 { grad[oz + iz] } else { row_d };
                *o = Complex64::new(v.im * d, -v.re * d);
            }
        }
    }

    /// Solve for the three force component grids (real layout in, real
    /// layout out), replacing the contents of `out`. Cost: 1 r2c
    /// forward + 3 c2r inverses; the filtered spectrum is computed once
    /// and shared by the three components, whose gradient products
    /// reuse one buffer. The spectrum itself is the forward transform's
    /// fresh output, so it is not kept between solves.
    pub fn solve_forces_into(&self, source: &[f64], out: &mut [Vec<f64>; 3]) {
        let base = self.filtered_spectrum(source);
        let mut comp = self.comp.lock().expect("dist pm workspace poisoned");
        comp.resize(base.len(), Complex64::ZERO);
        for (axis, slot) in out.iter_mut().enumerate() {
            // F_c(k) = -i·D_c(k)·φ(k).
            self.apply_gradient(&base, &mut comp, axis);
            *slot = self.fft.backward_from(&mut comp);
        }
    }

    /// Solve for the force field, returning fresh component grids.
    #[must_use]
    pub fn solve_forces(&self, source: &[f64]) -> [Vec<f64>; 3] {
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        self.solve_forces_into(source, &mut out);
        out
    }

    /// Solve for the potential only (1 r2c forward + 1 c2r inverse).
    #[must_use]
    pub fn solve_potential(&self, source: &[f64]) -> Vec<f64> {
        self.fft.backward(self.filtered_spectrum(source))
    }

    /// Address of the gradient-product buffer, to observe its reuse.
    #[cfg(all(test, not(miri)))]
    fn workspace_addr(&self) -> *const Complex64 {
        self.comp.lock().expect("dist pm workspace poisoned").as_ptr()
    }
}

/// The influence×filter scalar of an `n³` grid as a function of the
/// global index, from 1-D factors: `-Π_i S_i / Σ_i k²_eff,i`, zero at
/// the zero mode.
fn separable_scalar(n: usize, box_len: f64, params: SpectralParams) -> impl Fn([usize; 3]) -> f64 {
    let d = box_len / n as f64;
    let ks = (0..n).map(|j| k_of_index(j, n, box_len));
    let (filt, keff): (Vec<f64>, Vec<f64>) = ks
        .map(|k| (params.filter_factor(k, d), params.k2_eff_term(k, d)))
        .unzip();
    move |[i, j, l]| {
        let k2 = keff[i] + keff[j] + keff[l];
        if k2 == 0.0 {
            0.0
        } else {
            -(filt[i] * filt[j] * filt[l]) / k2
        }
    }
}

/// Pure table arithmetic on a small grid: cheap enough for miri.
#[cfg(test)]
mod table_tests {
    use super::*;

    /// The separable scalar equals the per-mode
    /// `influence(idx)·filter(idx)` for every kernel flag combination.
    #[test]
    fn separable_table_matches_per_mode_kernel() {
        let (n, box_len) = (6, 9.0);
        let d = box_len / n as f64;
        for sixth_order_influence in [false, true] {
            for super_lanczos_gradient in [false, true] {
                let params = SpectralParams {
                    sixth_order_influence,
                    super_lanczos_gradient,
                    ..SpectralParams::default()
                };
                let scalar = separable_scalar(n, box_len, params);
                for i in 0..n * n * (n / 2 + 1) {
                    let idx = [i / (n * (n / 2 + 1)), (i / (n / 2 + 1)) % n, i % (n / 2 + 1)];
                    let (got, want) = (scalar(idx), params.influence(idx, n, d) * params.filter(idx, n, d));
                    assert!(
                        (got - want).abs() <= 1e-13 * want.abs(),
                        "{params:?} {idx:?}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

// Not run under miri: every test here spins up a threads-as-ranks
// Machine (interpreter cost multiplies per rank thread) and the
// transpose path has no unsafe code; the serial 3-D FFT tests cover
// the unsafe strided pass under miri.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::solver::PmSolver;
    use hacc_comm::Machine;
    use hacc_fft::RealPencilFft;

    fn rand_source(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..n * n * n).map(|_| next()).collect()
    }

    /// This rank's block of a global row-major grid.
    fn local_block(src: &[f64], rl: Layout3) -> Vec<f64> {
        let n = rl.n;
        (0..rl.len())
            .map(|i| {
                let g = rl.global_coords(i);
                src[(g[0] * n + g[1]) * n + g[2]]
            })
            .collect()
    }

    /// Distributed force solve on a `p1 × p2` grid must equal the serial
    /// one; `p2 = 1` is the slab decomposition.
    fn check_against_serial(n: usize, p1: usize, p2: usize) {
        let source = rand_source(n, 2 * n as u64 + 7);
        let serial = PmSolver::new(n, n as f64, SpectralParams::default());
        let want = serial.solve_forces(&source);
        let src = source.clone();
        let (results, _) = Machine::new(p1 * p2).run(move |comm| {
            let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
            let solver = DistRealPoisson::new(fft, n as f64, SpectralParams::default());
            let rl = solver.real_layout();
            (rl, solver.solve_forces(&local_block(&src, rl)))
        });
        for (rl, forces) in &results {
            for c in 0..3 {
                for (i, v) in forces[c].iter().enumerate() {
                    let g = rl.global_coords(i);
                    let w = want[c][(g[0] * n + g[1]) * n + g[2]];
                    assert!(
                        (v - w).abs() < 1e-9,
                        "n={n} grid={p1}x{p2} c={c} {g:?}: {v} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn slab_matches_serial() {
        check_against_serial(8, 2, 1);
        check_against_serial(12, 3, 1);
        check_against_serial(9, 3, 1);
    }

    #[test]
    fn pencil_matches_serial() {
        check_against_serial(8, 2, 2);
        check_against_serial(12, 3, 2);
        check_against_serial(9, 2, 2);
    }

    /// `solve_forces_into` on the slab grid reproduces [`PmSolver`] on
    /// every call while keeping one gradient-product buffer.
    #[test]
    fn solve_into_reuses_workspace_and_matches_serial() {
        let n = 12;
        let source = rand_source(n, 41);
        let want = PmSolver::new(n, 24.0, SpectralParams::default()).solve_forces(&source);
        let (results, _) = Machine::new(2).run(move |comm| {
            let fft = RealPencilFft::with_grid(&comm, n, 2, 1);
            let solver = DistRealPoisson::new(fft, 24.0, SpectralParams::default());
            let rl = solver.real_layout();
            let local = local_block(&source, rl);
            let mut out = [Vec::new(), Vec::new(), Vec::new()];
            solver.solve_forces_into(&local, &mut out);
            let first = out.clone();
            let addr = solver.workspace_addr();
            solver.solve_forces_into(&local, &mut out);
            (rl, first, out, addr == solver.workspace_addr())
        });
        for (rl, first, second, reused) in &results {
            assert!(*reused, "gradient workspace reallocated between solves");
            assert_eq!(first, second, "repeat solve differs");
            for c in 0..3 {
                for (i, v) in second[c].iter().enumerate() {
                    let g = rl.global_coords(i);
                    let w = want[c][(g[0] * n + g[1]) * n + g[2]];
                    assert!((v - w).abs() < 1e-9, "c={c} {g:?}: {v} vs {w}");
                }
            }
        }
    }

    #[test]
    fn potential_matches_serial_pencil() {
        let n = 8;
        let source = rand_source(n, 3);
        let serial = PmSolver::new(n, n as f64, SpectralParams::default());
        let want = serial.solve_potential(&source);
        let (results, _) = Machine::new(4).run(move |comm| {
            let fft = RealPencilFft::new(&comm, n);
            let solver = DistRealPoisson::new(fft, n as f64, SpectralParams::default());
            let rl = solver.real_layout();
            (rl, solver.solve_potential(&local_block(&source, rl)))
        });
        for (rl, phi) in &results {
            for (i, v) in phi.iter().enumerate() {
                let g = rl.global_coords(i);
                let w = want[(g[0] * n + g[1]) * n + g[2]];
                assert!((v - w).abs() < 1e-10);
            }
        }
    }
}
