//! Pencil-decomposed distributed 3-D FFT.
//!
//! The scalable FFT of Section IV.A: data partitioned across a 2-D
//! `P1 × P2` process grid (`ranks ≤ N²`), with the transform composed of
//! interleaved transposition and sequential 1-D FFT steps where "each
//! transposition only involves a subset of all tasks" — here the row and
//! column sub-communicators obtained by `Comm::derive`. Deriving them
//! needs no collective, so a rank rebuilt alone during recovery can
//! reconstruct its transform without its peers.
//!
//! Layout sequence (forward):
//!
//! ```text
//! z-pencils [lx][ly][N]  --z FFT-->  --row transpose-->
//! y-pencils [lx][N][lz]  --y FFT-->  --column transpose-->
//! x-pencils [N][ly'][lz] --x FFT-->  k-space (x-pencil layout)
//! ```
//!
//! Note the two different y splittings: over `P2` in real space and over
//! `P1` in k space.
//!
//! Two transpose schedules are available ([`TransposeSchedule`]):
//!
//! * **Blocking** — one monolithic `alltoallv` per transpose, line FFTs
//!   after the exchange completes;
//! * **Overlapped** — each transpose is sliced into slab chunks posted
//!   through the chunked all-to-all
//!   ([`hacc_comm::Comm::alltoallv_chunked_start`]), and the line FFTs
//!   for a chunk run as soon as it lands while later chunks are still in
//!   flight — the compute/communication overlap of the paper's pencil
//!   transposes.
//!
//! Both schedules produce bitwise-identical spectra: chunk boundaries
//! only regroup the batched line transforms, and every lane of a batch
//! runs the same FMA sequence regardless of grouping (the same
//! invariant that makes the SIMD dispatch deterministic).

use std::ops::Range;
use std::sync::Mutex;

use hacc_comm::{dims_create, Comm};

use crate::complex::Complex64;
use crate::dim3::BATCH;
use crate::layout::{block_ranges, DistFft3, DistRealFft3, Layout3};
use crate::plan::Fft1d;
use crate::real::{c2r_lines, r2c_lines};
use crate::scratch::BufPool;

/// How the pencil transposes interleave communication and line FFTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeSchedule {
    /// One monolithic all-to-all per transpose; FFTs after the barrier.
    Blocking,
    /// Slice each transpose into `chunks` slab chunks and run the line
    /// FFTs of a chunk while later chunks are still in flight. A chunk
    /// count larger than the sliced dimension degenerates gracefully
    /// (empty trailing chunks); `0` behaves as `1`.
    Overlapped {
        /// Number of slab chunks per transpose.
        chunks: usize,
    },
}

impl Default for TransposeSchedule {
    fn default() -> Self {
        TransposeSchedule::Overlapped { chunks: 4 }
    }
}

/// Wall-clock breakdown of a pencil transform, accumulated across
/// `forward`/`backward` calls until [`PencilFft::take_timings`]. Under
/// the overlapped schedule `comm_s` counts only the time a receive
/// actually blocked — the overlap win shows up as `comm_s` shrinking
/// while `fft_s` stays put.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PencilTimings {
    /// Line-FFT (and r2c/c2r untangle) compute.
    pub fft_s: f64,
    /// Packing send buffers and posting sends.
    pub pack_s: f64,
    /// Blocked in chunk/collective receives.
    pub comm_s: f64,
    /// Scattering received payloads into pencil layout.
    pub unpack_s: f64,
}

#[cfg(not(miri))]
fn tick() -> Option<std::time::Instant> {
    Some(std::time::Instant::now())
}

/// Miri has no host clock under isolation; timings stay zero there.
#[cfg(miri)]
fn tick() -> Option<std::time::Instant> {
    None
}

fn tock(t: Option<std::time::Instant>, acc: &mut f64) {
    if let Some(t) = t {
        *acc += t.elapsed().as_secs_f64();
    }
}

/// Split `0..n` into exactly `parts` contiguous ranges — possibly empty
/// trailing ones when `parts > n` — identically on every rank, so
/// sender-side chunking of a peer's dimension matches the peer's own.
fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    block_ranges(n, parts)
        .into_iter()
        .map(|(s, l)| s..s + l)
        .collect()
}

/// Row chunks with boundaries on even rows, so the c2r pair-packing of
/// each chunk matches the monolithic schedule bit for bit.
fn pair_chunk_ranges(rows: usize, parts: usize) -> Vec<Range<usize>> {
    block_ranges(rows.div_ceil(2), parts)
        .into_iter()
        .map(|(s, l)| (2 * s).min(rows)..(2 * (s + l)).min(rows))
        .collect()
}

/// Pencil FFT bound to a communicator arranged as a `P1 × P2` grid.
pub struct PencilFft<'a> {
    comm: &'a Comm,
    row_comm: Comm,
    col_comm: Comm,
    n: usize,
    p1: usize,
    p2: usize,
    /// x ranges over P1.
    x1: Vec<(usize, usize)>,
    /// y ranges over P2 (real space).
    y2: Vec<(usize, usize)>,
    /// y ranges over P1 (k space).
    y1: Vec<(usize, usize)>,
    /// z ranges over P2.
    z2: Vec<(usize, usize)>,
    plan: Fft1d,
    pool: BufPool,
    schedule: TransposeSchedule,
    timings: Mutex<PencilTimings>,
}

impl<'a> PencilFft<'a> {
    /// Create a pencil FFT of global side `n`; the process grid is chosen
    /// by [`dims_create`]. Requires both grid dimensions ≤ `n`.
    #[must_use]
    pub fn new(comm: &'a Comm, n: usize) -> Self {
        let d = dims_create(comm.size(), 2);
        Self::with_grid(comm, n, d[0], d[1])
    }

    /// Create with an explicit `p1 × p2` process grid (`p1·p2 = ranks`).
    /// Local: the row and column communicators are derived, not split,
    /// so ranks need not construct the transform together.
    #[must_use]
    pub fn with_grid(comm: &'a Comm, n: usize, p1: usize, p2: usize) -> Self {
        assert_eq!(p1 * p2, comm.size(), "process grid must cover all ranks");
        assert!(
            p1 <= n && p2 <= n,
            "pencil decomposition requires grid dims ({p1},{p2}) <= N ({n})"
        );
        let my_p1 = comm.rank() / p2;
        let my_p2 = comm.rank() % p2;
        let salt =
            |axis: u64| ((n as u64) << 32) ^ ((p1 as u64) << 16) ^ ((p2 as u64) << 2) ^ axis;
        let row: Vec<usize> = (0..p2).map(|j| my_p1 * p2 + j).collect();
        let col: Vec<usize> = (0..p1).map(|i| i * p2 + my_p2).collect();
        let row_comm = comm.derive(&row, salt(1));
        let col_comm = comm.derive(&col, salt(2));
        PencilFft {
            comm,
            row_comm,
            col_comm,
            n,
            p1: my_p1,
            p2: my_p2,
            x1: block_ranges(n, p1),
            y2: block_ranges(n, p2),
            y1: block_ranges(n, p1),
            z2: block_ranges(n, p2),
            plan: Fft1d::new(n),
            pool: BufPool::new(),
            schedule: TransposeSchedule::default(),
            timings: Mutex::new(PencilTimings::default()),
        }
    }

    /// Select the transpose schedule for subsequent transforms.
    pub fn set_schedule(&mut self, schedule: TransposeSchedule) {
        self.schedule = schedule;
    }

    /// The active transpose schedule.
    #[must_use]
    pub fn schedule(&self) -> TransposeSchedule {
        self.schedule
    }

    /// Drain the accumulated timing breakdown, resetting it to zero.
    #[must_use]
    pub fn take_timings(&self) -> PencilTimings {
        std::mem::take(&mut *self.timings.lock().unwrap_or_else(|p| p.into_inner()))
    }

    fn merge_timings(&self, tm: PencilTimings) {
        let mut t = self.timings.lock().unwrap_or_else(|p| p.into_inner());
        t.fft_s += tm.fft_s;
        t.pack_s += tm.pack_s;
        t.comm_s += tm.comm_s;
        t.unpack_s += tm.unpack_s;
    }

    fn lx(&self) -> usize {
        self.x1[self.p1].1
    }
    fn ly2(&self) -> usize {
        self.y2[self.p2].1
    }
    fn ly1(&self) -> usize {
        self.y1[self.p1].1
    }
    fn lz2(&self) -> usize {
        self.z2[self.p2].1
    }

    /// On a `p × 1` grid (a true slab) the row communicator is this rank
    /// alone and a z-pencil block `[lx][n][nz]` already *is* the y-pencil
    /// block: the row transpose is the identity, so it is skipped.
    fn row_is_identity(&self) -> bool {
        self.y2.len() == 1
    }

    /// The identity row transpose: one copy, no pack or exchange.
    fn local_copy(&self, data: &[Complex64], tm: &mut PencilTimings) -> Vec<Complex64> {
        let t = tick();
        let out = data.to_vec();
        tock(t, &mut tm.unpack_s);
        out
    }

    /// Batched FFTs over contiguous rows `rows` of a `[*][len]` block
    /// (`len` must be the plan size `n`). Lines are packed batch-major
    /// into a pooled tile so the whole bundle runs in one call.
    fn fft_rows(&self, data: &mut [Complex64], len: usize, rows: Range<usize>, inverse: bool) {
        let mut tile = self.pool.lease(BATCH * len);
        let mut scratch = self.pool.lease(self.plan.scratch_len_batch(BATCH));
        let mut r0 = rows.start;
        while r0 < rows.end {
            let b = BATCH.min(rows.end - r0);
            let block = &mut data[r0 * len..(r0 + b) * len];
            for (r, row) in block.chunks(len).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    tile[j * b + r] = v;
                }
            }
            self.plan
                .transform_batch(&mut tile[..len * b], b, &mut scratch, inverse);
            for (r, row) in block.chunks_mut(len).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = tile[j * b + r];
                }
            }
            r0 += b;
        }
    }

    /// z-line FFTs in the z-pencil layout (contiguous lines).
    fn fft_z(&self, data: &mut [Complex64], inverse: bool) {
        let rows = data.len() / self.n;
        self.fft_rows(data, self.n, 0..rows, inverse);
    }

    /// Batched y-line FFTs on x-slabs `slabs` of the y-pencil layout
    /// `[lx][n][lz]` (stride `lz` — the local z extent, which differs
    /// between the c2c and r2c paths). Each slab gathers `BATCH` strided
    /// columns at a time into a pooled tile.
    fn fft_y_slabs(&self, data: &mut [Complex64], lz: usize, slabs: Range<usize>, inverse: bool) {
        let n = self.n;
        let mut tile = self.pool.lease(BATCH * n);
        let mut scratch = self.pool.lease(self.plan.scratch_len_batch(BATCH));
        for ixl in slabs {
            let block = &mut data[ixl * n * lz..(ixl + 1) * n * lz];
            let mut iz0 = 0;
            while iz0 < lz {
                let b = BATCH.min(lz - iz0);
                for iy in 0..n {
                    let row = iy * lz + iz0;
                    tile[iy * b..(iy + 1) * b].copy_from_slice(&block[row..row + b]);
                }
                self.plan
                    .transform_batch(&mut tile[..n * b], b, &mut scratch, inverse);
                for iy in 0..n {
                    let row = iy * lz + iz0;
                    block[row..row + b].copy_from_slice(&tile[iy * b..(iy + 1) * b]);
                }
                iz0 += b;
            }
        }
    }

    /// y-line FFTs over the whole y-pencil.
    fn fft_y(&self, data: &mut [Complex64], lz: usize, inverse: bool) {
        self.fft_y_slabs(data, lz, 0..self.lx(), inverse);
    }

    /// Batched x-line FFTs on y-rows `rows` of the x-pencil layout
    /// `[n][ly'][lz]` (stride ly'·lz).
    fn fft_x_rows(&self, data: &mut [Complex64], lz: usize, rows: Range<usize>, inverse: bool) {
        let (n, ly) = (self.n, self.ly1());
        let stride = ly * lz;
        let mut tile = self.pool.lease(BATCH * n);
        let mut scratch = self.pool.lease(self.plan.scratch_len_batch(BATCH));
        for iyl in rows {
            let mut iz0 = 0;
            while iz0 < lz {
                let b = BATCH.min(lz - iz0);
                let off = iyl * lz + iz0;
                for ix in 0..n {
                    let s = ix * stride + off;
                    tile[ix * b..(ix + 1) * b].copy_from_slice(&data[s..s + b]);
                }
                self.plan
                    .transform_batch(&mut tile[..n * b], b, &mut scratch, inverse);
                for ix in 0..n {
                    let s = ix * stride + off;
                    data[s..s + b].copy_from_slice(&tile[ix * b..(ix + 1) * b]);
                }
                iz0 += b;
            }
        }
    }

    /// x-line FFTs over the whole x-pencil.
    fn fft_x(&self, data: &mut [Complex64], lz: usize, inverse: bool) {
        self.fft_x_rows(data, lz, 0..self.ly1(), inverse);
    }

    /// Row transpose: z-pencils `[lx][ly2][nz]` → y-pencils `[lx][n][lz]`,
    /// where `nz` is the stored z extent (`n` for c2c, `nzh` for the
    /// half-spectrum) and `z_ranges` its split over `P2`.
    fn z_to_y(
        &self,
        data: &[Complex64],
        nz: usize,
        z_ranges: &[(usize, usize)],
        tm: &mut PencilTimings,
    ) -> Vec<Complex64> {
        if self.row_is_identity() {
            return self.local_copy(data, tm);
        }
        let (n, lx, ly) = (self.n, self.lx(), self.ly2());
        let t = tick();
        let sends: Vec<Vec<Complex64>> = z_ranges
            .iter()
            .map(|&(z0, lzq)| {
                let mut buf = Vec::with_capacity(lx * ly * lzq);
                for ixl in 0..lx {
                    for iyl in 0..ly {
                        let row = (ixl * ly + iyl) * nz + z0;
                        buf.extend_from_slice(&data[row..row + lzq]);
                    }
                }
                buf
            })
            .collect();
        tock(t, &mut tm.pack_s);
        let t = tick();
        let recvs = self.row_comm.alltoallv(sends);
        tock(t, &mut tm.comm_s);
        let t = tick();
        let lz = z_ranges[self.p2].1;
        let mut out = vec![Complex64::ZERO; lx * n * lz];
        for (q, buf) in recvs.iter().enumerate() {
            let (y0, lyq) = self.y2[q];
            let mut it = buf.iter();
            for ixl in 0..lx {
                for iyl in 0..lyq {
                    let dst = (ixl * n + y0 + iyl) * lz;
                    for v in out[dst..dst + lz].iter_mut() {
                        *v = *it.next().expect("z_to_y payload");
                    }
                }
            }
        }
        tock(t, &mut tm.unpack_s);
        out
    }

    /// Overlapped [`PencilFft::z_to_y`]: the row exchange is sliced over
    /// local x-slab chunks (every row peer shares `lx`), and `fused` runs
    /// on each slab range as soon as its chunk lands.
    fn z_to_y_chunked(
        &self,
        data: &[Complex64],
        nz: usize,
        z_ranges: &[(usize, usize)],
        chunks: usize,
        tm: &mut PencilTimings,
        mut fused: impl FnMut(&mut [Complex64], Range<usize>),
    ) -> Vec<Complex64> {
        let (n, lx, ly) = (self.n, self.lx(), self.ly2());
        let cr = chunk_ranges(lx, chunks.max(1));
        if self.row_is_identity() {
            let mut out = self.local_copy(data, tm);
            for r in cr {
                let t = tick();
                fused(&mut out, r);
                tock(t, &mut tm.fft_s);
            }
            return out;
        }
        let t = tick();
        let sends: Vec<Vec<Vec<Complex64>>> = cr
            .iter()
            .map(|r| {
                z_ranges
                    .iter()
                    .map(|&(z0, lzq)| {
                        let mut buf = Vec::with_capacity(r.len() * ly * lzq);
                        for ixl in r.clone() {
                            for iyl in 0..ly {
                                let row = (ixl * ly + iyl) * nz + z0;
                                buf.extend_from_slice(&data[row..row + lzq]);
                            }
                        }
                        buf
                    })
                    .collect()
            })
            .collect();
        let mut ex = self.row_comm.alltoallv_chunked_start(sends);
        tock(t, &mut tm.pack_s);
        let lz = z_ranges[self.p2].1;
        let mut out = vec![Complex64::ZERO; lx * n * lz];
        for r in &cr {
            let t = tick();
            let recvs = ex.recv_chunk();
            tock(t, &mut tm.comm_s);
            let t = tick();
            for (q, buf) in recvs.iter().enumerate() {
                let (y0, lyq) = self.y2[q];
                let mut it = buf.iter();
                for ixl in r.clone() {
                    for iyl in 0..lyq {
                        let dst = (ixl * n + y0 + iyl) * lz;
                        for v in out[dst..dst + lz].iter_mut() {
                            *v = *it.next().expect("z_to_y payload");
                        }
                    }
                }
            }
            tock(t, &mut tm.unpack_s);
            let t = tick();
            fused(&mut out, r.clone());
            tock(t, &mut tm.fft_s);
        }
        out
    }

    /// Inverse of [`PencilFft::z_to_y`].
    fn y_to_z(
        &self,
        data: &[Complex64],
        nz: usize,
        z_ranges: &[(usize, usize)],
        tm: &mut PencilTimings,
    ) -> Vec<Complex64> {
        if self.row_is_identity() {
            return self.local_copy(data, tm);
        }
        let (n, lx) = (self.n, self.lx());
        let lz = z_ranges[self.p2].1;
        let t = tick();
        let sends: Vec<Vec<Complex64>> = self
            .y2
            .iter()
            .map(|&(y0, lyq)| {
                let mut buf = Vec::with_capacity(lx * lyq * lz);
                for ixl in 0..lx {
                    for iyl in 0..lyq {
                        let row = (ixl * n + y0 + iyl) * lz;
                        buf.extend_from_slice(&data[row..row + lz]);
                    }
                }
                buf
            })
            .collect();
        tock(t, &mut tm.pack_s);
        let t = tick();
        let recvs = self.row_comm.alltoallv(sends);
        tock(t, &mut tm.comm_s);
        let t = tick();
        let ly = self.ly2();
        let mut out = vec![Complex64::ZERO; lx * ly * nz];
        for (q, buf) in recvs.iter().enumerate() {
            let (z0, lzq) = z_ranges[q];
            let mut it = buf.iter();
            for ixl in 0..lx {
                for iyl in 0..ly {
                    let dst = (ixl * ly + iyl) * nz + z0;
                    for v in out[dst..dst + lzq].iter_mut() {
                        *v = *it.next().expect("y_to_z payload");
                    }
                }
            }
        }
        tock(t, &mut tm.unpack_s);
        out
    }

    /// Overlapped [`PencilFft::y_to_z`]: sliced over the *receiver's*
    /// z-pencil rows `(ixl, iyl)` — the sender packs rows destined for
    /// peer `q` in exactly `q`'s row order, so both sides chunk the same
    /// sequence. With `pair_align` the chunk boundaries stay on even
    /// rows so the c2r pair-packing matches the monolithic schedule.
    /// `fused` sees the output rows of each landed chunk (their full z
    /// lines are complete once every peer's chunk is in).
    #[allow(clippy::too_many_arguments)]
    fn y_to_z_chunked(
        &self,
        data: &[Complex64],
        nz: usize,
        z_ranges: &[(usize, usize)],
        chunks: usize,
        pair_align: bool,
        tm: &mut PencilTimings,
        mut fused: impl FnMut(&mut [Complex64], Range<usize>),
    ) -> Vec<Complex64> {
        let (n, lx) = (self.n, self.lx());
        let lz = z_ranges[self.p2].1;
        let parts = chunks.max(1);
        let row_chunks = |rows: usize| {
            if pair_align {
                pair_chunk_ranges(rows, parts)
            } else {
                chunk_ranges(rows, parts)
            }
        };
        if self.row_is_identity() {
            let mut out = self.local_copy(data, tm);
            for rr in row_chunks(lx * self.ly2()) {
                let t = tick();
                fused(&mut out, rr);
                tock(t, &mut tm.fft_s);
            }
            return out;
        }
        let t = tick();
        let sends: Vec<Vec<Vec<Complex64>>> = (0..parts)
            .map(|ci| {
                self.y2
                    .iter()
                    .map(|&(y0, lyq)| {
                        let rr = row_chunks(lx * lyq)[ci].clone();
                        let mut buf = Vec::with_capacity(rr.len() * lz);
                        for r in rr {
                            let (ixl, iyl) = (r / lyq, r % lyq);
                            let row = (ixl * n + y0 + iyl) * lz;
                            buf.extend_from_slice(&data[row..row + lz]);
                        }
                        buf
                    })
                    .collect()
            })
            .collect();
        let mut ex = self.row_comm.alltoallv_chunked_start(sends);
        tock(t, &mut tm.pack_s);
        let ly = self.ly2();
        let cr = row_chunks(lx * ly);
        let mut out = vec![Complex64::ZERO; lx * ly * nz];
        for rr in &cr {
            let t = tick();
            let recvs = ex.recv_chunk();
            tock(t, &mut tm.comm_s);
            let t = tick();
            for (q, buf) in recvs.iter().enumerate() {
                let (z0, lzq) = z_ranges[q];
                let mut it = buf.iter();
                for r in rr.clone() {
                    let dst = r * nz + z0;
                    for v in out[dst..dst + lzq].iter_mut() {
                        *v = *it.next().expect("y_to_z payload");
                    }
                }
            }
            tock(t, &mut tm.unpack_s);
            let t = tick();
            fused(&mut out, rr.clone());
            tock(t, &mut tm.fft_s);
        }
        out
    }

    /// Column transpose: y-pencils `[lx][n][lz]` → x-pencils `[n][ly1][lz]`.
    fn y_to_x(&self, data: &[Complex64], lz: usize, tm: &mut PencilTimings) -> Vec<Complex64> {
        let (n, lx) = (self.n, self.lx());
        let t = tick();
        let sends: Vec<Vec<Complex64>> = self
            .y1
            .iter()
            .map(|&(y0, lyq)| {
                let mut buf = Vec::with_capacity(lx * lyq * lz);
                for ixl in 0..lx {
                    for iyl in 0..lyq {
                        let row = (ixl * n + y0 + iyl) * lz;
                        buf.extend_from_slice(&data[row..row + lz]);
                    }
                }
                buf
            })
            .collect();
        tock(t, &mut tm.pack_s);
        let t = tick();
        let recvs = self.col_comm.alltoallv(sends);
        tock(t, &mut tm.comm_s);
        let t = tick();
        let ly = self.ly1();
        let mut out = vec![Complex64::ZERO; n * ly * lz];
        for (q, buf) in recvs.iter().enumerate() {
            let (x0, lxq) = self.x1[q];
            let mut it = buf.iter();
            for ixl in 0..lxq {
                for iyl in 0..ly {
                    let dst = ((x0 + ixl) * ly + iyl) * lz;
                    for v in out[dst..dst + lz].iter_mut() {
                        *v = *it.next().expect("y_to_x payload");
                    }
                }
            }
        }
        tock(t, &mut tm.unpack_s);
        out
    }

    /// Overlapped [`PencilFft::y_to_x`]: sliced over the *receiver's*
    /// k-space y rows — the sender chunks the `y1[q]` range it owes peer
    /// `q` with the same deterministic split `q` uses on its own `ly1`.
    fn y_to_x_chunked(
        &self,
        data: &[Complex64],
        lz: usize,
        chunks: usize,
        tm: &mut PencilTimings,
        mut fused: impl FnMut(&mut [Complex64], Range<usize>),
    ) -> Vec<Complex64> {
        let (n, lx) = (self.n, self.lx());
        let parts = chunks.max(1);
        let t = tick();
        let sends: Vec<Vec<Vec<Complex64>>> = (0..parts)
            .map(|ci| {
                self.y1
                    .iter()
                    .map(|&(y0, lyq)| {
                        let r = chunk_ranges(lyq, parts)[ci].clone();
                        let mut buf = Vec::with_capacity(lx * r.len() * lz);
                        for ixl in 0..lx {
                            for iyl in r.clone() {
                                let row = (ixl * n + y0 + iyl) * lz;
                                buf.extend_from_slice(&data[row..row + lz]);
                            }
                        }
                        buf
                    })
                    .collect()
            })
            .collect();
        let mut ex = self.col_comm.alltoallv_chunked_start(sends);
        tock(t, &mut tm.pack_s);
        let ly = self.ly1();
        let cr = chunk_ranges(ly, parts);
        let mut out = vec![Complex64::ZERO; n * ly * lz];
        for r in &cr {
            let t = tick();
            let recvs = ex.recv_chunk();
            tock(t, &mut tm.comm_s);
            let t = tick();
            for (q, buf) in recvs.iter().enumerate() {
                let (x0, lxq) = self.x1[q];
                let mut it = buf.iter();
                for ixl in 0..lxq {
                    for iyl in r.clone() {
                        let dst = ((x0 + ixl) * ly + iyl) * lz;
                        for v in out[dst..dst + lz].iter_mut() {
                            *v = *it.next().expect("y_to_x payload");
                        }
                    }
                }
            }
            tock(t, &mut tm.unpack_s);
            let t = tick();
            fused(&mut out, r.clone());
            tock(t, &mut tm.fft_s);
        }
        out
    }

    /// Inverse of [`PencilFft::y_to_x`].
    fn x_to_y(&self, data: &[Complex64], lz: usize, tm: &mut PencilTimings) -> Vec<Complex64> {
        let (n, ly) = (self.n, self.ly1());
        let t = tick();
        let sends: Vec<Vec<Complex64>> = self
            .x1
            .iter()
            .map(|&(x0, lxq)| {
                let mut buf = Vec::with_capacity(lxq * ly * lz);
                for ixl in 0..lxq {
                    for iyl in 0..ly {
                        let row = ((x0 + ixl) * ly + iyl) * lz;
                        buf.extend_from_slice(&data[row..row + lz]);
                    }
                }
                buf
            })
            .collect();
        tock(t, &mut tm.pack_s);
        let t = tick();
        let recvs = self.col_comm.alltoallv(sends);
        tock(t, &mut tm.comm_s);
        let t = tick();
        let lx = self.lx();
        let mut out = vec![Complex64::ZERO; lx * n * lz];
        for (q, buf) in recvs.iter().enumerate() {
            let (y0, lyq) = self.y1[q];
            let mut it = buf.iter();
            for ixl in 0..lx {
                for iyl in 0..lyq {
                    let dst = (ixl * n + y0 + iyl) * lz;
                    for v in out[dst..dst + lz].iter_mut() {
                        *v = *it.next().expect("x_to_y payload");
                    }
                }
            }
        }
        tock(t, &mut tm.unpack_s);
        out
    }

    /// Overlapped [`PencilFft::x_to_y`]: sliced over the *receiver's*
    /// local x-slabs — the sender chunks the `x1[q]` range it owes peer
    /// `q` with the same deterministic split `q` uses on its own `lx`.
    fn x_to_y_chunked(
        &self,
        data: &[Complex64],
        lz: usize,
        chunks: usize,
        tm: &mut PencilTimings,
        mut fused: impl FnMut(&mut [Complex64], Range<usize>),
    ) -> Vec<Complex64> {
        let (n, ly) = (self.n, self.ly1());
        let parts = chunks.max(1);
        let t = tick();
        let sends: Vec<Vec<Vec<Complex64>>> = (0..parts)
            .map(|ci| {
                self.x1
                    .iter()
                    .map(|&(x0, lxq)| {
                        let r = chunk_ranges(lxq, parts)[ci].clone();
                        let mut buf = Vec::with_capacity(r.len() * ly * lz);
                        for ixl in r.clone() {
                            for iyl in 0..ly {
                                let row = ((x0 + ixl) * ly + iyl) * lz;
                                buf.extend_from_slice(&data[row..row + lz]);
                            }
                        }
                        buf
                    })
                    .collect()
            })
            .collect();
        let mut ex = self.col_comm.alltoallv_chunked_start(sends);
        tock(t, &mut tm.pack_s);
        let lx = self.lx();
        let cr = chunk_ranges(lx, parts);
        let mut out = vec![Complex64::ZERO; lx * n * lz];
        for r in &cr {
            let t = tick();
            let recvs = ex.recv_chunk();
            tock(t, &mut tm.comm_s);
            let t = tick();
            for (q, buf) in recvs.iter().enumerate() {
                let (y0, lyq) = self.y1[q];
                let mut it = buf.iter();
                for ixl in r.clone() {
                    for iyl in 0..lyq {
                        let dst = (ixl * n + y0 + iyl) * lz;
                        for v in out[dst..dst + lz].iter_mut() {
                            *v = *it.next().expect("x_to_y payload");
                        }
                    }
                }
            }
            tock(t, &mut tm.unpack_s);
            let t = tick();
            fused(&mut out, r.clone());
            tock(t, &mut tm.fft_s);
        }
        out
    }
}

impl DistFft3 for PencilFft<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn real_layout(&self) -> Layout3 {
        Layout3 {
            n: self.n,
            origin: [self.x1[self.p1].0, self.y2[self.p2].0, 0],
            size: [self.lx(), self.ly2(), self.n],
        }
    }

    fn k_layout(&self) -> Layout3 {
        Layout3 {
            n: self.n,
            origin: [0, self.y1[self.p1].0, self.z2[self.p2].0],
            size: [self.n, self.ly1(), self.lz2()],
        }
    }

    fn forward(&self, mut data: Vec<Complex64>) -> Vec<Complex64> {
        assert_eq!(data.len(), self.real_layout().len());
        let mut tm = PencilTimings::default();
        let lz = self.lz2();
        let t = tick();
        self.fft_z(&mut data, false);
        tock(t, &mut tm.fft_s);
        let x = match self.schedule {
            TransposeSchedule::Blocking => {
                let mut y = self.z_to_y(&data, self.n, &self.z2, &mut tm);
                let t = tick();
                self.fft_y(&mut y, lz, false);
                tock(t, &mut tm.fft_s);
                let mut x = self.y_to_x(&y, lz, &mut tm);
                let t = tick();
                self.fft_x(&mut x, lz, false);
                tock(t, &mut tm.fft_s);
                x
            }
            TransposeSchedule::Overlapped { chunks } => {
                let y = self.z_to_y_chunked(&data, self.n, &self.z2, chunks, &mut tm, |out, r| {
                    self.fft_y_slabs(out, lz, r, false);
                });
                self.y_to_x_chunked(&y, lz, chunks, &mut tm, |out, r| {
                    self.fft_x_rows(out, lz, r, false);
                })
            }
        };
        self.merge_timings(tm);
        x
    }

    fn backward(&self, mut data: Vec<Complex64>) -> Vec<Complex64> {
        assert_eq!(data.len(), self.k_layout().len());
        let mut tm = PencilTimings::default();
        let lz = self.lz2();
        let t = tick();
        self.fft_x(&mut data, lz, true);
        tock(t, &mut tm.fft_s);
        let mut z = match self.schedule {
            TransposeSchedule::Blocking => {
                let mut y = self.x_to_y(&data, lz, &mut tm);
                let t = tick();
                self.fft_y(&mut y, lz, true);
                tock(t, &mut tm.fft_s);
                let mut z = self.y_to_z(&y, self.n, &self.z2, &mut tm);
                let t = tick();
                self.fft_z(&mut z, true);
                tock(t, &mut tm.fft_s);
                z
            }
            TransposeSchedule::Overlapped { chunks } => {
                let y = self.x_to_y_chunked(&data, lz, chunks, &mut tm, |out, r| {
                    self.fft_y_slabs(out, lz, r, true);
                });
                self.y_to_z_chunked(&y, self.n, &self.z2, chunks, false, &mut tm, |out, rr| {
                    self.fft_rows(out, self.n, rr, true);
                })
            }
        };
        let t = tick();
        let inv = 1.0 / (self.n * self.n * self.n) as f64;
        for v in z.iter_mut() {
            *v = v.scale(inv);
        }
        tock(t, &mut tm.fft_s);
        self.merge_timings(tm);
        z
    }

    fn comm(&self) -> &Comm {
        self.comm
    }
}

/// Real-to-complex pencil FFT over the Hermitian half-spectrum.
///
/// Reuses the complex pencil machinery with the z extent shrunk to
/// `nzh = n/2 + 1` after the local r2c z pass: the row transpose, y/x
/// line FFTs and column transpose all operate on `nzh`-deep pencils, so
/// both the communication volume and the y/x FFT work drop by nearly
/// half relative to the c2c path — the same saving the serial
/// [`crate::real::RealFft3`] realizes.
pub struct RealPencilFft<'a> {
    inner: PencilFft<'a>,
    nzh: usize,
    /// Half-spectrum z ranges over P2.
    zh2: Vec<(usize, usize)>,
}

impl<'a> RealPencilFft<'a> {
    /// Create a real pencil FFT of global side `n`; the process grid is
    /// chosen by [`dims_create`].
    #[must_use]
    pub fn new(comm: &'a Comm, n: usize) -> Self {
        let d = dims_create(comm.size(), 2);
        Self::with_grid(comm, n, d[0], d[1])
    }

    /// Create with an explicit `p1 × p2` process grid (`p1·p2 = ranks`).
    #[must_use]
    pub fn with_grid(comm: &'a Comm, n: usize, p1: usize, p2: usize) -> Self {
        let nzh = n / 2 + 1;
        assert!(
            p2 <= nzh,
            "real pencil decomposition requires P2 ({p2}) <= n/2+1 ({nzh})"
        );
        RealPencilFft {
            inner: PencilFft::with_grid(comm, n, p1, p2),
            nzh,
            zh2: block_ranges(nzh, p2),
        }
    }

    /// Select the transpose schedule for subsequent transforms.
    pub fn set_schedule(&mut self, schedule: TransposeSchedule) {
        self.inner.set_schedule(schedule);
    }

    /// The active transpose schedule.
    #[must_use]
    pub fn schedule(&self) -> TransposeSchedule {
        self.inner.schedule()
    }

    /// Drain the accumulated timing breakdown, resetting it to zero.
    #[must_use]
    pub fn take_timings(&self) -> PencilTimings {
        self.inner.take_timings()
    }

    /// Local half-spectrum z extent.
    fn lzh(&self) -> usize {
        self.zh2[self.inner.p2].1
    }
}

impl DistRealFft3 for RealPencilFft<'_> {
    fn n(&self) -> usize {
        self.inner.n
    }

    fn nzh(&self) -> usize {
        self.nzh
    }

    fn real_layout(&self) -> Layout3 {
        self.inner.real_layout()
    }

    fn k_layout(&self) -> Layout3 {
        let f = &self.inner;
        Layout3 {
            n: f.n,
            origin: [0, f.y1[f.p1].0, self.zh2[f.p2].0],
            size: [f.n, f.ly1(), self.lzh()],
        }
    }

    fn forward(&self, data: Vec<f64>) -> Vec<Complex64> {
        let f = &self.inner;
        assert_eq!(data.len(), self.real_layout().len());
        let mut tm = PencilTimings::default();
        let (n, nzh) = (f.n, self.nzh);
        let lz = self.lzh();
        // Local r2c z pass: pair-packed real-line bundles → half-spectrum
        // rows, batched through pooled tiles.
        let rows = f.lx() * f.ly2();
        let mut spec = vec![Complex64::ZERO; rows * nzh];
        let t = tick();
        {
            let mut zbuf = f.pool.lease(BATCH * n);
            let mut scratch = f.pool.lease(f.plan.scratch_len_batch(BATCH));
            for (src, dst) in data
                .chunks(2 * BATCH * n)
                .zip(spec.chunks_mut(2 * BATCH * nzh))
            {
                r2c_lines(&f.plan, src, dst, n, nzh, &mut zbuf, &mut scratch);
            }
        }
        tock(t, &mut tm.fft_s);
        let x = match f.schedule {
            TransposeSchedule::Blocking => {
                let mut y = f.z_to_y(&spec, nzh, &self.zh2, &mut tm);
                let t = tick();
                f.fft_y(&mut y, lz, false);
                tock(t, &mut tm.fft_s);
                let mut x = f.y_to_x(&y, lz, &mut tm);
                let t = tick();
                f.fft_x(&mut x, lz, false);
                tock(t, &mut tm.fft_s);
                x
            }
            TransposeSchedule::Overlapped { chunks } => {
                let y = f.z_to_y_chunked(&spec, nzh, &self.zh2, chunks, &mut tm, |out, r| {
                    f.fft_y_slabs(out, lz, r, false);
                });
                f.y_to_x_chunked(&y, lz, chunks, &mut tm, |out, r| {
                    f.fft_x_rows(out, lz, r, false);
                })
            }
        };
        f.merge_timings(tm);
        x
    }

    fn backward(&self, mut data: Vec<Complex64>) -> Vec<f64> {
        self.backward_from(&mut data)
    }

    fn backward_from(&self, data: &mut [Complex64]) -> Vec<f64> {
        let f = &self.inner;
        assert_eq!(data.len(), self.k_layout().len());
        let mut tm = PencilTimings::default();
        let (n, nzh) = (f.n, self.nzh);
        let lz = self.lzh();
        let rows = f.lx() * f.ly2();
        let inv = 1.0 / (n * n * n) as f64;
        let mut out = vec![0.0f64; rows * n];
        let t = tick();
        f.fft_x(data, lz, true);
        tock(t, &mut tm.fft_s);
        match f.schedule {
            TransposeSchedule::Blocking => {
                let mut y = f.x_to_y(data, lz, &mut tm);
                let t = tick();
                f.fft_y(&mut y, lz, true);
                tock(t, &mut tm.fft_s);
                let spec = f.y_to_z(&y, nzh, &self.zh2, &mut tm);
                let t = tick();
                let mut zbuf = f.pool.lease(BATCH * n);
                let mut scratch = f.pool.lease(f.plan.scratch_len_batch(BATCH));
                for (src, dst) in spec
                    .chunks(2 * BATCH * nzh)
                    .zip(out.chunks_mut(2 * BATCH * n))
                {
                    c2r_lines(&f.plan, src, dst, n, nzh, inv, &mut zbuf, &mut scratch);
                }
                tock(t, &mut tm.fft_s);
            }
            TransposeSchedule::Overlapped { chunks } => {
                let y = f.x_to_y_chunked(data, lz, chunks, &mut tm, |o, r| {
                    f.fft_y_slabs(o, lz, r, true);
                });
                // Pair-aligned row chunks keep the c2r line pairing — and
                // with it the bitwise result — identical to Blocking.
                let mut zbuf = f.pool.lease(BATCH * n);
                let mut scratch = f.pool.lease(f.plan.scratch_len_batch(BATCH));
                let real_out = &mut out;
                let _ = f.y_to_z_chunked(&y, nzh, &self.zh2, chunks, true, &mut tm, |spec, rr| {
                    for r0 in rr.clone().step_by(2 * BATCH) {
                        let r1 = (r0 + 2 * BATCH).min(rr.end);
                        c2r_lines(
                            &f.plan,
                            &spec[r0 * nzh..r1 * nzh],
                            &mut real_out[r0 * n..r1 * n],
                            n,
                            nzh,
                            inv,
                            &mut zbuf,
                            &mut scratch,
                        );
                    }
                });
            }
        }
        f.merge_timings(tm);
        out
    }

    fn comm(&self) -> &Comm {
        self.inner.comm
    }
}

// Not run under miri: every test here spins up a threads-as-ranks
// Machine (interpreter cost multiplies per rank thread) and the
// transpose path has no unsafe code; the serial 3-D FFT tests cover
// the unsafe strided pass under miri.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::dim3::Fft3;
    use hacc_comm::Machine;

    fn rand_grid(len: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        (0..len).map(|_| Complex64::new(next(), next())).collect()
    }

    fn cbits(c: &Complex64) -> (u64, u64) {
        (c.re.to_bits(), c.im.to_bits())
    }

    fn check(n: usize, p1: usize, p2: usize) {
        let global = rand_grid(n * n * n, 1000 + n as u64);
        let mut want = global.clone();
        Fft3::new_cubic(n).forward(&mut want);

        let globals = global.clone();
        let (results, _) = Machine::new(p1 * p2).run(move |comm| {
            let fft = PencilFft::with_grid(&comm, n, p1, p2);
            let rl = fft.real_layout();
            let mut local = vec![Complex64::ZERO; rl.len()];
            for (i, v) in local.iter_mut().enumerate() {
                let g = rl.global_coords(i);
                *v = globals[(g[0] * n + g[1]) * n + g[2]];
            }
            let k = fft.forward(local);
            (fft.k_layout(), k)
        });
        for (lay, k) in &results {
            for (i, v) in k.iter().enumerate() {
                let g = lay.global_coords(i);
                let w = want[(g[0] * n + g[1]) * n + g[2]];
                assert!(
                    (*v - w).abs() < 1e-8,
                    "n={n} grid {p1}x{p2} at {g:?}: {v:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn single_rank() {
        check(6, 1, 1);
    }

    #[test]
    fn row_only_and_col_only() {
        check(8, 1, 4);
        check(8, 4, 1);
    }

    #[test]
    fn square_grids() {
        check(8, 2, 2);
        check(12, 3, 3);
    }

    #[test]
    fn rectangular_grid_uneven_sizes() {
        check(10, 2, 3);
        check(9, 3, 2);
    }

    #[test]
    fn more_ranks_than_n_allowed() {
        // 4x4 = 16 ranks on a 6³ grid: beyond slab's limit but fine here
        // as long as each grid dim ≤ n.
        check(6, 4, 4);
    }

    #[test]
    fn roundtrip_distributed() {
        let n = 8;
        let (ok, _) = Machine::new(6).run(|comm| {
            let fft = PencilFft::with_grid(&comm, n, 3, 2);
            let orig = rand_grid(fft.real_layout().len(), 5 + comm.rank() as u64);
            let k = fft.forward(orig.clone());
            assert_eq!(k.len(), fft.k_layout().len());
            let back = fft.backward(k);
            back.iter()
                .zip(&orig)
                .all(|(a, b)| (*a - *b).abs() < 1e-10)
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Blocking and overlapped schedules must agree bit for bit, for any
    /// chunk count — including more chunks than the sliced dimensions.
    #[test]
    fn schedules_bitwise_identical_c2c() {
        for (n, p1, p2) in [(8usize, 2usize, 2usize), (10, 2, 3), (9, 3, 2), (9, 3, 1)] {
            let (res, _) = Machine::new(p1 * p2).run(move |comm| {
                let orig = rand_grid(
                    PencilFft::with_grid(&comm, n, p1, p2).real_layout().len(),
                    77 + comm.rank() as u64,
                );
                let mut outs = Vec::new();
                for sched in [
                    TransposeSchedule::Blocking,
                    TransposeSchedule::Overlapped { chunks: 1 },
                    TransposeSchedule::Overlapped { chunks: 3 },
                    TransposeSchedule::Overlapped { chunks: 64 },
                ] {
                    let mut fft = PencilFft::with_grid(&comm, n, p1, p2);
                    fft.set_schedule(sched);
                    let k = fft.forward(orig.clone());
                    let back = fft.backward(k.clone());
                    outs.push((k, back));
                }
                let (k0, b0) = &outs[0];
                outs.iter().all(|(k, b)| {
                    k.iter().zip(k0).all(|(a, c)| cbits(a) == cbits(c))
                        && b.iter().zip(b0).all(|(a, c)| cbits(a) == cbits(c))
                })
            });
            assert!(res.iter().all(|&ok| ok), "n={n} {p1}x{p2}");
        }
    }

    /// Same bitwise agreement for the r2c/c2r path, where the backward
    /// row chunks must additionally stay pair-aligned.
    #[test]
    fn schedules_bitwise_identical_r2c() {
        let grids = [(8usize, 2usize, 2usize), (10, 2, 3), (9, 3, 2), (7, 2, 2), (8, 2, 1), (9, 3, 1)];
        for (n, p1, p2) in grids {
            let (res, _) = Machine::new(p1 * p2).run(move |comm| {
                let orig: Vec<f64> = rand_grid(
                    RealPencilFft::with_grid(&comm, n, p1, p2)
                        .real_layout()
                        .len(),
                    123 + comm.rank() as u64,
                )
                .iter()
                .map(|c| c.re)
                .collect();
                let mut outs = Vec::new();
                for sched in [
                    TransposeSchedule::Blocking,
                    TransposeSchedule::Overlapped { chunks: 2 },
                    TransposeSchedule::Overlapped { chunks: 5 },
                ] {
                    let mut fft = RealPencilFft::with_grid(&comm, n, p1, p2);
                    fft.set_schedule(sched);
                    let k = fft.forward(orig.clone());
                    let back = fft.backward(k.clone());
                    outs.push((k, back));
                }
                let (k0, b0) = &outs[0];
                outs.iter().all(|(k, b)| {
                    k.iter().zip(k0).all(|(a, c)| cbits(a) == cbits(c))
                        && b.iter().zip(b0).all(|(a, c)| a.to_bits() == c.to_bits())
                })
            });
            assert!(res.iter().all(|&ok| ok), "n={n} {p1}x{p2}");
        }
    }

    #[test]
    fn timings_accumulate_and_drain() {
        let (res, _) = Machine::new(4).run(|comm| {
            let fft = PencilFft::with_grid(&comm, 8, 2, 2);
            let orig = rand_grid(fft.real_layout().len(), 9);
            let _ = fft.backward(fft.forward(orig));
            let tm = fft.take_timings();
            let drained = fft.take_timings();
            (tm.fft_s > 0.0, drained == PencilTimings::default())
        });
        for (busy, drained) in res {
            assert!(busy, "fft time should be nonzero");
            assert!(drained, "take_timings drains");
        }
    }

    #[test]
    fn k_layouts_tile_the_cube() {
        let n = 8;
        let (lays, _) = Machine::new(4).run(|comm| {
            let fft = PencilFft::with_grid(&comm, n, 2, 2);
            fft.k_layout()
        });
        let total: usize = lays.iter().map(|l| l.len()).sum();
        assert_eq!(total, n * n * n);
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn oversized_grid_dim_rejected() {
        let (_, _) = Machine::new(8).run(|comm| {
            let _ = PencilFft::with_grid(&comm, 4, 8, 1);
        });
    }

    fn rand_real(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect()
    }

    fn check_real(n: usize, p1: usize, p2: usize) {
        use crate::real::RealFft3;
        let nzh = n / 2 + 1;
        let global = rand_real(n * n * n, 7000 + n as u64);
        let mut want = vec![Complex64::ZERO; n * n * nzh];
        RealFft3::new_cubic(n).forward(&global, &mut want);

        let globals = global.clone();
        let (results, _) = Machine::new(p1 * p2).run(move |comm| {
            let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
            let rl = fft.real_layout();
            let mut local = vec![0.0f64; rl.len()];
            for (i, v) in local.iter_mut().enumerate() {
                let g = rl.global_coords(i);
                *v = globals[(g[0] * n + g[1]) * n + g[2]];
            }
            let k = fft.forward(local);
            assert_eq!(k.len(), fft.k_layout().len());
            (fft.k_layout(), k)
        });
        let total: usize = results.iter().map(|(l, _)| l.len()).sum();
        assert_eq!(total, n * n * nzh, "half-spectrum tiles the k box");
        for (lay, k) in &results {
            for (i, v) in k.iter().enumerate() {
                let g = lay.global_coords(i);
                let w = want[(g[0] * n + g[1]) * nzh + g[2]];
                assert!(
                    (*v - w).abs() < 1e-8,
                    "n={n} grid {p1}x{p2} at {g:?}: {v:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn real_matches_serial_half_spectrum() {
        check_real(8, 2, 2);
        check_real(6, 1, 2);
        check_real(8, 1, 4);
        check_real(8, 4, 1);
        check_real(9, 3, 1);
    }

    #[test]
    fn real_matches_serial_non_power_of_two_and_odd() {
        check_real(10, 2, 3);
        check_real(9, 3, 2);
        check_real(7, 2, 2);
    }

    #[test]
    fn real_roundtrip_distributed() {
        for (n, p1, p2) in [(8usize, 3usize, 2usize), (9, 2, 2), (12, 2, 3)] {
            let (ok, _) = Machine::new(p1 * p2).run(move |comm| {
                let fft = RealPencilFft::with_grid(&comm, n, p1, p2);
                let orig = rand_real(fft.real_layout().len(), 31 + comm.rank() as u64);
                let k = fft.forward(orig.clone());
                let back = fft.backward(k);
                back.iter()
                    .zip(&orig)
                    .all(|(a, b)| (*a - *b).abs() < 1e-12)
            });
            assert!(ok.iter().all(|&b| b), "roundtrip n={n} {p1}x{p2}");
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn real_pencil_rejects_p2_beyond_half_spectrum() {
        // n=6 → nzh=4; P2=6 would leave ranks with no half-spectrum z bins.
        let (_, _) = Machine::new(6).run(|comm| {
            let _ = RealPencilFft::with_grid(&comm, 6, 1, 6);
        });
    }
}
