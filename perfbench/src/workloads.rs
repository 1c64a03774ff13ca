//! The three application patterns. Each is a closed loop over two ranks
//! (one per node process): a rank starts its next step only after its
//! previous one completed.
//!
//! Every input is derived from the run's seed, and every step's output is
//! checked: a step that returns an error or reads back a wrong value
//! counts as failed.

use std::sync::Arc;

use armci_core::{Armci, GlobalAddr, LockId, TransferPlan};
use armci_ga::{GlobalArray, Patch, SyncAlg};
use armci_transport::{ProcId, Segment};

/// The timed calls into the library, one latency distribution each.
#[derive(Clone, Copy)]
pub enum Span {
    GaPut,
    GaSync,
    Lock,
    Unlock,
    GetU64,
    PutU64,
    PlanPost,
    PlanSync,
    Pack,
    Unpack,
}

pub const SPANS: usize = 10;

/// Per-span samples, recorded only in a traced phase.
pub struct Spans {
    pub on: bool,
    pub by: Vec<crate::stats::Samples>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { on: false, by: (0..SPANS).map(|_| Default::default()).collect() }
    }

    /// Run `f`, timing it as `span` when tracing is on.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        if self.on {
            self.by[span as usize].time(f)
        } else {
            f()
        }
    }
}

/// SplitMix64 over a chain of words: the deterministic source of every
/// generated input.
pub fn mix(words: &[u64]) -> u64 {
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for &w in words {
        x = (x ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// An integer-valued `f64` below 2^40, so `base + i` stays exact.
fn base_value(words: &[u64]) -> f64 {
    (mix(words) >> 24) as f64
}

/// One workload's per-rank state.
pub trait Workload {
    /// Steps between two stop checks (about 0.1 s): the step after a
    /// check may be slow, so checks must stay far rarer than the 1% tail.
    fn chunk(&self) -> u64;
    /// Untimed: generate the inputs of step `k`.
    fn prep(&mut self, a: &mut Armci, k: u64);
    /// Timed: run step `k`; `false` when a library call failed.
    fn step(&mut self, a: &mut Armci, k: u64, spans: &mut Spans) -> bool;
    /// Untimed: check the outputs of step `k`. `corrupt` replaces one
    /// expected value, to prove that a wrong output is caught.
    fn check(&mut self, a: &mut Armci, k: u64, corrupt: bool) -> bool;
    /// Rank 0, after every rank has stopped: failures found only at the
    /// end, given the successful steps of all ranks.
    fn final_failures(&mut self, _a: &mut Armci, _ok_steps: u64, _corrupt: bool) -> u64 {
        0
    }
    /// Bytes one step copies through `Segment` reads and writes, on
    /// this rank and at the server that applies its puts, computed from
    /// the sizes.
    fn bytes_per_step(&self) -> u64;
}

// ---------------------------------------------------------------------
// ga_sync: the Figure 7 superstep
// ---------------------------------------------------------------------

/// Patches written into the peer's block per step.
const PATCHES: usize = 4;
/// Patch edge, as in the paper's put phase.
const EDGE: usize = 4;

pub struct GaSync {
    /// Two arrays used on alternate steps: the peer can overwrite step
    /// `k`'s patches only after the sync of step `k + 1`, which this rank
    /// enters after checking them.
    arrays: [GlobalArray; 2],
    me: u64,
    peer: u64,
    seed: u64,
    /// EDGE x EDGE tiles of the peer's block and of this rank's block.
    peer_tiles: Vec<Patch>,
    my_tiles: Vec<Patch>,
    picks: [usize; PATCHES],
    data: Vec<f64>,
}

fn tiles_of(p: Patch) -> Vec<Patch> {
    let mut out = Vec::new();
    for r in (p.row_lo..p.row_hi - EDGE + 1).step_by(EDGE) {
        for c in (p.col_lo..p.col_hi - EDGE + 1).step_by(EDGE) {
            out.push(Patch::new(r, r + EDGE, c, c + EDGE));
        }
    }
    out
}

/// `PATCHES` distinct tile indices out of `n`, drawn for `(writer, k)`.
fn pick_tiles(seed: u64, writer: u64, k: u64, n: usize) -> [usize; PATCHES] {
    let mut picks = [0; PATCHES];
    let mut j = 0;
    let mut draw = 0;
    while j < PATCHES {
        let t = (mix(&[seed, writer, k, draw]) % n as u64) as usize;
        draw += 1;
        if !picks[..j].contains(&t) {
            picks[j] = t;
            j += 1;
        }
    }
    picks
}

fn patch_values(seed: u64, writer: u64, k: u64, j: usize) -> impl Iterator<Item = f64> {
    let base = base_value(&[seed, writer, k, j as u64]);
    (0..EDGE * EDGE).map(move |i| base + i as f64)
}

impl GaSync {
    pub fn setup(a: &mut Armci, seed: u64) -> Self {
        let arrays = [GlobalArray::create(a, 64, 64), GlobalArray::create(a, 64, 64)];
        let me = a.rank() as u64;
        let peer = 1 - me;
        GaSync {
            peer_tiles: tiles_of(arrays[0].owned_patch(peer as usize)),
            my_tiles: tiles_of(arrays[0].owned_patch(me as usize)),
            arrays,
            me,
            peer,
            seed,
            picks: [0; PATCHES],
            data: Vec::with_capacity(PATCHES * EDGE * EDGE),
        }
    }
}

impl Workload for GaSync {
    fn chunk(&self) -> u64 {
        2048
    }

    fn prep(&mut self, _a: &mut Armci, k: u64) {
        self.picks = pick_tiles(self.seed, self.me, k, self.peer_tiles.len());
        self.data.clear();
        for j in 0..PATCHES {
            self.data.extend(patch_values(self.seed, self.me, k, j));
        }
    }

    fn step(&mut self, a: &mut Armci, k: u64, spans: &mut Spans) -> bool {
        let ga = self.arrays[(k % 2) as usize];
        for (j, &t) in self.picks.iter().enumerate() {
            let vals = &self.data[j * EDGE * EDGE..(j + 1) * EDGE * EDGE];
            spans.time(Span::GaPut, || ga.put(a, self.peer_tiles[t], vals));
        }
        spans.time(Span::GaSync, || ga.sync_world(a, SyncAlg::CombinedBarrier));
        true
    }

    fn check(&mut self, a: &mut Armci, k: u64, corrupt: bool) -> bool {
        // One of the peer's patches of this step, chosen from the seed.
        let j = (mix(&[self.seed, self.me, k, u64::MAX]) % PATCHES as u64) as usize;
        let t = pick_tiles(self.seed, self.peer, k, self.my_tiles.len())[j];
        let got = self.arrays[(k % 2) as usize].get(a, self.my_tiles[t]);
        let mut want: Vec<f64> = patch_values(self.seed, self.peer, k, j).collect();
        if corrupt {
            want[0] += 1.0;
        }
        got == want
    }

    fn bytes_per_step(&self) -> u64 {
        (PATCHES * EDGE * EDGE * 8) as u64
    }
}

// ---------------------------------------------------------------------
// lock_counter: the Figure 8 lock cycle
// ---------------------------------------------------------------------

pub struct LockCounter {
    lock: LockId,
    ctr: GlobalAddr,
    /// The counter value this rank last wrote; a later read below it
    /// means an increment was lost.
    last_written: u64,
    read: u64,
}

impl LockCounter {
    pub fn setup(a: &mut Armci) -> Self {
        let seg = a.malloc(8);
        let lock = a.create_lock(ProcId(0));
        LockCounter { lock, ctr: GlobalAddr::new(ProcId(0), seg, 0), last_written: 0, read: 0 }
    }
}

impl Workload for LockCounter {
    fn chunk(&self) -> u64 {
        65536
    }

    fn prep(&mut self, _a: &mut Armci, _k: u64) {}

    fn step(&mut self, a: &mut Armci, _k: u64, spans: &mut Spans) -> bool {
        if spans.time(Span::Lock, || a.try_lock(self.lock)).is_err() {
            return false;
        }
        let mut word = [0u8; 8];
        let ok = spans.time(Span::GetU64, || a.try_get(self.ctr, &mut word)).is_ok() && {
            self.read = u64::from_le_bytes(word);
            spans.time(Span::PutU64, || a.put_u64(self.ctr, self.read + 1));
            a.try_fence(self.ctr.proc).is_ok()
        };
        spans.time(Span::Unlock, || a.unlock(self.lock));
        ok
    }

    fn check(&mut self, _a: &mut Armci, _k: u64, _corrupt: bool) -> bool {
        let ok = self.read >= self.last_written;
        self.last_written = self.read + 1;
        ok
    }

    fn final_failures(&mut self, a: &mut Armci, ok_steps: u64, corrupt: bool) -> u64 {
        let counter = a.local_segment(self.ctr.seg).read_u64(self.ctr.offset);
        let want = ok_steps + u64::from(corrupt);
        counter.abs_diff(want)
    }

    fn bytes_per_step(&self) -> u64 {
        16
    }
}

// ---------------------------------------------------------------------
// halo_push: notified halo exchange over a reused TransferPlan
// ---------------------------------------------------------------------

/// The grid is N x N, split by rows between the two ranks. A rank's block
/// stays under 2 MiB: with 4 MiB blocks the peak resident set varied by
/// 4 MB from run to run.
const N: usize = 512;
const ROW_BYTES: usize = N * 8;
/// Boundary rows exchanged per step: a 32 KiB message.
const HALO_ROWS: usize = 8;
pub const HALO_BYTES: usize = HALO_ROWS * ROW_BYTES;

pub struct HaloPush {
    me: u64,
    peer: u64,
    seed: u64,
    /// This rank's N / 2 rows, then `HALO_ROWS` ghost rows, row-major.
    grid: Arc<Segment>,
    /// Two halves, one per plan parity.
    halo: Arc<Segment>,
    plans: [TransferPlan; 2],
    /// The boundary rows sent: the last ones for rank 0, the first ones
    /// for rank 1.
    send_off: usize,
    ghost_off: usize,
    packed: Vec<u8>,
    scratch: Vec<u8>,
}

impl HaloPush {
    pub fn setup(a: &mut Armci, seed: u64) -> Self {
        let grid_seg = a.malloc(N / 2 * ROW_BYTES + HALO_BYTES);
        let halo_seg = a.malloc(2 * HALO_BYTES);
        let me = a.rank() as u64;
        let peer = 1 - me;
        // Two plans alternate over a double-buffered halo: the peer posts
        // step k + 2 only after syncing k + 1, which needs this rank's
        // k + 1 post, sent after step k's halo was unpacked.
        let plans = [0u32, 1].map(|parity| {
            let mut b = TransferPlan::builder(parity);
            b.put(ProcId(peer as u32), halo_seg, parity as usize * HALO_BYTES, HALO_BYTES);
            b.build(a) // collective
        });
        HaloPush {
            me,
            peer,
            seed,
            grid: a.local_segment(grid_seg),
            halo: a.local_segment(halo_seg),
            plans,
            send_off: if me == 0 { N / 2 * ROW_BYTES - HALO_BYTES } else { 0 },
            ghost_off: N / 2 * ROW_BYTES,
            packed: vec![0; HALO_BYTES],
            scratch: vec![0; HALO_BYTES],
        }
    }
}

/// The values of a rank's boundary rows at step `k`, row-major.
fn boundary_values(seed: u64, rank: u64, k: u64) -> impl Iterator<Item = f64> {
    let base = base_value(&[seed, rank, k]);
    (0..HALO_ROWS * N).map(move |i| base + i as f64)
}

impl Workload for HaloPush {
    fn chunk(&self) -> u64 {
        2048
    }

    /// The step's compute: new values in this rank's boundary rows.
    fn prep(&mut self, a: &mut Armci, k: u64) {
        // The notify send log grows by one record per post; a long run
        // drains it.
        let _ = a.take_notify_log();
        for (dst, v) in self.scratch.chunks_exact_mut(8).zip(boundary_values(self.seed, self.me, k)) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        self.grid.write_bytes(self.send_off, &self.scratch);
    }

    fn step(&mut self, a: &mut Armci, k: u64, spans: &mut Spans) -> bool {
        let p = (k % 2) as usize;
        spans.time(Span::Pack, || self.grid.read_bytes(self.send_off, &mut self.packed));
        let plan = &mut self.plans[p];
        spans.time(Span::PlanPost, || plan.post(a, &[&self.packed]));
        if spans.time(Span::PlanSync, || plan.try_sync(a)).is_err() {
            return false;
        }
        spans.time(Span::Unpack, || {
            self.halo.read_bytes(p * HALO_BYTES, &mut self.scratch);
            self.grid.write_bytes(self.ghost_off, &self.scratch);
        });
        true
    }

    fn check(&mut self, _a: &mut Armci, k: u64, corrupt: bool) -> bool {
        self.grid.read_bytes(self.ghost_off, &mut self.scratch);
        let mut ok = true;
        for (i, (got, want)) in self.scratch.chunks_exact(8).zip(boundary_values(self.seed, self.peer, k)).enumerate() {
            let want = if corrupt && i == 0 { want + 1.0 } else { want };
            ok &= f64::from_le_bytes(got.try_into().expect("8-byte word")) == want;
        }
        ok
    }

    /// Pack read, the server's write into the peer's halo, and the unpack
    /// read plus write.
    fn bytes_per_step(&self) -> u64 {
        4 * HALO_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_are_distinct_and_seeded() {
        let a = pick_tiles(7, 0, 3, 128);
        assert_eq!(a, pick_tiles(7, 0, 3, 128));
        assert_ne!(a, pick_tiles(8, 0, 3, 128));
        for i in 0..PATCHES {
            assert!(a[i] < 128 && !a[..i].contains(&a[i]));
        }
    }

    #[test]
    fn tiles_cover_a_block() {
        let t = tiles_of(Patch::new(0, 32, 64, 128));
        assert_eq!(t.len(), 8 * 16);
        assert!(t.iter().all(|p| p.rows() == EDGE && p.cols() == EDGE));
    }

    #[test]
    fn generated_values_are_exact() {
        let v: Vec<f64> = boundary_values(1, 0, 9).collect();
        assert_eq!(v.len() * 8, HALO_BYTES);
        assert!(v.windows(2).all(|w| w[1] - w[0] == 1.0));
    }
}
