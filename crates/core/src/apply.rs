//! Segment kernels: the one body for each data op's work on a
//! [`Segment`], called by [`crate::Armci`]'s direct routes and by the
//! target node's server alike, so every route has the same semantics by
//! construction. Run lists are iterators, so the server applies a
//! borrowed [`crate::msg::RunsView`] straight off the wire.

use armci_transport::Segment;

use crate::msg::RmwOp;
use crate::strided::Strided2D;

/// Scatter `data` into the `(offset, len)` runs of `seg`, in order.
pub(crate) fn write_runs(seg: &Segment, runs: impl Iterator<Item = (u64, u32)>, data: &[u8]) {
    let mut pos = 0usize;
    for (off, len) in runs {
        seg.write_bytes(off as usize, &data[pos..pos + len as usize]);
        pos += len as usize;
    }
    debug_assert_eq!(pos, data.len());
}

/// Gather the `(offset, len)` runs of `seg` into `out`, packed in order.
pub(crate) fn read_runs(seg: &Segment, runs: impl Iterator<Item = (u64, u32)> + Clone, out: &mut Vec<u8>) {
    out.resize(runs.clone().map(|(_, len)| len as usize).sum(), 0);
    let mut pos = 0usize;
    for (off, len) in runs {
        seg.read_bytes(off as usize, &mut out[pos..pos + len as usize]);
        pos += len as usize;
    }
}

/// Validate `desc` against `seg`, then write `data`'s packed rows into it.
pub(crate) fn write_strided(seg: &Segment, desc: &Strided2D, data: &[u8]) {
    desc.validate(seg.len());
    debug_assert_eq!(data.len(), desc.total_bytes());
    for (row, off) in desc.row_offsets().enumerate() {
        seg.write_bytes(off, &data[row * desc.row_bytes..(row + 1) * desc.row_bytes]);
    }
}

/// Validate `desc` against `seg`, then read its rows into `out`, packed.
pub(crate) fn read_strided(seg: &Segment, desc: &Strided2D, out: &mut Vec<u8>) {
    desc.validate(seg.len());
    out.resize(desc.total_bytes(), 0);
    for (row, off) in desc.row_offsets().enumerate() {
        seg.read_bytes(off, &mut out[row * desc.row_bytes..(row + 1) * desc.row_bytes]);
    }
}

/// `mem[i] += scale * vals[i]` on the `f64`s at `offset`: element-wise CAS
/// loops, so no update is lost, even across mappings of the same page.
pub(crate) fn acc_f64(seg: &Segment, offset: usize, scale: f64, vals: impl Iterator<Item = f64>) {
    for (i, v) in vals.enumerate() {
        seg.fetch_add_f64(offset + 8 * i, scale * v);
    }
}

/// Apply a read-modify-write to `seg`; returns the two result words
/// (second zero for single-word ops). Pair ops are atomic only under
/// process-local stripe locks, hence `Armci::pair_route`.
pub(crate) fn apply_rmw(seg: &Segment, offset: usize, op: RmwOp) -> [u64; 2] {
    match op {
        RmwOp::FetchAddU64(v) => [seg.fetch_add_u64(offset, v), 0],
        RmwOp::FetchAddI64(v) => [seg.fetch_add_i64(offset, v) as u64, 0],
        RmwOp::SwapU64(v) => [seg.swap_u64(offset, v), 0],
        RmwOp::CasU64 { expect, new } => [seg.compare_swap_u64(offset, expect, new), 0],
        RmwOp::PairSwap(p) => seg.pair_swap(offset, p),
        RmwOp::PairCas { expect, new } => seg.pair_compare_swap(offset, expect, new),
    }
}
