//! Measurements taken apart from a workload's steps: the sans-IO
//! protocol engines driven in-process at n = 2, a fixed host calibration
//! loop, and the process's peak resident set.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use armci_proto::{
    BarrierAction, BarrierEvent, CombinedBarrier, McsAcquire, McsAcquireAction, McsAcquireEvent, McsRelease,
    McsReleaseAction, McsReleaseEvent, NotifyAction, NotifyEngine, NotifyEvent, XchgMsg,
};

/// Engine decision cost at n = 2, in nanoseconds per `poll` call.
pub struct ProtoCost {
    pub barrier_poll_ns: f64,
    /// `poll` calls one rank makes per combined barrier.
    pub barrier_polls_per_step: f64,
    pub mcs_poll_ns: f64,
    pub notify_poll_ns: f64,
}

/// Repetitions of each engine loop; the median repetition is reported.
const REPS: usize = 5;
const ROUNDS: u64 = 20_000;

/// Median over [`REPS`] runs of [`ROUNDS`] calls of `round`, which
/// returns the polls it made; also the polls of one repetition.
fn ns_per_poll(mut round: impl FnMut() -> u64) -> (f64, u64) {
    let mut per_poll = Vec::with_capacity(REPS);
    let mut polls = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        polls = (0..ROUNDS).map(|_| round()).sum::<u64>();
        per_poll.push(t.elapsed().as_nanos() as f64 / polls as f64);
    }
    per_poll.sort_by(f64::total_cmp);
    (per_poll[REPS / 2], polls)
}

pub fn proto_cost() -> ProtoCost {
    let (barrier_poll_ns, polls) = ns_per_poll(barrier_round);
    let mut notify = [NotifyEngine::new(2), NotifyEngine::new(2)];
    let mut notify_iter = 0u64;
    ProtoCost {
        barrier_poll_ns,
        barrier_polls_per_step: polls as f64 / (2 * ROUNDS) as f64,
        mcs_poll_ns: ns_per_poll(mcs_round).0,
        notify_poll_ns: ns_per_poll(|| notify_round(&mut notify, &mut notify_iter)).0,
    }
}

/// An input queued for one of the in-memory barrier engines.
enum BarrierInput {
    Start,
    Recv(u8, XchgMsg, Vec<u64>),
    OpDone,
}

/// One combined barrier between two engines, messages routed in memory;
/// an `op_done` wait is satisfied once no message is in flight. Returns
/// the polls made.
fn barrier_round() -> u64 {
    let mut engines = [CombinedBarrier::new(0, vec![1, 1]), CombinedBarrier::new(1, vec![1, 1])];
    let mut queue: VecDeque<(usize, BarrierInput)> = (0..2).map(|me| (me, BarrierInput::Start)).collect();
    let mut awaiting: VecDeque<usize> = VecDeque::new();
    let mut out = Vec::new();
    let mut polls = 0u64;
    while let Some((me, input)) = queue.pop_front().or_else(|| awaiting.pop_front().map(|w| (w, BarrierInput::OpDone)))
    {
        match input {
            BarrierInput::Start => engines[me].poll(BarrierEvent::Start, &mut out),
            BarrierInput::Recv(stage, msg, vals) => {
                engines[me].poll(BarrierEvent::Recv { stage, msg, vals: &vals }, &mut out)
            }
            BarrierInput::OpDone => engines[me].poll(BarrierEvent::OpDoneReached, &mut out),
        }
        polls += 1;
        for a in out.drain(..) {
            match a {
                BarrierAction::Send { stage, to, msg, vals } => {
                    queue.push_back((to, BarrierInput::Recv(stage, msg, vals)))
                }
                BarrierAction::AwaitOpDone { .. } => awaiting.push_back(me),
                BarrierAction::Done => {}
            }
        }
    }
    assert!(engines.iter().all(CombinedBarrier::is_complete), "in-memory barrier did not complete");
    black_box(&engines);
    polls
}

/// Two clients contend for one MCS lock: both enqueue, the first holder
/// releases by handing off, the second releases by CAS to null.
fn mcs_round() -> u64 {
    let mut tail: Option<u32> = None;
    let mut next: [Option<u32>; 2] = [None; 2];
    let mut acq = [McsAcquire::<u32>::new(false), McsAcquire::<u32>::new(false)];
    let mut out = Vec::new();
    let mut holder = None;
    let mut polls = 0u64;
    for me in 0..2 {
        acq[me].poll(McsAcquireEvent::Start, &mut out);
        polls += 1;
        let mut i = 0;
        while i < out.len() {
            match out[i] {
                McsAcquireAction::SwapLock => {
                    let prev = tail.replace(me as u32);
                    acq[me].poll(McsAcquireEvent::SwapResult(prev), &mut out);
                    polls += 1;
                }
                McsAcquireAction::LinkAfter(prev) => next[prev as usize] = Some(me as u32),
                McsAcquireAction::ClearMyNext => next[me] = None,
                McsAcquireAction::Acquired => holder = Some(me),
                McsAcquireAction::SetMyLocked | McsAcquireAction::AwaitWake | McsAcquireAction::SetLease => {}
            }
            i += 1;
        }
        out.clear();
    }
    let mut held = 0;
    let mut racts = Vec::new();
    while let Some(me) = holder.take() {
        held += 1;
        let mut rel = McsRelease::<u32>::new(false);
        rel.poll(McsReleaseEvent::Start, &mut racts);
        polls += 1;
        let mut i = 0;
        while i < racts.len() {
            match racts[i] {
                McsReleaseAction::ReadMyNext | McsReleaseAction::AwaitSuccessor => {
                    rel.poll(McsReleaseEvent::NextValue(next[me]), &mut racts);
                    polls += 1;
                }
                McsReleaseAction::CasLockToNull => {
                    let won = tail == Some(me as u32);
                    if won {
                        tail = None;
                    }
                    rel.poll(McsReleaseEvent::CasResult { won }, &mut racts);
                    polls += 1;
                }
                McsReleaseAction::Wake(w) => {
                    acq[w as usize].poll(McsAcquireEvent::LockedCleared, &mut out);
                    polls += 1;
                    out.clear();
                    holder = Some(w as usize);
                }
                McsReleaseAction::TransferLease(_) | McsReleaseAction::ClearLease | McsReleaseAction::Released => {}
            }
            i += 1;
        }
        racts.clear();
    }
    assert_eq!(held, 2, "both clients must hold the lock once");
    black_box(&next);
    polls
}

/// One notified exchange between two long-lived engines: each issues a
/// notification to the other, arms its wait and observes the counter.
fn notify_round(engines: &mut [NotifyEngine; 2], iter: &mut u64) -> u64 {
    *iter += 1;
    let mut out = Vec::new();
    for (me, eng) in engines.iter_mut().enumerate() {
        eng.poll(NotifyEvent::Issue { dst: 1 - me, slot: 0 }, &mut out);
    }
    for (me, eng) in engines.iter_mut().enumerate() {
        eng.poll(NotifyEvent::Expect { slot: 0, target: *iter, producers: vec![1 - me] }, &mut out);
        eng.poll(NotifyEvent::Observed { slot: 0, value: *iter }, &mut out);
        // The send log grows per issue; drain it as a long run would.
        if (*iter).is_multiple_of(1024) {
            black_box(eng.take_log());
        }
    }
    assert_eq!(out.iter().filter(|a| matches!(a, NotifyAction::Complete { .. })).count(), 2);
    6
}

/// A fixed integer loop, timed as the median of five runs, so that the
/// host's own speed drift shows beside every result.
pub fn host_calib_ns() -> f64 {
    let mut t = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        black_box(x);
        t.push(start.elapsed().as_nanos() as f64);
    }
    t.sort_by(f64::total_cmp);
    t[2]
}

/// This process's peak resident set in KiB: `VmHWM` of the current
/// address space (unlike `getrusage`, it does not carry over the peak of
/// whatever program exec'ed this one).
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM in /proc/self/status");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM value in kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_rounds_complete_with_fixed_poll_counts() {
        let a = barrier_round();
        assert_eq!(a, barrier_round());
        assert!(a >= 4);
        assert_eq!(mcs_round(), mcs_round());
        let mut e = [NotifyEngine::new(2), NotifyEngine::new(2)];
        let mut it = 0;
        assert_eq!(notify_round(&mut e, &mut it), 6);
    }

    #[test]
    fn peak_rss_is_plausible() {
        let kib = peak_rss_kib();
        assert!(kib > 100 && kib < 64 << 20, "{kib} KiB");
    }
}
