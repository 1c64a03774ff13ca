//! The write side of one peer link, shared by every sender on the node
//! and the node's event loop.
//!
//! A link owns one output buffer behind a lock. A sender encodes its
//! frame straight into that buffer and assigns the frame's session
//! sequence number under the same lock, so the byte order on the wire is
//! the sequence order and per-(src, dst) FIFO holds across every thread
//! of the node. What happens next depends on the frame:
//!
//! * **held** (counted one-sided data, sent with
//!   [`armci_transport::Mailbox::send_held`]): it stays in the buffer;
//! * **immediate** (everything else below [`LOOP_WRITE_MIN`]): the sender
//!   writes the buffer before `send` returns — one nonblocking `write`
//!   that also carries every held frame ahead of it;
//! * **large** (at least [`LOOP_WRITE_MIN`] bytes of body): the sender
//!   encodes it like any other and rings the loop's doorbell; the loop
//!   writes it, off the sender's thread.
//!
//! Once the loop owns a buffer (a large frame, a write the socket only
//! partly took, resumed on `POLLOUT`, or a replay), senders append and
//! leave the write to it. Held frames also leave with the sender's next
//! wait (the mailbox flushes before every receive, and the ARMCI
//! memory-word waits flush too), on the sender's `Drop`, or by the
//! loop's sweep once they are [`HOLD_MAX`] old.
//!
//! A frame that cannot be sequenced yet — the replay ring is full, or a
//! scripted `StallWriter` is in effect — waits in the link's backlog, and
//! every later frame queues behind it until the loop drains it.
//!
//! Lock order: a link's lock may be held while taking its session's
//! lock, never the other way round.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use armci_transport::{Body, Endpoint, Tag};

use crate::fabric::KillSwitch;
use crate::fault::{FaultAction, FaultSpec};
use crate::poller::WakeHandle;
use crate::session::{EnqueueError, Session, SessionCfg};
use crate::wire::{self, PREAMBLE_LEN};

/// Frames with a body at least this large are written by the loop
/// thread rather than by the sender: copying them into the socket would
/// cost the sending rank more than the hand-off does.
pub(crate) const LOOP_WRITE_MIN: usize = 16 * 1024;

/// Age at which the loop's sweep writes held frames nobody flushed.
pub(crate) const HOLD_MAX: Duration = Duration::from_millis(1);

/// A message bound for the peer that is not sequenced yet (see the
/// backlog in the module docs).
pub(crate) struct WireMsg {
    pub(crate) dst: Endpoint,
    pub(crate) src: Endpoint,
    pub(crate) tag: Tag,
    pub(crate) body: Body,
}

/// What one call on a link cost the calling thread.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cost {
    /// `write(2)` calls made.
    pub writes: u64,
    /// Whether the loop's doorbell was rung.
    pub doorbell: bool,
}

/// The buffer and bookkeeping behind [`Link`]'s lock.
pub(crate) struct Out {
    /// Write handle on the current stream; `None` while disconnected.
    stream: Option<TcpStream>,
    /// Encoded transmissions (preamble + frame) not yet written; the
    /// first `pos` bytes are already on the wire.
    buf: Vec<u8>,
    pos: usize,
    /// The loop writes `buf` for now: a large frame, a partial write or
    /// a replay is pending.
    pub loop_owned: bool,
    /// When the oldest held frame in `buf` was staged.
    held_since: Option<Instant>,
    /// A write failed or a scripted fault cut the stream; the loop turns
    /// this into a session transition.
    pub broken: bool,
    /// Every sender on the node is gone (teardown): write out, then
    /// half-close.
    pub closed: bool,
    /// Messages waiting to be sequenced, in send order.
    backlog: VecDeque<WireMsg>,
    /// A scripted `StallWriter` holds the backlog until this instant.
    stalled_until: Option<Instant>,
    /// When the replay ring was first found full with no ack progress.
    pub ring_full_since: Option<Instant>,
    /// Whether a data frame was staged since the last health tick (data
    /// preambles carry acks, so no bare ack is needed).
    pub wrote_data: bool,
    /// Frames sequenced on this connection (fault trigger points).
    sent: u64,
    /// Scripted faults against this connection, each consumed once.
    faults: Vec<Option<FaultSpec>>,
}

/// How [`Out::write_out`] left the buffer.
enum Wrote {
    /// Everything is on the wire.
    All,
    /// The socket took only part of it.
    Partial,
    /// The write failed; the stream is dropped and `broken` set.
    Failed,
}

/// What [`Link::stage`] did with one message.
enum Staged {
    /// Sequenced; appended to `buf` when a stream is attached.
    Done,
    /// Not sequenced yet: it (and everything after it) waits in the
    /// backlog.
    Later,
    /// The session is over; the message is dropped.
    Dropped,
}

impl Out {
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Discard the stream and anything staged for it (ringed frames are
    /// replayed on reconnect; without recovery the peer is lost anyway).
    pub fn drop_stream(&mut self) {
        self.stream = None;
        self.buf.clear();
        self.pos = 0;
        self.loop_owned = false;
        self.held_since = None;
    }

    /// Nothing accepted is left to write, sequence or half-close for.
    pub fn drained(&self) -> bool {
        self.backlog.is_empty() && self.pending() == 0
    }

    /// Whether the scripted stall is still in effect at `now`.
    fn stalled(&self, now: Instant) -> bool {
        self.stalled_until.is_some_and(|t| now < t)
    }

    /// When the loop must look at this link again on its own: a stall
    /// expiring or held frames coming of age (unless the loop already
    /// owns the write and waits for `POLLOUT`).
    pub fn next_deadline(&self) -> Option<Instant> {
        let held = self.held_since.filter(|_| !self.loop_owned).map(|t| t + HOLD_MAX);
        match (held, self.stalled_until) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn take_due_fault(&mut self) -> Option<FaultSpec> {
        let sent = self.sent;
        self.faults.iter_mut().find(|f| f.as_ref().is_some_and(|f| f.after_frames <= sent)).and_then(Option::take)
    }

    /// Append a bare ack/heartbeat for the loop to write.
    pub fn stage_ack(&mut self, ack: u64) -> bool {
        if self.stream.is_none() || wire::write_preamble(&mut self.buf, wire::Preamble::Ack { ack }).is_err() {
            return false;
        }
        self.loop_owned = true;
        true
    }

    /// Write as much of `buf` as the socket takes now. Returns the
    /// number of `write(2)` calls and how far it got.
    fn write_out(&mut self) -> (u64, Wrote) {
        let mut writes = 0;
        let outcome = loop {
            if self.pos == self.buf.len() {
                break Wrote::All;
            }
            let Some(mut s) = self.stream.as_ref() else { break Wrote::Failed };
            writes += 1;
            match s.write(&self.buf[self.pos..]) {
                Ok(0) => break Wrote::Failed,
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Wrote::Partial,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break Wrote::Failed,
            }
        };
        match outcome {
            Wrote::All => {
                self.buf.clear();
                self.pos = 0;
                self.loop_owned = false;
                self.held_since = None;
            }
            Wrote::Partial => self.loop_owned = true,
            Wrote::Failed => {
                self.drop_stream();
                self.broken = true;
            }
        }
        (writes, outcome)
    }
}

/// One peer link's shared write side (see the module docs).
pub(crate) struct Link {
    /// Peer node index.
    pub peer: usize,
    pub sess: Arc<Session>,
    cfg: SessionCfg,
    kill: Arc<KillSwitch>,
    waker: Arc<WakeHandle>,
    out: Mutex<Out>,
}

impl Link {
    pub fn new(
        peer: usize,
        sess: Arc<Session>,
        cfg: SessionCfg,
        kill: Arc<KillSwitch>,
        waker: Arc<WakeHandle>,
        faults: Vec<FaultSpec>,
    ) -> Link {
        let out = Out {
            stream: None,
            buf: Vec::new(),
            pos: 0,
            loop_owned: false,
            held_since: None,
            broken: false,
            closed: false,
            backlog: VecDeque::new(),
            stalled_until: None,
            ring_full_since: None,
            wrote_data: false,
            sent: 0,
            faults: faults.into_iter().map(Some).collect(),
        };
        Link { peer, sess, cfg, kill, waker, out: Mutex::new(out) }
    }

    /// Lock the write side. Poisoning is ignored: the event loop must
    /// outlive a panicking sender, and every update under the lock keeps
    /// `buf` a sequence of whole transmissions (a frame is appended,
    /// then either sequenced or truncated away, with nothing in between
    /// that can panic).
    pub fn lock(&self) -> MutexGuard<'_, Out> {
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring the loop's doorbell.
    fn ring(&self) -> Cost {
        self.waker.wake();
        Cost { writes: 0, doorbell: true }
    }

    /// Send one message from a local endpoint (see the module docs for
    /// the held / immediate / large rule).
    pub fn send(&self, m: WireMsg, held: bool) -> Cost {
        let now = Instant::now();
        let mut o = self.lock();
        if !o.backlog.is_empty() {
            o.backlog.push_back(m);
            return Cost::default();
        }
        match self.stage(&mut o, &m, now) {
            Staged::Done => {}
            Staged::Later => {
                o.backlog.push_back(m);
                return self.ring();
            }
            Staged::Dropped => return Cost::default(),
        }
        if o.pending() == 0 || o.loop_owned {
            // Ringed only (mid-reconnect), or the loop is already on its
            // way to write the buffer.
            return Cost::default();
        }
        if m.body.len() >= LOOP_WRITE_MIN {
            o.loop_owned = true;
            return self.ring();
        }
        if held {
            o.held_since.get_or_insert(now);
            return Cost::default();
        }
        self.write_now(&mut o)
    }

    /// Write whatever the buffer holds unless the loop owns it: the
    /// sender-side flush of held frames.
    pub fn flush(&self) -> Cost {
        let mut o = self.lock();
        if o.pending() == 0 || o.loop_owned {
            return Cost::default();
        }
        self.write_now(&mut o)
    }

    /// One sender-side write; a partial or failed write is handed to the
    /// loop.
    fn write_now(&self, o: &mut Out) -> Cost {
        let (writes, wrote) = o.write_out();
        let rung = if matches!(wrote, Wrote::All) { Cost::default() } else { self.ring() };
        Cost { writes, ..rung }
    }

    /// Sequence one message and encode it into the buffer: enact any
    /// scripted fault due first, assign the session sequence number and
    /// (recovery) ring a copy of the frame for replay.
    fn stage(&self, o: &mut Out, m: &WireMsg, now: Instant) -> Staged {
        // Scripted faults fire just before the frame that would take the
        // per-connection count past `after_frames`.
        while let Some(f) = o.take_due_fault() {
            match self.enact_fault(f, o, m, now) {
                Staged::Done => {}
                other => return other,
            }
        }
        if self.sess.is_terminal() {
            return Staged::Dropped;
        }
        let start = o.buf.len();
        o.buf.resize(start + PREAMBLE_LEN, 0);
        // Encoding into a Vec cannot fail.
        let _ = wire::write_frame(&mut o.buf, m.dst, m.src, m.tag, &m.body);
        match self.sess.try_enqueue(&self.cfg, &o.buf[start + PREAMBLE_LEN..]) {
            Ok(seq) => {
                o.sent += 1;
                o.ring_full_since = None;
                if o.stream.is_none() {
                    // Streamless (mid-reconnect): ringed only; the replay
                    // on the next adopt covers it.
                    o.buf.truncate(start);
                } else {
                    let ack = self.sess.recv_cursor.load(Ordering::Acquire);
                    let _ = wire::write_preamble(&mut &mut o.buf[start..], wire::Preamble::Data { seq, ack });
                    o.wrote_data = true;
                }
                Staged::Done
            }
            Err(EnqueueError::Full) => {
                // Retried once the peer's next ack prunes the ring; the
                // health tick gives up after a suspect window without
                // progress.
                o.buf.truncate(start);
                o.ring_full_since.get_or_insert(now);
                Staged::Later
            }
            Err(EnqueueError::Terminal) => {
                o.buf.truncate(start);
                Staged::Dropped
            }
        }
    }

    /// Enact one scripted fault (see [`crate::fault`]) just before `m`.
    /// `Done` means carry on sequencing `m`.
    fn enact_fault(&self, f: FaultSpec, o: &mut Out, m: &WireMsg, now: Instant) -> Staged {
        match f.action {
            FaultAction::StallWriter { millis } => {
                // Nobody sleeps: the trigger message and everything after
                // it wait in the backlog until the loop sees the stall
                // expire. Frames staged before it still go out.
                o.stalled_until = Some(now + Duration::from_millis(millis));
                Staged::Later
            }
            FaultAction::ResetConn => {
                // Abrupt: staged frames are lost, no half-close courtesy.
                if let Some(s) = &o.stream {
                    let _ = s.shutdown(Shutdown::Both);
                }
                self.sever(o)
            }
            FaultAction::TruncateFrame => {
                // Write what is staged, then a preamble and half a header:
                // the peer observes EOF mid-frame, the crashed-writer
                // signature. Best effort — the socket dies right after.
                if let Some(mut s) = o.stream.as_ref() {
                    let _ = s.write_all(&o.buf[o.pos..]);
                    let mut frame = Vec::new();
                    let _ = wire::write_preamble(&mut frame, wire::Preamble::Data { seq: 0, ack: 0 });
                    let _ = wire::write_frame(&mut frame, m.dst, m.src, m.tag, &m.body);
                    let cut = (wire::PREAMBLE_LEN + wire::HEADER_LEN / 2).min(frame.len());
                    let _ = s.write_all(&frame[..cut]);
                    let _ = s.shutdown(Shutdown::Both);
                }
                self.sever(o)
            }
            FaultAction::KillNode => {
                self.kill.fire();
                Staged::Dropped
            }
            // Boot-path only; filtered out of wire fault lists.
            FaultAction::DialFail { .. } => Staged::Done,
        }
    }

    /// The stream was cut on purpose: with recovery the trigger frame is
    /// still sequenced (ringed, streamless) and the loop drives the
    /// reconnect; without, the peer is dead.
    fn sever(&self, o: &mut Out) -> Staged {
        o.drop_stream();
        if self.cfg.recovery {
            o.broken = true;
            self.ring();
            Staged::Done
        } else {
            self.sess.mark_dead();
            Staged::Dropped
        }
    }

    /// The loop's per-iteration pass over this link: end an expired
    /// stall, sequence the backlog, and write the buffer when it just
    /// sequenced some of it, when the loop owns it, when its held frames
    /// are [`HOLD_MAX`] old, or at teardown. Returns the `write(2)` calls
    /// made.
    pub fn pump(&self, o: &mut Out, now: Instant) -> u64 {
        if o.stalled_until.is_some_and(|t| now >= t) {
            o.stalled_until = None;
        }
        if self.sess.is_terminal() {
            // Whatever is still queued is dropped, not half-sent.
            o.backlog.clear();
        }
        let mut sequenced = false;
        while !o.stalled(now) {
            let Some(m) = o.backlog.pop_front() else { break };
            match self.stage(o, &m, now) {
                Staged::Done => sequenced = true,
                Staged::Later => {
                    o.backlog.push_front(m);
                    break;
                }
                Staged::Dropped => {}
            }
        }
        let aged = o.held_since.is_some_and(|t| now >= t + HOLD_MAX);
        if o.pending() > 0 && (sequenced || o.loop_owned || aged || o.closed) {
            o.write_out().0
        } else {
            0
        }
    }

    /// Attach a freshly installed stream (already nonblocking): discard
    /// output staged for the old one and stage the replay of every
    /// unacked frame for the loop to write.
    pub fn attach(&self, o: &mut Out, stream: TcpStream) {
        o.drop_stream();
        // Errors seen on the old stream are superseded.
        o.broken = false;
        self.sess.replay_into(&mut o.buf);
        o.loop_owned = o.pending() > 0;
        o.stream = Some(stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NodeFabric;
    use armci_transport::{Mailbox, NodeId, ProcId, Topology, WireCounters};

    fn shutdown_all(fabrics: impl IntoIterator<Item = NodeFabric>) {
        let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A seeded xorshift stream for message kinds and sizes.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// How a test message leaves its sender.
    #[derive(Clone, Copy)]
    enum Kind {
        Held,
        Immediate,
        Large,
    }

    /// Send `n` seeded messages to `dst`: a mix of held, immediate and
    /// large frames whose bodies carry the sender's sequence number.
    fn send_mix(mb: &mut Mailbox, dst: Endpoint, seed: u64, n: u32) {
        let mut rng = Rng(seed | 1);
        for i in 0..n {
            let r = rng.next();
            let kind = [Kind::Held, Kind::Held, Kind::Immediate, Kind::Large][(r % 4) as usize];
            let len = match kind {
                Kind::Large => LOOP_WRITE_MIN + (r >> 8) as usize % LOOP_WRITE_MIN,
                _ => 4 + (r >> 8) as usize % 600,
            };
            let mut body = vec![(i % 251) as u8; len];
            body[..4].copy_from_slice(&i.to_le_bytes());
            match kind {
                Kind::Held => mb.send_held(dst, Tag(1), body),
                Kind::Immediate | Kind::Large => mb.send(dst, Tag(1), body),
            }
        }
    }

    #[test]
    fn interleaved_held_immediate_and_large_frames_keep_per_pair_order() {
        // Two endpoints of node 0 (a rank and the server) share the one
        // link to node 1 and interleave all three kinds of frame to rank
        // 1. Each (src, dst) stream must arrive in order, exactly once.
        const N: u32 = 400;
        for seed in [1u64, 0x9e37_79b9, 0xdead_beef] {
            let mut fabrics = NodeFabric::loopback(&Topology::new(2, 1), false).unwrap();
            let mut f1 = fabrics.pop().unwrap();
            let mut f0 = fabrics.pop().unwrap();
            let dst = Endpoint::Proc(ProcId(1));
            let senders: Vec<_> = [f0.take_proc(ProcId(0)), f0.take_server()]
                .into_iter()
                .enumerate()
                .map(|(k, mut mb)| std::thread::spawn(move || send_mix(&mut mb, dst, seed + k as u64, N)))
                .collect();
            let mut rx = f1.take_proc(ProcId(1));
            let mut next = [0u32; 2];
            for _ in 0..2 * N {
                let m = rx.recv_timeout(Duration::from_secs(10)).unwrap().expect("a message was lost");
                let k = usize::from(m.src != Endpoint::Proc(ProcId(0)));
                let i = u32::from_le_bytes(m.body[..4].try_into().unwrap());
                assert_eq!(i, next[k], "seed {seed:#x}: stream from {:?} out of order or duplicated", m.src);
                assert!(m.body[4..].iter().all(|&b| b == (i % 251) as u8), "seed {seed:#x}: body corrupted");
                next[k] += 1;
            }
            for h in senders {
                h.join().unwrap();
            }
            assert!(rx.recv_timeout(Duration::from_millis(50)).unwrap().is_none(), "a message arrived twice");
            drop(rx);
            shutdown_all([f0, f1]);
        }
    }

    #[test]
    fn frames_of_a_sender_that_goes_quiet_are_still_delivered() {
        let mut fabrics = NodeFabric::loopback(&Topology::new(2, 1), false).unwrap();
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let dst = Endpoint::Proc(ProcId(1));
        let recv =
            |b: &mut Mailbox| b.recv_timeout(Duration::from_secs(5)).unwrap().expect("frame never delivered").body;
        // An immediate frame is on the wire before `send` returns.
        a.send(dst, Tag(1), vec![1]);
        assert_eq!(recv(&mut b), vec![1]);
        // Held frames from a sender that never touches its mailbox again
        // go out with the loop's sweep.
        a.send_held(dst, Tag(1), vec![2]);
        a.send_held(dst, Tag(1), vec![3]);
        assert_eq!(recv(&mut b), vec![2]);
        assert_eq!(recv(&mut b), vec![3]);
        // ...and with the sender's `Drop`.
        a.send_held(dst, Tag(1), vec![4]);
        drop(a);
        assert_eq!(recv(&mut b), vec![4]);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn four_held_puts_and_one_immediate_frame_cost_one_write_and_no_doorbell() {
        let mut fabrics = NodeFabric::loopback(&Topology::new(2, 1), false).unwrap();
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let server = Endpoint::Server(NodeId(1));
        let mut pinned = false;
        // The loop sweeps held frames once they are `HOLD_MAX` old, so the
        // count is exact only when the five sends finish within that
        // age; a round whose sender was descheduled longer is re-run.
        for _ in 0..50 {
            let before = f0.wire_totals();
            let t0 = Instant::now();
            for k in 0..4u8 {
                a.send_held(server, Tag(1), vec![k; 40]);
            }
            a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![9]);
            let elapsed = t0.elapsed();
            let after = f0.wire_totals();
            assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().expect("immediate frame").body, vec![9]);
            if elapsed >= HOLD_MAX {
                continue;
            }
            let delta = WireCounters {
                msgs: after.msgs - before.msgs,
                bytes: after.bytes - before.bytes,
                writes: after.writes - before.writes,
                doorbells: after.doorbells - before.doorbells,
            };
            assert_eq!(delta, WireCounters { msgs: 5, bytes: 161, writes: 1, doorbells: 0 });
            pinned = true;
            break;
        }
        assert!(pinned, "never managed five sends within {HOLD_MAX:?}");
        let mut server_mb = f1.take_server();
        for k in 0..4u8 {
            assert_eq!(server_mb.recv().unwrap().body, vec![k; 40], "held frames arrive ahead, in order");
        }
        drop((a, b, server_mb));
        shutdown_all([f0, f1]);
    }
}
