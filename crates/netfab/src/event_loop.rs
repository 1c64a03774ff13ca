//! The node's IO thread: one nonblocking loop owning the read side of
//! every peer socket and the slow half of the write side.
//!
//! Senders write their own small frames (see [`crate::link`]); the loop
//! multiplexes all peer links over [`crate::poller::PollSet`] (`poll(2)`)
//! and keeps the rest of the work:
//!
//! * reads: readiness-driven, through the shared
//!   [`crate::frames::FrameDecoder`], delivered into the per-endpoint
//!   inboxes via [`crate::frames::deliver`] after
//!   [`crate::frames::session_step`] bookkeeping;
//! * writes nobody else finishes: frames of at least
//!   [`crate::link::LOOP_WRITE_MIN`] bytes, writes the socket only partly
//!   took (resumed on `POLLOUT`), replays after a reconnect, the backlog
//!   of frames that could not be sequenced yet, and a sweep of held
//!   frames older than [`crate::link::HOLD_MAX`];
//! * everything time-driven — heartbeat cadence, staleness and ring-full
//!   watchdogs, reconnect retry pacing — on one
//!   [`crate::timer::TimerWheel`];
//! * reconnect handshakes: the dial side is a [`DialAttempt`]
//!   (nonblocking `connect(2)` + hello + reply) and the accept side an
//!   [`AcceptAttempt`], both registered on the same poll set and stepped
//!   every iteration — no helper threads, the loop never blocks outside
//!   `poll`, and each node's IO is exactly one thread.

#![deny(clippy::unwrap_used, clippy::expect_used)] // IO loop: every failure must become a session transition

use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use armci_transport::{BodyPool, Msg, Topology};
use crossbeam_channel::Sender;

use crate::dial::{AcceptAttempt, AcceptStep, DialAttempt, DialStep};
use crate::frames::{self, FrameDecoder, Progress, SessionStep};
use crate::link::Link;
use crate::poller::{Interest, PollSet, WakePipe};
use crate::session::{Session, SessionCfg, SESS_SUSPECT, SESS_UP};
use crate::timer::TimerWheel;

/// Reconnect retry cadence while a session is suspect.
const RECONNECT_TICK: Duration = Duration::from_millis(20);

/// Poll-timeout ceiling: an idle loop still looks around this often, so
/// held frames nobody flushes reach the wire within one period (senders
/// do not ring the doorbell for them).
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long a pending accept-side handshake may take before it is
/// abandoned.
const ACCEPT_HANDSHAKE: Duration = Duration::from_secs(2);

const TOK_WAKE: usize = 0;
const TOK_LISTENER: usize = 1;
const TOK_BASE: usize = 2;
/// Handshake-machine fds: registered only to wake `poll`; the machines
/// themselves are stepped unconditionally every iteration, so readiness
/// dispatch has nothing to do for this token.
const TOK_MACHINE: usize = usize::MAX;

/// Everything [`run`] needs for one peer link.
pub(crate) struct PeerSeed {
    pub link: Arc<Link>,
    /// Read handle on the boot stream (the link already writes through
    /// its own clone), and the stream generation it belongs to.
    pub read: Option<TcpStream>,
    pub gen: u64,
    /// The peer's boot-listener address, dialed on reconnect.
    pub addr: String,
}

/// Everything [`run`] needs for one node's loop.
pub(crate) struct LoopCfg {
    pub node: u32,
    pub topo: Topology,
    pub local_txs: Vec<Option<Sender<Msg>>>,
    pub session: SessionCfg,
    pub node_dead: Arc<AtomicBool>,
    /// The fabric's shutdown flag (stops accepting reconnects).
    pub shutdown: Arc<AtomicBool>,
    /// Retained boot listener, present only with recovery enabled.
    pub listener: Option<TcpListener>,
    pub peers: Vec<PeerSeed>,
    /// `write(2)` calls the loop makes, for [`crate::NodeFabric::wire_totals`].
    pub writes: Arc<AtomicU64>,
}

/// A timer-wheel entry, keyed by link index.
enum Timer {
    /// Heartbeat-cadence health tick: idle bare ack, staleness check,
    /// ring-full watchdog (recovery mode only).
    Health(usize),
    /// Suspect-session reconnect round.
    Reconnect(usize),
}

/// One peer link's loop-local state: the read side and reconnect driving.
struct PeerLink {
    link: Arc<Link>,
    addr: String,
    /// The attached stream's read handle; `None` while disconnected or
    /// after teardown.
    read: Option<BufReader<TcpStream>>,
    /// Cached stream generation, compared against the session's.
    gen: u64,
    dec: FrameDecoder,
    pool: BodyPool,
    /// An in-flight reconnect dial handshake, stepped by the loop.
    dial: Option<DialAttempt>,
    /// A `Reconnect` timer is armed for this link.
    reconnect_armed: bool,
    /// The clean-teardown half-close has been performed.
    write_shut: bool,
}

impl PeerLink {
    fn new(seed: PeerSeed) -> PeerLink {
        PeerLink {
            link: seed.link,
            addr: seed.addr,
            read: seed.read.map(|s| BufReader::with_capacity(64 * 1024, s)),
            gen: seed.gen,
            dec: FrameDecoder::new(),
            pool: BodyPool::new(8),
            dial: None,
            reconnect_armed: false,
            write_shut: false,
        }
    }

    fn sess(&self) -> &Session {
        &self.link.sess
    }

    /// Drop the attached stream, both halves, and anything staged for it.
    fn drop_stream(&mut self) {
        self.read = None;
        self.dec.reset();
        self.link.lock().drop_stream();
    }

    /// The write half has nothing more to do: every sender is gone and
    /// everything accepted was written (or the session died).
    fn writer_done(&self) -> bool {
        self.sess().is_terminal() || {
            let o = self.link.lock();
            o.closed && o.drained()
        }
    }

    /// The read half has nothing more to do.
    fn reader_done(&self) -> bool {
        self.sess().is_terminal() || (self.read.is_none() && self.sess().teardown_begun())
    }
}

/// Loop-wide context (only `local_txs` is ever mutated: the senders are
/// dropped once every link's reader is done).
struct Ctx {
    node: u32,
    topo: Topology,
    local_txs: Vec<Option<Sender<Msg>>>,
    session: SessionCfg,
    shutdown: Arc<AtomicBool>,
}

/// Make a fresh stream nonblocking and split it into the loop's read
/// handle and the link's write handle.
pub(crate) fn split(s: TcpStream) -> std::io::Result<(TcpStream, TcpStream)> {
    s.set_nonblocking(true)?;
    let w = s.try_clone()?;
    Ok((s, w))
}

/// Adopt a freshly installed stream: fresh decoder, and (recovery) the
/// unacked ring staged for replay.
fn adopt(pl: &mut PeerLink) {
    let Some(s) = pl.link.sess.fresh_stream(&mut pl.gen) else {
        return;
    };
    match split(s) {
        Ok((r, w)) => {
            pl.dec.reset();
            pl.read = Some(BufReader::with_capacity(64 * 1024, r));
            pl.link.attach(&mut pl.link.lock(), w);
        }
        Err(_) => {
            pl.sess().mark_dead();
            pl.drop_stream();
        }
    }
}

/// The link's stream failed (or desynced): sever it and transition the
/// session — suspect + reconnect driving with recovery, dead without.
fn on_stream_error(pl: &mut PeerLink, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize) {
    pl.drop_stream();
    if !ctx.session.recovery {
        pl.sess().mark_dead();
        return;
    }
    if pl.sess().mark_suspect(pl.gen) {
        arm_reconnect(pl, wheel, idx);
    }
}

fn arm_reconnect(pl: &mut PeerLink, wheel: &mut TimerWheel<Timer>, idx: usize) {
    if !pl.reconnect_armed && !pl.sess().teardown_begun() && !pl.sess().is_terminal() {
        pl.reconnect_armed = true;
        // First round fires immediately; retries pace at RECONNECT_TICK.
        wheel.insert(Instant::now(), Timer::Reconnect(idx));
    }
}

/// Decode and deliver everything the socket has for us right now.
fn pump_reads(pl: &mut PeerLink, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize) {
    let recovery = ctx.session.recovery;
    loop {
        let Some(r) = &mut pl.read else { return };
        match pl.dec.poll_step(r, &ctx.topo, &mut pl.pool) {
            Ok(Progress::NeedMore) => return,
            Ok(Progress::Item(p, f)) => match frames::session_step(&pl.link.sess, recovery, p) {
                SessionStep::Deliver => {
                    if let Some(f) = f {
                        frames::deliver(&ctx.topo, &ctx.local_txs, f);
                    }
                }
                SessionStep::Skip => {}
                SessionStep::Desync => {
                    on_stream_error(pl, ctx, wheel, idx);
                    return;
                }
            },
            Ok(Progress::CleanEof) => {
                if recovery {
                    // Suspect and (unless we are tearing down too) drive a
                    // reconnect; replayed sequence numbers deduplicate.
                    on_stream_error(pl, ctx, wheel, idx);
                } else {
                    // Collective teardown (or a peer death at an exact
                    // boundary, which is indistinguishable).
                    pl.sess().mark_closed();
                    pl.drop_stream();
                }
                return;
            }
            Err(_) => {
                on_stream_error(pl, ctx, wheel, idx);
                return;
            }
        }
    }
}

/// Heartbeat-cadence health tick (recovery mode): idle bare ack,
/// peer-staleness check, ring-full watchdog. Re-arms itself until the
/// session is terminal.
fn health_tick(pl: &mut PeerLink, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize, now: Instant) {
    if pl.sess().is_terminal() {
        return;
    }
    let ring_stuck = pl.link.lock().ring_full_since.is_some_and(|t| now.duration_since(t) >= ctx.session.suspect_after);
    if ring_stuck {
        // A full replay ring with no ack progress for a whole suspect
        // window: the peer is not consuming. Give up on it.
        pl.sess().mark_dead();
        pl.drop_stream();
        return;
    }
    let state = pl.sess().state();
    if state == SESS_UP {
        if pl.sess().silent_for() > ctx.session.suspect_after {
            // TCP says up but the peer has been silent past the budget
            // (it would have heartbeat if alive): declare it.
            pl.sess().mark_dead();
            pl.drop_stream();
            return;
        }
        let mut o = pl.link.lock();
        if !o.wrote_data && !pl.write_shut {
            // Idle link: a bare ack both proves our liveness and advances
            // the peer's replay-ring pruning. Written by the next pump,
            // right after timer dispatch.
            let ack = pl.link.sess.recv_cursor.load(Ordering::Acquire);
            if o.stage_ack(ack) {
                pl.link.sess.hb_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        o.wrote_data = false;
    } else {
        pl.link.lock().wrote_data = false;
        if state == SESS_SUSPECT {
            // Belt and braces: suspicion raised outside the loop still
            // gets reconnect driving.
            arm_reconnect(pl, wheel, idx);
        }
    }
    wheel.insert(now + ctx.session.heartbeat_interval, Timer::Health(idx));
}

/// One reconnect round for a suspect session: enforce the suspect
/// deadline, and (as the higher-numbered node) start a nonblocking dial
/// of the peer's retained boot listener — the loop steps it from here on.
/// Re-arms itself while the session stays suspect.
fn reconnect_tick(pl: &mut PeerLink, ctx: &Ctx, wheel: &mut TimerWheel<Timer>, idx: usize, now: Instant) {
    pl.reconnect_armed = false;
    let sess = &pl.link.sess;
    if sess.is_terminal() || sess.teardown_begun() || sess.state() != SESS_SUSPECT {
        return;
    }
    let Some(deadline) = sess.suspect_deadline(&ctx.session) else {
        // Raced a concurrent install; the loop top adopts it.
        return;
    };
    if now >= deadline {
        sess.mark_dead();
        return;
    }
    let dialer = ctx.node as usize > pl.link.peer && !pl.addr.is_empty();
    if dialer && pl.dial.is_none() {
        let cursor = sess.recv_cursor.load(Ordering::Acquire);
        // Start failures (socket exhaustion, refused-at-once) just leave
        // `dial` empty; the next tick retries.
        pl.dial = DialAttempt::start(&pl.addr, ctx.node, cursor, deadline).ok();
    }
    pl.reconnect_armed = true;
    wheel.insert(now + RECONNECT_TICK, Timer::Reconnect(idx));
}

/// Step a link's in-flight reconnect dial as far as its socket allows.
fn step_dial(pl: &mut PeerLink, now: Instant) {
    let Some(dial) = &mut pl.dial else { return };
    let sess = &pl.link.sess;
    if sess.is_terminal() || sess.teardown_begun() || sess.state() != SESS_SUSPECT {
        // The session resolved some other way (accept-side install won
        // the race, or it died); the attempt is stale.
        pl.dial = None;
        return;
    }
    match dial.step(now) {
        DialStep::Pending => {}
        DialStep::Done(s, peer_cursor) => {
            sess.install_stream(s, peer_cursor);
            pl.dial = None;
        }
        DialStep::Rejected => {
            // Explicit rejection: the peer knows the session is dead.
            // Terminal, no more retries.
            sess.mark_dead();
            pl.dial = None;
        }
        DialStep::Failed => pl.dial = None,
    }
}

/// Adopt every pending reconnect dial as an [`AcceptAttempt`] handshaken
/// on the loop itself.
fn accept_reconnects(listener: &TcpListener, accepts: &mut Vec<AcceptAttempt>, ctx: &Ctx) {
    while let Ok((s, _)) = listener.accept() {
        if ctx.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Ok(acc) = AcceptAttempt::start(s, Instant::now() + ACCEPT_HANDSHAKE) {
            accepts.push(acc);
        }
    }
}

/// Step every accept-side handshake; completed/failed attempts drop out.
fn step_accepts(
    accepts: &mut Vec<AcceptAttempt>,
    sessions: &[Option<Arc<Session>>],
    node_dead: &AtomicBool,
    now: Instant,
) {
    accepts.retain_mut(|acc| loop {
        match acc.step(now) {
            AcceptStep::Pending => return true,
            AcceptStep::Hello { peer } => {
                let Some(sess) = sessions.get(peer as usize).and_then(|o| o.as_ref()) else {
                    return false; // unknown peer: drop the socket
                };
                if node_dead.load(Ordering::Acquire) || sess.is_terminal() {
                    acc.reject();
                } else {
                    acc.accept(sess.recv_cursor.load(Ordering::Acquire));
                }
                // Loop: the reply usually flushes in this same step.
            }
            AcceptStep::Done { stream, peer, peer_cursor } => {
                if let Some(sess) = sessions.get(peer as usize).and_then(|o| o.as_ref()) {
                    sess.install_stream(stream, peer_cursor);
                }
                return false;
            }
            AcceptStep::Failed => return false,
        }
    });
}

/// The node's IO loop. Returns once every peer link is finished (and,
/// when a reconnect listener is held, the fabric has signalled shutdown —
/// a dead node must keep *rejecting* reconnect dials until then).
pub(crate) fn run(cfg: LoopCfg, mut wake: WakePipe) {
    let LoopCfg { node, topo, local_txs, session, node_dead, shutdown, listener, peers, writes } = cfg;
    let mut ctx = Ctx { node, topo, local_txs, session, shutdown };
    let mut links: Vec<PeerLink> = peers.into_iter().map(PeerLink::new).collect();
    let mut sessions_by_node: Vec<Option<Arc<Session>>> = Vec::new();
    for l in &links {
        if sessions_by_node.len() <= l.link.peer {
            sessions_by_node.resize(l.link.peer + 1, None);
        }
        sessions_by_node[l.link.peer] = Some(l.link.sess.clone());
    }
    let listener = listener.filter(|l| l.set_nonblocking(true).is_ok());
    let mut accepts: Vec<AcceptAttempt> = Vec::new();

    let mut wheel: TimerWheel<Timer> = TimerWheel::new(Instant::now());
    if ctx.session.recovery {
        let now = Instant::now();
        for i in 0..links.len() {
            wheel.insert(now + ctx.session.heartbeat_interval, Timer::Health(i));
        }
    }

    let mut set = PollSet::new();
    let mut inboxes_open = true;
    loop {
        let now = Instant::now();
        let mut link_due: Option<Instant> = None;
        set.clear();
        set.register(wake.fd(), TOK_WAKE, Interest::READ);
        for (i, pl) in links.iter_mut().enumerate() {
            adopt(pl);
            let broken = {
                let mut o = pl.link.lock();
                writes.fetch_add(pl.link.pump(&mut o, now), Ordering::Relaxed);
                std::mem::take(&mut o.broken)
            };
            if broken {
                on_stream_error(pl, &ctx, &mut wheel, i);
            }
            if !pl.write_shut && pl.writer_done() {
                // Clean-teardown half-close: the peer's reader sees EOF at
                // a transmission boundary. Terminal sessions already shut
                // their stream.
                if pl.sess().state() == SESS_UP {
                    if let Some(r) = &pl.read {
                        let _ = r.get_ref().shutdown(Shutdown::Write);
                    }
                }
                pl.sess().begin_teardown();
                pl.write_shut = true;
            }
            let o = pl.link.lock();
            if let Some(r) = &pl.read {
                let want_write = o.loop_owned && o.pending() > 0;
                let interest = if want_write { Interest::READ_WRITE } else { Interest::READ };
                set.register(r.get_ref().as_raw_fd(), TOK_BASE + i, interest);
            }
            if let Some(t) = o.next_deadline() {
                link_due = Some(link_due.map_or(t, |d| d.min(t)));
            }
            drop(o);
            // Handshake machines only need poll woken on their readiness;
            // they are stepped unconditionally after dispatch.
            if let Some(fd) = pl.dial.as_ref().and_then(DialAttempt::fd) {
                set.register(fd, TOK_MACHINE, pl.dial.as_ref().map_or(Interest::READ, DialAttempt::interest));
            }
        }
        if inboxes_open && links.iter().all(PeerLink::reader_done) {
            // Every reader is done: drop our inbox senders so endpoints
            // blocked in recv get their RecvError as soon as the fabric
            // side lets go too.
            for tx in ctx.local_txs.iter_mut() {
                *tx = None;
            }
            inboxes_open = false;
        }
        let all_done = links.iter().all(|l| l.writer_done() && l.reader_done());
        if all_done && (listener.is_none() || ctx.shutdown.load(Ordering::Acquire)) {
            return;
        }

        if let Some(l) = &listener {
            if !ctx.shutdown.load(Ordering::Acquire) {
                set.register(l.as_raw_fd(), TOK_LISTENER, Interest::READ);
            }
        }
        for acc in &accepts {
            if let Some(fd) = acc.fd() {
                set.register(fd, TOK_MACHINE, acc.interest());
            }
        }
        let due = [wheel.next_deadline(), link_due].into_iter().flatten().min();
        let timeout = due.map_or(IDLE_POLL, |d| IDLE_POLL.min(d.saturating_duration_since(Instant::now())));
        if set.poll(timeout).is_err() {
            // poll(2) failing outright (EBADF would be a bug, ENOMEM a
            // dying host): back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
        }
        let ready: Vec<(usize, crate::poller::Readiness)> = set.ready().collect();
        for (tok, r) in ready {
            match tok {
                TOK_WAKE => wake.drain(),
                TOK_LISTENER => {
                    if let Some(l) = &listener {
                        accept_reconnects(l, &mut accepts, &ctx);
                    }
                }
                TOK_MACHINE => {}
                _ => {
                    let i = tok - TOK_BASE;
                    if r.readable {
                        pump_reads(&mut links[i], &ctx, &mut wheel, i);
                    }
                    if r.writable {
                        // Resume a partial write now (a failure surfaces
                        // as `broken` at the loop top).
                        let link = &links[i].link;
                        writes.fetch_add(link.pump(&mut link.lock(), Instant::now()), Ordering::Relaxed);
                    }
                }
            }
        }
        for t in wheel.expire(Instant::now()) {
            let now = Instant::now();
            match t {
                Timer::Health(i) => health_tick(&mut links[i], &ctx, &mut wheel, i, now),
                Timer::Reconnect(i) => reconnect_tick(&mut links[i], &ctx, &mut wheel, i, now),
            }
        }
        // Step every handshake machine: after timers, so a dial started by
        // a reconnect tick makes its first hop (loopback connects usually
        // complete at once) within the same iteration.
        let now = Instant::now();
        for pl in &mut links {
            step_dial(pl, now);
        }
        step_accepts(&mut accepts, &sessions_by_node, &node_dead, now);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fabric::NodeFabric;
    use crate::fault::{FaultAction, FaultPlan, FaultSpec};
    use armci_transport::{Endpoint, NodeId, ProcId, Tag};

    fn ev_loopback(topo: &Topology, faults: FaultPlan, session: SessionCfg) -> Vec<NodeFabric> {
        NodeFabric::loopback_cfg(topo, false, faults, session).unwrap()
    }

    fn shutdown_all(fabrics: impl IntoIterator<Item = NodeFabric>) {
        let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    fn recovery_cfg(suspect_after: Duration) -> SessionCfg {
        SessionCfg { recovery: true, heartbeat_interval: Duration::from_millis(20), suspect_after, replay_window: 1024 }
    }

    #[test]
    fn cross_node_traffic_and_fifo_on_the_event_loop() {
        let topo = Topology::new(2, 1);
        let mut fabrics = ev_loopback(&topo, FaultPlan::new(), SessionCfg::default());
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let t = std::thread::spawn(move || {
            for i in 0..200u8 {
                let m = b.recv().unwrap();
                assert_eq!(m.src, Endpoint::Proc(ProcId(0)));
                assert_eq!(m.body, vec![i, i.wrapping_add(1)]);
            }
            b.send(Endpoint::Proc(ProcId(0)), Tag(9), vec![0xAB]);
            b
        });
        for i in 0..200u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(4), vec![i, i.wrapping_add(1)]);
        }
        assert_eq!(a.recv().unwrap().body, vec![0xAB]);
        let b = t.join().unwrap();
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn shutdown_flushes_messages_queued_before_teardown() {
        // Regression: `NodeFabric::shutdown` flags session teardown before
        // the loop has written everything out. Sent messages must still
        // reach the peer; `try_enqueue` rejecting on the teardown flag
        // once silently dropped them, wedging the peer's final barrier.
        let topo = Topology::new(2, 1);
        let mut fabrics = ev_loopback(&topo, FaultPlan::new(), SessionCfg::default());
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        for i in 0..500u32 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(1), i.to_le_bytes().to_vec());
        }
        // Tear down the sender immediately: the loop races the teardown
        // flag against a buffer of unwritten messages.
        drop(a);
        let t0 = std::thread::spawn(move || f0.shutdown());
        for i in 0..500u32 {
            let m = b.recv().unwrap();
            assert_eq!(m.body, i.to_le_bytes(), "message {i} lost or reordered across teardown");
        }
        t0.join().unwrap();
        drop(b);
        f1.shutdown();
    }

    #[test]
    fn heartbeats_fire_under_sustained_outbound_load() {
        // Heartbeats hang off the timer wheel, so they are due when the
        // clock says so, however busy the link is. Flood
        // A -> B; B's write path stays idle (it only acks), so B must keep
        // emitting bare acks at heartbeat cadence while its loop is busy
        // reading the flood.
        let topo = Topology::new(2, 1);
        let mut fabrics = ev_loopback(&topo, FaultPlan::new(), recovery_cfg(Duration::from_secs(5)));
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let flood = std::thread::spawn(move || {
            let payload = vec![7u8; 512];
            let mut n: u64 = 0;
            while !stop2.load(Ordering::Acquire) {
                a.send(Endpoint::Proc(ProcId(1)), Tag(1), payload.clone());
                n += 1;
                if n.is_multiple_of(64) {
                    // Pace roughly to what the receiver drains so the
                    // flood is sustained, not just an unbounded backlog.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            (a, n)
        });
        let t0 = Instant::now();
        let mut received: u64 = 0;
        while t0.elapsed() < Duration::from_millis(400) {
            if b.recv_timeout(Duration::from_millis(50)).unwrap().is_some() {
                received += 1;
            }
        }
        stop.store(true, Ordering::Release);
        let (a, sent) = flood.join().unwrap();
        // Drain the backlog so teardown stays clean.
        while received < sent {
            match b.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(_) => received += 1,
                None => panic!("flood backlog never drained"),
            }
        }
        assert!(sent > 100, "flood too slow to count as sustained load ({sent} msgs)");
        // B wrote no data frames, so every ack it sent was a bare
        // heartbeat; at 20ms cadence over 400ms of load it gets ~20
        // chances. Demand a conservative handful.
        let hb = f1.heartbeats_sent(NodeId(0));
        assert!(hb >= 5, "receiver sent only {hb} heartbeats under sustained inbound load");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn reconnect_replays_after_reset_on_the_event_loop() {
        // Node 1 resets its connection to node 0 after 5 frames; with
        // recovery on, the loop's reconnect timer re-dials and replays
        // the unacked tail. All 50 messages arrive in order, once. The
        // fifth sender-side write enacts the reset.
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 5, action: FaultAction::ResetConn });
        let topo = Topology::new(2, 1);
        let mut fabrics = ev_loopback(&topo, faults, recovery_cfg(Duration::from_secs(5)));
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        for i in 0..50u8 {
            b.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![i]);
        }
        for i in 0..50u8 {
            let got = a.recv_timeout(Duration::from_secs(10)).unwrap().expect("timed out mid-recovery");
            assert_eq!(got.body, vec![i]);
        }
        assert!(a.lost_peers().is_empty(), "recovered peer must not be reported lost");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn stalled_writer_delays_but_delivers() {
        let faults = FaultPlan::new().with(FaultSpec {
            node: 0,
            peer: 1,
            after_frames: 2,
            action: FaultAction::StallWriter { millis: 120 },
        });
        let topo = Topology::new(2, 1);
        let mut fabrics = ev_loopback(&topo, faults, SessionCfg::default());
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let mut a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        let t0 = Instant::now();
        for i in 0..6u8 {
            a.send(Endpoint::Proc(ProcId(1)), Tag(2), vec![i]);
        }
        for i in 0..6u8 {
            assert_eq!(b.recv_timeout(Duration::from_secs(10)).unwrap().unwrap().body, vec![i]);
        }
        assert!(t0.elapsed() >= Duration::from_millis(120), "stall was not enacted");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }

    #[test]
    fn kill_node_severs_all_links_under_the_event_loop() {
        let suspect_after = Duration::from_millis(400);
        let faults =
            FaultPlan::new().with(FaultSpec { node: 1, peer: 0, after_frames: 0, action: FaultAction::KillNode });
        let topo = Topology::new(2, 1);
        let mut fabrics = ev_loopback(&topo, faults, recovery_cfg(suspect_after));
        let mut f1 = fabrics.pop().unwrap();
        let mut f0 = fabrics.pop().unwrap();
        let a = f0.take_proc(ProcId(0));
        let mut b = f1.take_proc(ProcId(1));
        b.send(Endpoint::Proc(ProcId(0)), Tag(1), vec![1]);
        let deadline = Instant::now() + suspect_after + Duration::from_secs(5);
        while !a.peer_is_lost(NodeId(1)) {
            assert!(Instant::now() < deadline, "survivor never declared the killed node dead");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(b.peer_is_lost(NodeId(1)), "soft-killed node must report itself lost");
        drop(a);
        drop(b);
        shutdown_all([f0, f1]);
    }
}
