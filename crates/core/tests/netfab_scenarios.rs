//! The core SPMD scenarios — data operations, locks, non-blocking gets
//! and fences — run over *both* transport backends: the deterministic
//! emulator and netfab loopback TCP (real sockets, frames, reader/writer
//! threads, all nodes as threads of this process — no spawning in unit
//! tests).
//!
//! Every scenario is a plain `fn` so one definition runs under both
//! backends; results must agree wherever the scenario is deterministic.

use armci_core::runtime::{run_cluster, run_cluster_net_loopback};
use armci_core::{run_cluster_spawned, AckMode, Armci, ArmciCfg, GlobalAddr, LockAlgo, LockId, Strided2D};
use armci_transport::{LatencyModel, ProcId};

#[derive(Clone, Copy, Debug)]
enum Backend {
    Emu,
    Tcp,
}

const BOTH: [Backend; 2] = [Backend::Emu, Backend::Tcp];

fn run<T>(backend: Backend, cfg: ArmciCfg, f: fn(&mut Armci) -> T) -> Vec<T>
where
    T: Send + 'static,
{
    match backend {
        Backend::Emu => run_cluster(cfg, f),
        Backend::Tcp => run_cluster_net_loopback(cfg, f),
    }
}

fn zero_lat(nodes: u32) -> ArmciCfg {
    ArmciCfg::flat(nodes, LatencyModel::zero())
}

// ----------------------------------------------------------------------
// data_ops scenarios
// ----------------------------------------------------------------------

fn put_fence_get(a: &mut Armci) -> u64 {
    let seg = a.malloc(64);
    a.barrier();
    let right = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
    a.put_u64(GlobalAddr::new(right, seg, 0), a.rank() as u64 + 100);
    a.barrier();
    a.local_segment(seg).read_u64(0)
}

#[test]
fn put_fence_get_roundtrip_both_backends() {
    for b in BOTH {
        let out = run(b, zero_lat(3), put_fence_get);
        assert_eq!(out, vec![102, 100, 101], "{b:?}");
    }
}

fn barrier_visibility(a: &mut Armci) -> bool {
    let seg = a.malloc(8 * a.nprocs());
    a.barrier();
    for r in 0..a.nprocs() {
        a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 7);
    }
    a.barrier();
    let mine = a.local_segment(seg);
    (0..a.nprocs()).all(|r| mine.read_u64(8 * r) == 7)
}

#[test]
fn barrier_makes_all_pairs_visible_both_backends() {
    for b in BOTH {
        assert!(run(b, zero_lat(4), barrier_visibility).into_iter().all(|ok| ok), "{b:?}");
    }
}

fn strided_and_vector(a: &mut Armci) -> bool {
    let seg = a.malloc(1024);
    a.barrier();
    if a.rank() == 0 {
        let desc = Strided2D { offset: 64, rows: 4, row_bytes: 8, stride: 32 };
        let data: Vec<u8> = (0..32).collect();
        a.put_strided(ProcId(1), seg, desc, &data);
        a.fence(ProcId(1));
        assert_eq!(a.get_strided(ProcId(1), seg, desc), data);

        let runs = [(512u64, 4u32), (600, 8), (700, 2)];
        let vdata: Vec<u8> = (0..14).map(|i| i ^ 0x5A).collect();
        a.put_vector(ProcId(1), seg, &runs, &vdata);
        a.fence(ProcId(1));
        assert_eq!(a.get_vector(ProcId(1), seg, &runs), vdata);
    }
    a.barrier();
    true
}

#[test]
fn strided_and_vector_roundtrip_both_backends() {
    for b in BOTH {
        assert!(run(b, zero_lat(2), strided_and_vector).into_iter().all(|ok| ok), "{b:?}");
    }
}

fn acc_scaled(a: &mut Armci) -> f64 {
    let seg = a.malloc(64);
    a.barrier();
    let scale = (a.rank() + 1) as f64;
    a.acc_f64(GlobalAddr::new(ProcId(0), seg, 0), scale, &[1.0, 2.0]);
    a.barrier();
    let total = if a.rank() == 0 { f64::from_bits(a.local_segment(seg).read_u64(8)) } else { 0.0 };
    a.barrier();
    total
}

#[test]
fn accumulate_sums_both_backends() {
    for b in BOTH {
        let out = run(b, zero_lat(4), acc_scaled);
        // 2.0 * (1+2+3+4)
        assert_eq!(out[0], 20.0, "{b:?}");
    }
}

fn ticket_permutation(a: &mut Armci) -> u64 {
    let seg = a.malloc(8);
    a.barrier();
    let t = a.fetch_add_u64(GlobalAddr::new(ProcId(0), seg, 0), 1);
    a.barrier();
    t
}

#[test]
fn fetch_add_tickets_unique_both_backends() {
    for b in BOTH {
        let mut tickets = run(b, zero_lat(5), ticket_permutation);
        tickets.sort_unstable();
        assert_eq!(tickets, (0..5).collect::<Vec<u64>>(), "{b:?}");
    }
}

fn cas_winner(a: &mut Armci) -> bool {
    let seg = a.malloc(8);
    a.barrier();
    let observed = a.cas_u64(GlobalAddr::new(ProcId(0), seg, 0), 0, a.rank() as u64 + 1);
    a.barrier();
    observed == 0
}

#[test]
fn cas_single_winner_both_backends() {
    for b in BOTH {
        let out = run(b, zero_lat(4), cas_winner);
        assert_eq!(out.into_iter().filter(|&w| w).count(), 1, "{b:?}");
    }
}

fn via_put_fence(a: &mut Armci) -> bool {
    let seg = a.malloc(16);
    a.barrier();
    if a.rank() == 0 {
        a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 4242);
        a.fence(ProcId(1)); // VIA mode: drains acks instead of round-trip
    }
    a.barrier();
    a.rank() != 1 || a.local_segment(seg).read_u64(0) == 4242
}

#[test]
fn via_ack_mode_fence_both_backends() {
    for b in BOTH {
        let cfg = zero_lat(2).with_ack_mode(AckMode::Via);
        assert!(run(b, cfg, via_put_fence).into_iter().all(|ok| ok), "{b:?}");
    }
}

// ----------------------------------------------------------------------
// locks scenarios
// ----------------------------------------------------------------------

fn lock_torture(a: &mut Armci) -> u64 {
    const ITERS: u64 = 15;
    let seg = a.malloc(16);
    let lock = LockId { owner: ProcId(0), idx: 0 };
    let counter = GlobalAddr::new(ProcId(0), seg, 0);
    a.barrier();
    for _ in 0..ITERS {
        a.lock(lock);
        // Deliberately non-atomic increment: lost updates prove a broken
        // lock.
        let mut buf = [0u8; 8];
        a.get(counter, &mut buf);
        let v = u64::from_le_bytes(buf) + 1;
        a.put(counter, &v.to_le_bytes());
        a.fence(ProcId(0));
        a.unlock(lock);
    }
    a.barrier();
    let mut buf = [0u8; 8];
    a.get(counter, &mut buf);
    u64::from_le_bytes(buf)
}

#[test]
fn mcs_mutual_exclusion_both_backends() {
    for b in BOTH {
        let cfg = ArmciCfg {
            nodes: 2,
            procs_per_node: 2,
            latency: LatencyModel::zero(),
            lock_algo: LockAlgo::Mcs,
            ..Default::default()
        };
        let out = run(b, cfg, lock_torture);
        assert!(out.into_iter().all(|v| v == 4 * 15), "{b:?}: lost updates");
    }
}

#[test]
fn hybrid_mutual_exclusion_both_backends() {
    for b in BOTH {
        let cfg = zero_lat(3).with_lock_algo(LockAlgo::Hybrid);
        let out = run(b, cfg, lock_torture);
        assert!(out.into_iter().all(|v| v == 3 * 15), "{b:?}: lost updates");
    }
}

// ----------------------------------------------------------------------
// nb_and_fence scenarios
// ----------------------------------------------------------------------

fn nbget_overlap(a: &mut Armci) -> bool {
    let seg = a.malloc(64);
    a.local_segment(seg).write_u64(0, a.rank() as u64 * 11);
    a.barrier();
    if a.rank() == 0 {
        let hs: Vec<_> = (1..a.nprocs()).map(|p| a.nbget(GlobalAddr::new(ProcId(p as u32), seg, 0), 8)).collect();
        for (i, h) in hs.into_iter().enumerate() {
            let v = u64::from_le_bytes(a.nbget_wait(h).try_into().unwrap());
            assert_eq!(v, (i as u64 + 1) * 11);
        }
    }
    a.barrier();
    true
}

#[test]
fn nbget_overlap_both_backends() {
    for b in BOTH {
        assert!(run(b, zero_lat(4), nbget_overlap).into_iter().all(|ok| ok), "{b:?}");
    }
}

fn allfence_visibility(a: &mut Armci) -> bool {
    let seg = a.malloc(8 * a.nprocs());
    a.barrier();
    for r in 0..a.nprocs() {
        if r != a.rank() {
            a.put_u64(GlobalAddr::new(ProcId(r as u32), seg, 8 * a.rank()), 7);
        }
    }
    a.allfence();
    a.barrier();
    let mine = a.local_segment(seg);
    (0..a.nprocs()).filter(|&r| r != a.rank()).all(|r| mine.read_u64(8 * r) == 7)
}

#[test]
fn allfence_then_barrier_both_backends() {
    for b in BOTH {
        assert!(run(b, zero_lat(3), allfence_visibility).into_iter().all(|ok| ok), "{b:?}");
    }
}

// ----------------------------------------------------------------------
// netfab-only checks
// ----------------------------------------------------------------------

/// The wire-count checks below compare *wire* structure between
/// backends, so they pin the shm plane off: under `ARMCI_SHM_PLANE=on`
/// (the shm CI leg) loopback nodes would serve each other through
/// mapped segments and the counts they assert would legitimately drop.
fn wire_pinned(nodes: u32) -> ArmciCfg {
    zero_lat(nodes).with_shm_plane(Some(false))
}

#[test]
fn tcp_wire_counters_populate_stats() {
    let out = run_cluster_net_loopback(wire_pinned(2), |a| {
        let seg = a.malloc(64);
        a.barrier();
        let peer = ProcId(((a.rank() + 1) % 2) as u32);
        a.put_u64(GlobalAddr::new(peer, seg, 0), 1);
        a.fence(peer);
        a.barrier();
        a.stats()
    });
    for s in &out {
        // Every rank crossed the wire: the put/fence traffic and the
        // dissemination barrier all target the other node.
        assert!(s.wire_msgs > 0, "no wire messages recorded: {s:?}");
        assert!(s.wire_bytes > 0, "no wire bytes recorded: {s:?}");
        assert!(s.wire_msgs <= s.total_msgs(), "wire msgs exceed total sends: {s:?}");
    }
}

#[test]
fn emulator_and_tcp_agree_on_wire_message_counts() {
    // The scenario is fully deterministic (sequential phases, no races),
    // so the number of messages each rank puts on the inter-node wire
    // must be identical across backends — the emulator's hop counting
    // and netfab's frame counting measure the same structure.
    let wire_counts = |b: Backend| -> Vec<u64> {
        run(b, wire_pinned(3), |a| {
            let seg = a.malloc(64);
            a.barrier();
            if a.rank() == 0 {
                a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 5);
                a.fence(ProcId(1));
                let mut buf = [0u8; 8];
                a.get(GlobalAddr::new(ProcId(2), seg, 0), &mut buf);
            }
            a.barrier();
            a.stats().wire_msgs
        })
    };
    assert_eq!(wire_counts(Backend::Emu), wire_counts(Backend::Tcp));
}

#[test]
fn tcp_loopback_trace_matches_emulator_structure() {
    use armci_core::runtime::{run_cluster_net_loopback_traced, run_cluster_traced};
    let mut cfg = wire_pinned(2);
    cfg.trace = true;
    let scenario = |a: &mut Armci| {
        let seg = a.malloc(32);
        a.barrier();
        if a.rank() == 0 {
            a.put_u64(GlobalAddr::new(ProcId(1), seg, 0), 9);
            a.fence(ProcId(1));
        }
        a.barrier();
    };
    let (_, emu) = run_cluster_traced(cfg.clone(), scenario);
    let (_, tcp) = run_cluster_net_loopback_traced(cfg, scenario);
    let emu = emu.expect("emulator trace");
    let tcp = tcp.expect("tcp trace");
    // Identical per-(src, dst, tag) message multisets: the scenario is
    // deterministic, only timing differs between backends.
    let ep_key = |e: armci_transport::Endpoint| match e {
        armci_transport::Endpoint::Proc(p) => (0u8, p.0),
        armci_transport::Endpoint::Server(n) => (1, n.0),
        armci_transport::Endpoint::Nic(n) => (2, n.0),
    };
    let key = |t: &armci_transport::Trace| {
        let mut v: Vec<_> = t.snapshot().iter().map(|e| (ep_key(e.src), ep_key(e.dst), e.tag.0, e.size)).collect();
        v.sort();
        v
    };
    assert_eq!(key(&emu), key(&tcp));
}

// ----------------------------------------------------------------------
// shm data plane: two ranks, one host, separate OS processes
// ----------------------------------------------------------------------

/// What one shm-plane run reports from rank 0. `data` holds every value
/// the probe read back and must be identical whether the ops rode the
/// shm plane or the wire; `wire` and `pair_wire` are the wire-message
/// deltas of both ranks across the two measured regions.
#[derive(Debug)]
struct ShmProbe {
    data: Vec<Vec<u8>>,
    wire: [u64; 2],
    pair_wire: [u64; 2],
}

/// `len` bytes that depend on `tag` and the writing rank, so every
/// region of the probe carries distinct, checkable contents.
fn pattern(tag: u8, rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_mul(31).wrapping_add((rank * 7 + i) as u8)).collect()
}

/// The probe both shm-plane runs execute. Region one covers every data
/// op that has a shm arm — word put/get/rmw, strided, vector, accumulate,
/// non-blocking gets and a notified put — aimed at the other process,
/// then an MCS lock ping-pong; region two covers the 128-bit pair ops,
/// which must keep using the owner's server. Neither region contains a
/// barrier. Each rank ships its deltas to rank 0 so node 0's result
/// carries both.
fn shm_probe(a: &mut Armci) -> ShmProbe {
    let seg = a.malloc(1024);
    let lock = LockId { owner: ProcId(0), idx: 0 };
    let rank = a.rank();
    let me = rank as u64;
    let peer = ProcId(((rank + 1) % 2) as u32);
    let at = |off: usize| GlobalAddr::new(peer, seg, off);
    // Regions in the target segment, disjoint per writing rank.
    let strided = Strided2D { offset: 256 + 128 * rank, rows: 3, row_bytes: 8, stride: 24 };
    let runs = [((512 + 64 * rank) as u64, 4u32), ((512 + 64 * rank + 20) as u64, 12)];
    let acc_at = 640 + 16 * rank;
    let notified = [((704 + 32 * rank) as u64, 5u32), ((704 + 32 * rank + 16) as u64, 9)];
    let pair_at = 768 + 16 * rank;
    a.barrier();

    let wire_before = a.stats().wire_msgs;
    // Direct one-sided data ops against the other process's segment.
    a.put_u64(at(8 * rank), me + 0xA0);
    let ticket = a.fetch_add_u64(at(64), me + 1);
    let echoed = a.get_u64(at(8 * rank));
    // Every bulk op, written then read back across one fence.
    a.put_strided(peer, seg, strided, &pattern(1, rank, strided.total_bytes()));
    a.put_vector(peer, seg, &runs, &pattern(2, rank, 16));
    a.put_f64_slice(at(acc_at), &[1.5, -4.0]);
    a.acc_f64(at(acc_at), 2.0, &[0.25, 3.0]);
    a.put_notify_v(peer, seg, &notified, &pattern(3, rank, 14), 0);
    a.fence(peer);
    let mut data = vec![
        echoed.to_le_bytes().to_vec(),
        ticket.to_le_bytes().to_vec(),
        a.get_strided(peer, seg, strided),
        a.get_vector(peer, seg, &runs),
        a.get_f64_slice(at(acc_at), 2).iter().flat_map(|v| v.to_le_bytes()).collect(),
    ];
    let nb = a.nbget(at(512 + 64 * rank), 4);
    let nb_strided = a.nbget_strided(peer, seg, strided);
    data.push(a.nbget_wait(nb));
    data.push(a.nbget_wait(nb_strided));
    // The peer's notified put landed in my segment before its bump.
    a.wait_notify(0, 1);
    let mine = a.local_segment(seg);
    let peer_rank = peer.idx();
    let mut landed = Vec::new();
    for &(off, len) in &[((704 + 32 * peer_rank) as u64, 5u32), ((704 + 32 * peer_rank + 16) as u64, 9)] {
        let mut buf = vec![0u8; len as usize];
        mine.read_bytes(off as usize, &mut buf);
        landed.extend(buf);
    }
    data.push(landed);
    // MCS lock handoff between the two processes: a deliberately
    // non-atomic increment under the lock proves mutual exclusion.
    let ctr = GlobalAddr::new(ProcId(0), seg, 128);
    for _ in 0..5 {
        a.lock(lock);
        let v = a.get_u64(ctr);
        a.put_u64(ctr, v + 1);
        a.fence(ProcId(0));
        a.unlock(lock);
    }
    let wire_delta = a.stats().wire_msgs - wire_before;
    a.barrier();

    // Pair ops: atomic only under their owner's stripe locks, so they
    // take the wire even with the plane on.
    let pair_before = a.stats().wire_msgs;
    a.put_pair(at(pair_at), [me + 1, me + 2]);
    let seen = a.pair_cas(at(pair_at), [me + 1, me + 2], [me + 3, me + 4]);
    let pair_delta = a.stats().wire_msgs - pair_before;
    data.push(seen.iter().flat_map(|v| v.to_le_bytes()).collect());

    a.barrier();
    // +1 so a genuine zero delta is distinguishable from an unwritten slot.
    a.put_u64(GlobalAddr::new(ProcId(0), seg, 160 + 8 * rank), wire_delta + 1);
    a.put_u64(GlobalAddr::new(ProcId(0), seg, 176 + 8 * rank), pair_delta + 1);
    a.barrier();
    data.push(a.get_u64(ctr).to_le_bytes().to_vec());
    a.barrier();
    let delta = |off: usize| mine.read_u64(off) - 1;
    let (wire, pair_wire) =
        if rank == 0 { ([delta(160), delta(168)], [delta(176), delta(184)]) } else { ([0; 2], [0; 2]) };
    ShmProbe { data, wire, pair_wire }
}

/// The single `run_cluster_spawned` call site of this binary: children
/// re-enter `shm_plane_spawned_zero_wire` with an `--exact` filter, land
/// here, and take their cluster config from the environment payload —
/// so the parent can invoke it for both the shm-on and shm-off runs.
fn run_shm_probe(shm_on: bool) -> ShmProbe {
    let cfg = ArmciCfg {
        nodes: 2,
        procs_per_node: 1,
        latency: LatencyModel::zero(),
        lock_algo: LockAlgo::Mcs,
        shm_plane: Some(shm_on),
        ..Default::default()
    };
    let child_args: Vec<String> =
        ["shm_plane_spawned_zero_wire", "--exact", "--test-threads=1"].iter().map(|s| s.to_string()).collect();
    run_cluster_spawned(cfg, &child_args, shm_probe).swap_remove(0)
}

#[test]
#[cfg(unix)]
fn shm_plane_spawned_zero_wire() {
    // Two OS processes on this host, with the shm plane on and off.
    let on = run_shm_probe(true);
    let off = run_shm_probe(false);
    // Identical data results either way — the plane changes the route,
    // never the bytes.
    assert_eq!(on.data, off.data, "shm and wire paths disagree: {on:?} vs {off:?}");
    // Rank 0's view, spelled out: what it wrote into rank 1 came back,
    // and rank 1's notified put landed in rank 0.
    let f64s = |v: &[f64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let strided = pattern(1, 0, 24);
    let vector = pattern(2, 0, 16);
    let expect: Vec<Vec<u8>> = vec![
        0xA0u64.to_le_bytes().to_vec(),
        0u64.to_le_bytes().to_vec(),
        strided.clone(),
        vector.clone(),
        f64s(&[2.0, 2.0]),
        vector[..4].to_vec(),
        strided,
        pattern(3, 1, 14),
        [1u64, 2].iter().flat_map(|v| v.to_le_bytes()).collect(),
        10u64.to_le_bytes().to_vec(),
    ];
    assert_eq!(on.data, expect);
    // With the plane on, the whole data-op + MCS-lock region crossed the
    // wire exactly zero times in *both* processes...
    assert_eq!(on.wire, [0, 0], "local-target ops sent wire messages with shm plane on: {on:?}");
    // ...and with it off, the same region demonstrably used the wire.
    assert!(off.wire.iter().all(|&d| d > 0), "wire run produced no wire traffic to compare against: {off:?}");
    // Pair ops ride the wire whatever the plane setting.
    assert!(on.pair_wire.iter().all(|&d| d > 0), "pair ops skipped the wire with shm plane on: {on:?}");
    assert!(off.pair_wire.iter().all(|&d| d > 0), "pair ops skipped the wire with shm plane off: {off:?}");
}
