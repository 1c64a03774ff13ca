//! End-to-end benchmark of the ARMCI reproduction.
//!
//! ```text
//! perfbench --workload <ga_sync|lock_counter|halo_push> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --manifest            # print BENCHMARK.json
//! ```
//!
//! Each run launches two node processes with one rank each through
//! `run_cluster_spawned` (this binary re-executes itself for node 1),
//! with a zero latency model, so all time is real socket or memory time.
//! A run warms up, then measures closed-loop steps for `--seconds`. Step
//! times are gathered from both ranks before they are summarised.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! traced and untraced chunks of steps, times every call into the library
//! in the traced ones, and prints the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod catalog;
mod probes;
mod stats;
mod workloads;

use std::time::{Duration, Instant};

use armci_core::{run_cluster_spawned, Armci, ArmciCfg, LockAlgo};
use armci_msglib::{Group, P2p};
use armci_transport::LatencyModel;

use stats::{take_u64, Samples, Summary};
use workloads::{GaSync, HaloPush, LockCounter, Span, Spans, Workload, SPANS};

/// Seconds one driver run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 20;
/// Independent cluster launches per untraced run, each measuring a fifth
/// of `--seconds`; the end-to-end timings are medians over them. A
/// stretch of host noise that spoils one launch's tail (the step p99 can
/// read four times its usual value) then leaves the run's figures alone.
const LAUNCHES: u32 = 5;
/// Warm-up before each launch's measured phase.
const WARMUP: Duration = Duration::from_millis(500);
/// Message tag of the raw mailbox ping-pong (msglib range, above every
/// collective opcode).
const RTT_TAG: u32 = 0xF000;
/// The step whose check `--corrupt` falsifies on rank 0.
const CORRUPT_STEP: u64 = 1;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    GaSync,
    LockCounter,
    HaloPush,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::GaSync => "ga_sync",
            Kind::LockCounter => "lock_counter",
            Kind::HaloPush => "halo_push",
        }
    }

    /// Only the lock cycle runs over the cross-process shm plane; the
    /// other two must cross the wire.
    fn shm_plane(self) -> bool {
        self == Kind::LockCounter
    }

    /// Whether each rank thread gets a CPU of its own. The lock cycle's
    /// ranks spin on shared memory: left to the scheduler, both land on
    /// one CPU in some runs and not in others, and the throughput halves
    /// when they do. The wire workloads' ranks block on the network, and
    /// pinning them only stops the scheduler from moving a woken rank off
    /// a CPU that its node's IO thread holds, which lengthens the tail.
    fn pins_ranks(self) -> bool {
        self == Kind::LockCounter
    }
}

#[derive(Clone, Debug)]
struct Params {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// A few steps per phase: for the benchmark's own tests.
    smoke: bool,
    /// Falsify one expected value, to prove failures are reported.
    corrupt: bool,
}

impl Params {
    fn args(&self) -> Vec<String> {
        let mut v = vec![
            "--workload".into(),
            self.kind.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ];
        if self.smoke {
            v.push("--smoke".into());
        }
        if self.corrupt {
            v.push("--corrupt".into());
        }
        v
    }

    /// Launches this run makes: traced runs report per-layer metrics,
    /// which are not gated, from one launch.
    fn launches(&self) -> u32 {
        if self.trace || self.smoke {
            1
        } else {
            LAUNCHES
        }
    }

    fn phase_time(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs(self.seconds) / self.launches()
        }
    }
}

enum Cli {
    Manifest,
    /// `node` is set only in a re-executed node process.
    Run {
        p: Params,
        node: bool,
    },
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut smoke, mut corrupt, mut node) = (false, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--manifest" => return Ok(Cli::Manifest),
            "--workload" => {
                kind = Some(match val()?.as_str() {
                    "ga_sync" => Kind::GaSync,
                    "lock_counter" => Kind::LockCounter,
                    "halo_push" => Kind::HaloPush,
                    w => return Err(format!("unknown workload {w}")),
                })
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                })
            }
            "--smoke" => smoke = true,
            "--corrupt" => corrupt = true,
            "--node" => node = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let p = Params {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        corrupt,
    };
    Ok(Cli::Run { p, node })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cli::Manifest) => print!("{}", catalog::manifest_json()),
        Ok(Cli::Run { p, node: true }) => {
            // A node process: joins the launch and exits inside it.
            launch(&p);
        }
        Ok(Cli::Run { p, node: false }) => run(&p),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs rank threads are pinned to (see [`Kind::pins_ranks`]): rank
/// r takes the r-th allowed CPU, when this process may use at least two.
/// The library's server and IO threads stay unpinned.
fn rank_cpus(kind: Kind) -> Vec<usize> {
    let cpus = allowed_cpus();
    if kind.pins_ranks() && cpus.len() >= 2 {
        cpus[..2].to_vec()
    } else {
        Vec::new()
    }
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Pin the calling thread to `cpu`.
fn pin_to(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a readable `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "cannot pin to CPU {cpu}");
}

/// Everything rank 0 learns from one launch.
struct Outcome {
    setup_s: f64,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

/// One cluster launch: two node processes, the workload's set-up, then
/// the measured steps. Returns rank 0's outcome.
fn launch(p: &Params) -> Outcome {
    let mut cfg = ArmciCfg::flat(2, LatencyModel::zero())
        .with_seed(p.seed)
        .with_lock_algo(LockAlgo::Mcs)
        .with_shm_plane(Some(p.kind.shm_plane()));
    if p.kind.shm_plane() {
        cfg = cfg.with_shm_dir(Some(scratch_dir("shm")));
    }
    let mut child_args = p.args();
    child_args.push("--node".to_string());
    let params = p.clone();
    let t0 = Instant::now();
    let out = run_cluster_spawned(cfg, &child_args, move |a| rank_main(a, &params, t0));
    out.into_iter().next().flatten().expect("rank 0 reports an outcome")
}

/// An absolute directory for the run's files, inside the build directory
/// the benchmark is built in.
fn scratch_dir(name: &str) -> String {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = std::env::current_dir().expect("current directory").join(base).join("perfbench").join(name);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir.to_str().expect("UTF-8 scratch path").to_string()
}

fn run(p: &Params) {
    let outs: Vec<Outcome> = (0..p.launches()).map(|_| launch(p)).collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} ranks=2 node_processes=2 shm_plane={} \
         rank_cpus={:?} launches={}",
        p.kind.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        if p.kind.shm_plane() { "on" } else { "off" },
        rank_cpus(p.kind),
        outs.len(),
    );
    for (i, out) in outs.iter().enumerate() {
        for n in &out.notes {
            println!("launch {i}: {n}");
        }
        println!("launch {i}: setup_s = {} s (launch to first step)", out.setup_s);
    }
    // Each metric is the median over the launches, except the peak
    // resident set, which is the first launch's: node 0's process hosts
    // every launch, so later readings of its VmHWM include the residue of
    // earlier launches.
    let combine = |name: &str, mut v: Vec<f64>| {
        if name == "peak_rss_mb" {
            return v[0];
        }
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut metrics: Vec<(&str, f64)> = outs[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| (name, combine(name, outs.iter().map(|o| o.metrics[i].1).collect())))
        .collect();
    if !p.trace {
        metrics.push(("setup_s", combine("setup_s", outs.iter().map(|o| o.setup_s).collect())));
    }
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    for (name, v) in &metrics {
        println!("{name} = {v} {} (over {} launches)", catalog::unit_of(name), outs.len());
    }
    println!(
        "failed_frac = {} ({failed} of {attempted} steps failed or read back wrong values)",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            assert!(v.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", catalog::unit_of(name))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

// ---------------------------------------------------------------------
// Per rank
// ---------------------------------------------------------------------

/// Counters read from `Armci::stats()` around the steps of a phase.
const COUNTERS: usize = 5;

fn counters(a: &Armci) -> [u64; COUNTERS] {
    let s = a.stats();
    [s.wire_msgs, s.wire_bytes, s.server_msgs, s.fence_roundtrips, s.shm_puts + s.shm_gets + s.shm_rmws]
}

/// What the steps of one phase did on this rank, in traced or in
/// untraced chunks.
#[derive(Default)]
struct Half {
    steps: u64,
    /// Time spent in the steps' chunks, without the stop checks.
    busy: Duration,
    samples: Samples,
    counters: [u64; COUNTERS],
}

/// One phase of closed-loop steps on this rank.
struct Phase {
    wall: Duration,
    plain: Half,
    traced: Half,
}

/// This rank's loop state across phases.
struct Driver<'p> {
    p: &'p Params,
    rank: usize,
    /// Next step index: inputs are generated from it, so both ranks of a
    /// collective step agree on them.
    k: u64,
    attempted: u64,
    failed: u64,
    spans: Spans,
}

impl Driver<'_> {
    /// Run steps in chunks until rank 0 has seen `time` pass; the stop
    /// decision is an allreduce between chunks, outside the timed steps
    /// and the counter snapshots. With `trace`, every other chunk is
    /// traced, so both halves run under the same host conditions, and the
    /// phase ends after an even number of chunks.
    fn phase(&mut self, a: &mut Armci, w: &mut dyn Workload, time: Duration, trace: bool) -> Phase {
        let chunk = if self.p.smoke { 16 } else { w.chunk() };
        let world = Group::world(a.nprocs());
        let mut ph = Phase { wall: Duration::ZERO, plain: Half::default(), traced: Half::default() };
        let start = Instant::now();
        for n in 1u64.. {
            let traced = trace && n % 2 == 0;
            self.spans.on = traced;
            let half = if traced { &mut ph.traced } else { &mut ph.plain };
            let before = counters(a);
            let t_chunk = Instant::now();
            for _ in 0..chunk {
                let k = self.k;
                w.prep(a, k);
                let t = Instant::now();
                let ok = w.step(a, k, &mut self.spans);
                half.samples.push(t.elapsed().as_nanos() as u64);
                let corrupt = self.p.corrupt && self.rank == 0 && k == CORRUPT_STEP;
                if !(ok && w.check(a, k, corrupt)) {
                    self.failed += 1;
                }
                self.k += 1;
            }
            half.busy += t_chunk.elapsed();
            for (acc, (now, then)) in half.counters.iter_mut().zip(counters(a).iter().zip(before)) {
                *acc += now - then;
            }
            half.steps += chunk;
            let done = self.rank == 0 && start.elapsed() >= time && (!trace || n % 2 == 0);
            let mut stop = [u64::from(done)];
            world.allreduce(a, &mut stop, u64::max);
            if stop[0] == 1 {
                break;
            }
        }
        ph.wall = start.elapsed();
        self.attempted += ph.plain.steps + ph.traced.steps;
        self.spans.on = false;
        ph
    }
}

/// Ping-pong `bytes` between rank 0 and rank 1 over the node mailboxes;
/// rank 0 returns the round-trip times.
fn rtt_probe(a: &mut Armci, bytes: usize, iters: usize) -> Samples {
    let mut rtt = Samples::default();
    for i in 0..iters + iters / 10 {
        if a.rank() == 0 {
            let body = vec![i as u8; bytes];
            let t = Instant::now();
            a.send_to(1, RTT_TAG, body);
            let back = a.recv_from(1, RTT_TAG);
            let ns = t.elapsed().as_nanos() as u64;
            assert_eq!(back.len(), bytes, "ping-pong reply size");
            if i >= iters / 10 {
                rtt.push(ns);
            }
        } else {
            let body = a.recv_from(0, RTT_TAG);
            a.send_to(0, RTT_TAG, body);
        }
    }
    rtt
}

fn rank_main(a: &mut Armci, p: &Params, t0: Instant) -> Option<Outcome> {
    if let Some(&cpu) = rank_cpus(p.kind).get(a.rank()) {
        pin_to(cpu);
    }
    let mut w: Box<dyn Workload> = match p.kind {
        Kind::GaSync => Box::new(GaSync::setup(a, p.seed)),
        Kind::LockCounter => Box::new(LockCounter::setup(a)),
        Kind::HaloPush => Box::new(HaloPush::setup(a, p.seed)),
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let mut d = Driver { p, rank: a.rank(), k: 0, attempted: 0, failed: 0, spans: Spans::new() };
    let warm = if p.smoke { Duration::ZERO } else { WARMUP };
    d.phase(a, &mut *w, warm, false);
    let Phase { wall, plain, traced } = d.phase(a, &mut *w, p.phase_time(), p.trace);
    let rtt = p.trace.then(|| {
        let iters = if p.smoke { 20 } else { 2000 };
        (rtt_probe(a, 8, iters), rtt_probe(a, 64 << 10, iters / 4))
    });

    // Every rank's report, gathered before anything is summarised.
    let spans_len: usize = d.spans.by.iter().map(Samples::encoded_len).sum();
    let mut mine = Vec::with_capacity(96 + plain.samples.encoded_len() + spans_len);
    for v in [d.attempted, d.failed, probes::peak_rss_kib(), plain.steps] {
        mine.extend_from_slice(&v.to_le_bytes());
    }
    plain.samples.encode(&mut mine);
    if p.trace {
        mine.extend_from_slice(&traced.steps.to_le_bytes());
        for c in traced.counters {
            mine.extend_from_slice(&c.to_le_bytes());
        }
        for s in &d.spans.by {
            s.encode(&mut mine);
        }
    }
    let all = Group::world(a.nprocs()).allgather(a, mine);
    if a.rank() != 0 {
        return None;
    }

    let mut reports: Vec<RankReport> = all.iter().map(|b| RankReport::decode(b, p.trace)).collect();
    let ok_steps: u64 = reports.iter().map(|r| r.attempted - r.failed).sum();
    let final_failures = w.final_failures(a, ok_steps, p.corrupt);
    let mut out = Outcome {
        setup_s,
        attempted: reports.iter().map(|r| r.attempted).sum(),
        failed: reports.iter().map(|r| r.failed).sum::<u64>() + final_failures,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let calib = probes::host_calib_ns();
    out.notes.push(format!("host.calib_ns = {calib} ns (fixed 1M-iteration integer loop, median of 5)"));

    let us = |ns: u64| ns as f64 / 1e3;

    let Some((rtt8, rtt64)) = rtt else {
        let steps: u64 = reports.iter().map(|r| r.steps).sum();
        let plain_rate = steps as f64 / wall.as_secs_f64();
        let parts: Vec<Samples> = reports.iter_mut().map(|r| std::mem::take(&mut r.samples)).collect();
        let step = Summary::of(Samples::merge(&parts)).expect("at least one step");
        let rss_mb = reports.iter().map(|r| r.rss_kib).sum::<u64>() as f64 / 1024.0;
        out.notes.push(format!(
            "step_p50_us = {} us (median of {} step samples from both ranks; {steps} steps)",
            us(step.p50),
            step.n
        ));
        out.notes.push(format!(
            "step_p99_us = {} us ({} samples beyond it; p{} = {} us with >= 10 beyond)",
            us(step.p99),
            step.beyond_p99,
            step.tail_pct,
            us(step.tail)
        ));
        out.notes.push(format!("steps_per_s = {plain_rate} 1/s (both ranks, over {wall:?})"));
        out.notes.push(format!("peak_rss_mb = {rss_mb} MB (sum of both node processes' VmHWM)"));
        out.metrics = vec![
            ("step_p50_us", us(step.p50)),
            ("step_p99_us", us(step.p99)),
            ("steps_per_s", plain_rate),
            ("peak_rss_mb", rss_mb),
        ];
        return Some(out);
    };

    let traced_steps: u64 = reports.iter().map(|r| r.traced_steps).sum();
    let per_step = |i: usize| reports.iter().map(|r| r.counters[i]).sum::<u64>() as f64 / traced_steps as f64;
    let span = |s: Span| {
        let parts: Vec<Samples> = reports.iter().map(|r| r.spans[s as usize].clone()).collect();
        Summary::of(Samples::merge(&parts))
    };
    let p50 = |s: Span| span(s).map_or(0.0, |x| us(x.p50));
    let p99 = |s: Span| span(s).map_or(0.0, |x| us(x.p99));
    // A copy rate from the median call time of a fixed-size copy.
    let gbps = |s: Span, bytes: f64| span(s).map_or(0.0, |x| bytes / x.p50 as f64);
    let proto = probes::proto_cost();
    // Rank 0's own step rate in each half of the interleaved chunks.
    let rate = |h: &Half| h.steps as f64 / h.busy.as_secs_f64();
    let (plain_busy_rate, traced_rate) = (rate(&plain), rate(&traced));
    let halo = workloads::HALO_BYTES as f64;
    out.metrics = vec![
        ("ga.put_us_p50", p50(Span::GaPut)),
        ("ga.sync_us_p50", p50(Span::GaSync)),
        ("ga.sync_us_p99", p99(Span::GaSync)),
        ("core.lock_us_p50", p50(Span::Lock)),
        ("core.lock_us_p99", p99(Span::Lock)),
        ("core.unlock_us_p50", p50(Span::Unlock)),
        ("core.get_u64_us_p50", p50(Span::GetU64)),
        ("core.put_u64_us_p50", p50(Span::PutU64)),
        ("core.plan_post_us_p50", p50(Span::PlanPost)),
        ("core.plan_sync_us_p50", p50(Span::PlanSync)),
        ("core.plan_sync_us_p99", p99(Span::PlanSync)),
        ("core.wire_msgs_per_step", per_step(0)),
        ("core.wire_bytes_per_step", per_step(1)),
        ("core.server_msgs_per_step", per_step(2)),
        ("core.fence_roundtrips_per_step", per_step(3)),
        ("shm-plane.ops_per_step", per_step(4)),
        ("proto.barrier_poll_ns", proto.barrier_poll_ns),
        ("proto.barrier_polls_per_step", proto.barrier_polls_per_step),
        ("proto.mcs_poll_ns", proto.mcs_poll_ns),
        ("proto.notify_poll_ns", proto.notify_poll_ns),
        ("transport.pack_gbps", gbps(Span::Pack, halo)),
        ("transport.unpack_gbps", gbps(Span::Unpack, 2.0 * halo)),
        ("transport.bytes_per_step", w.bytes_per_step() as f64),
        ("netfab.rtt_8b_us_p50", Summary::of(Samples::merge(&[rtt8])).map_or(0.0, |x| us(x.p50))),
        ("netfab.rtt_64k_us_p50", Summary::of(Samples::merge(&[rtt64])).map_or(0.0, |x| us(x.p50))),
        ("trace.overhead_frac", 1.0 - traced_rate / plain_busy_rate),
        ("host.calib_ns", calib),
        ("failed_frac", out.failed as f64 / out.attempted.max(1) as f64),
    ];
    out.notes.push(format!(
        "rank 0: {} steps in traced chunks at {traced_rate} 1/s, {} in untraced chunks at {plain_busy_rate} 1/s; \
         span and counter metrics come from the traced chunks of both ranks",
        traced.steps, plain.steps
    ));
    out.notes.push("transport.bytes_per_step is computed from the message sizes, not measured".into());
    Some(out)
}

/// One rank's gathered report (see the encoding in [`rank_main`]).
struct RankReport {
    attempted: u64,
    failed: u64,
    rss_kib: u64,
    steps: u64,
    samples: Samples,
    traced_steps: u64,
    counters: [u64; COUNTERS],
    spans: Vec<Samples>,
}

impl RankReport {
    fn decode(mut rd: &[u8], traced: bool) -> RankReport {
        let rd = &mut rd;
        let mut r = RankReport {
            attempted: take_u64(rd),
            failed: take_u64(rd),
            rss_kib: take_u64(rd),
            steps: take_u64(rd),
            samples: Samples::decode(rd),
            traced_steps: 0,
            counters: [0; COUNTERS],
            spans: Vec::new(),
        };
        if traced {
            r.traced_steps = take_u64(rd);
            for c in &mut r.counters {
                *c = take_u64(rd);
            }
            r.spans = (0..SPANS).map(|_| Samples::decode(rd)).collect();
        }
        assert!(rd.is_empty(), "trailing bytes in a rank report");
        r
    }
}
