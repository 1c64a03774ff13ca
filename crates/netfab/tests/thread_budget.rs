//! Thread-budget contract of netfab, counted against the live process
//! via `/proc/self/task`.
//!
//! Each node runs exactly one IO thread, regardless of cluster size: one
//! `netfab-ev*` loop thread reads every peer socket — reconnect
//! handshakes included, since both sides run as nonblocking state
//! machines on the loop itself (no transient dial/handshake helper
//! threads) — and senders write their own small frames, so there is no
//! writer thread either.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use armci_netfab::NodeFabric;
use armci_transport::{Endpoint, Mailbox, ProcId, Tag, Topology};

/// Names of live threads in this process that belong to a netfab fabric.
/// (`/proc` comm names are truncated to 15 bytes — long enough for every
/// netfab thread name at these node counts.)
fn netfab_threads() -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let mut path = entry.expect("task dir entry").path();
        path.push("comm");
        // A thread may exit between readdir and this read; skip the hole.
        if let Ok(name) = std::fs::read_to_string(&path) {
            let name = name.trim();
            if name.starts_with("netfab-") {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// The node index embedded in a netfab thread name: the first digit run
/// after the role tag (`netfab-ev3`, …).
fn node_of(name: &str) -> u32 {
    let tail = name.trim_start_matches("netfab-").trim_start_matches(|c: char| c.is_ascii_alphabetic());
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().unwrap_or_else(|_| panic!("unparseable netfab thread name {name:?}"))
}

fn per_node_counts(names: &[String]) -> HashMap<u32, usize> {
    let mut counts = HashMap::new();
    for n in names {
        *counts.entry(node_of(n)).or_insert(0) += 1;
    }
    counts
}

/// Prove every cross-node link is live: each rank sends one frame to
/// rank 0, which drains them all.
fn exchange(fabrics: &mut [NodeFabric], nodes: u32) {
    let mut boxes: Vec<Mailbox> = fabrics.iter_mut().enumerate().map(|(i, f)| f.take_proc(ProcId(i as u32))).collect();
    let mut root = boxes.remove(0);
    for (i, mb) in boxes.iter_mut().enumerate() {
        mb.send(Endpoint::Proc(ProcId(0)), Tag(7), vec![i as u8]);
    }
    for _ in 1..nodes {
        root.recv().expect("root recv");
    }
}

fn shutdown_all(fabrics: Vec<NodeFabric>) {
    let handles: Vec<_> = fabrics.into_iter().map(|f| std::thread::spawn(move || f.shutdown())).collect();
    for h in handles {
        h.join().expect("shutdown runner");
    }
}

fn wait_for_drain() {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = netfab_threads();
        if left.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "netfab threads leaked after shutdown: {left:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One #[test]: thread counting is process-global, so nothing else may
/// build a fabric concurrently.
#[test]
fn one_io_thread_per_node() {
    // 16 loopback nodes in this one process.
    let nodes = 16u32;
    let topo = Topology::new(nodes, 1);
    let mut fabrics = NodeFabric::loopback(&topo, false).expect("loopback fabric");
    exchange(&mut fabrics, nodes);

    let names = netfab_threads();
    let ev = names.iter().filter(|n| n.starts_with("netfab-ev")).count();
    assert_eq!(ev, nodes as usize, "one loop thread per node, found {names:?}");
    for (node, count) in per_node_counts(&names) {
        assert_eq!(count, 1, "node {node} must run exactly one IO thread: {names:?}");
    }
    shutdown_all(fabrics);
    wait_for_drain();
}
