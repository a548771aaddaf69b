//! Hot-path throughput benches: messages/sec and ns/tick for the
//! runtime's steady-state loops — detector drain, membership tick,
//! codec round-trip, service slot advance — and the per-call cost of the
//! arrival estimators they consult.
//!
//! This is the tracked family behind the allocation-free hot-path work:
//! `BENCH_baseline.json` holds the pre-optimization numbers,
//! `BENCH_pr6.json` the post-optimization ones, and `BENCH_pr10.json`
//! the post-retransmission-plane re-capture (the no-retry fast path
//! must stay free), and `BENCH_pr13.json` the `estimator` group before
//! and after estimators moved their work from queries into `observe`,
//! captured with
//! `RFD_BENCH_JSON=<path> cargo bench -p rfd-bench --bench bench_throughput`.
//!
//! **Size semantics.** `ProcessSet` is a `u128` bitset, so fleets cap at
//! 128 processes. The `64`/`1k`/`8k` sizes of `detector_drain` and
//! `service_slot_advance` are therefore *messages per drain* and *slots
//! per advance* — the fan-in a node must absorb per poll, which is what
//! heartbeat-processing throughput is about — while `membership_tick`
//! sizes are genuine fleet sizes (4/16/64 nodes).

use criterion::{
    black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput,
};
use rfd_algo::consensus::{RotatingConsensus, RotatingMsg};
use rfd_algo::driver::SlotDriver;
use rfd_core::{ProcessId, ProcessSet};
use rfd_net::bytes::BytesMut;
use rfd_net::clock::{Nanos, VirtualClock};
use rfd_net::codec::{decode, decode_borrowed, encode, encode_into, Heartbeat, SyncReply, WireMsg};
use rfd_net::estimator::{
    ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
};
use rfd_net::membership::MembershipNode;
use rfd_net::transport::{InMemoryNetwork, NetworkConfig, Transport};
use rfd_net::DetectorNode;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn size_id(k: usize) -> &'static str {
    match k {
        64 => "64",
        1024 => "1k",
        8192 => "8k",
        other => unreachable!("unnamed bench size {other}"),
    }
}

/// Encode/decode round trips — the owned API and the zero-copy one
/// (`encode_into` over a reused buffer + `decode_borrowed`) side by
/// side, so the allocation-elision delta is visible in one run.
fn bench_codec_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_roundtrip");
    group.throughput(Throughput::Elements(1));
    let hb = WireMsg::Heartbeat(Heartbeat {
        sender: 3,
        seq: 99,
        sent_at: Nanos::from_millis(1234),
    });
    group.bench_function("heartbeat_owned", |b| {
        b.iter(|| {
            let payload = encode(&hb);
            decode(&payload).expect("round trip")
        });
    });
    group.bench_function("heartbeat_borrowed", |b| {
        let mut buf = BytesMut::new();
        b.iter(|| {
            encode_into(&hb, &mut buf);
            match decode_borrowed(&buf).expect("round trip") {
                rfd_net::codec::WireView::Heartbeat(view) => view.seq,
                _ => unreachable!("heartbeat decodes as heartbeat"),
            }
        });
    });
    let sync = WireMsg::SyncReply(SyncReply {
        start: 7,
        entries: (0..8).map(|i| (i, i * 2, 1u128 << i)).collect(),
    });
    group.bench_function("sync_reply_owned", |b| {
        b.iter(|| {
            let payload = encode(&sync);
            decode(&payload).expect("round trip")
        });
    });
    group.bench_function("sync_reply_borrowed", |b| {
        let mut buf = BytesMut::new();
        b.iter(|| {
            encode_into(&sync, &mut buf);
            match decode_borrowed(&buf).expect("round trip") {
                rfd_net::codec::WireView::SyncReply(view) => view.len(),
                _ => unreachable!("sync reply decodes as sync reply"),
            }
        });
    });
    group.finish();
}

/// One node absorbing a fan-in of `k` queued heartbeats in a single
/// poll: the receive-side hot path (transport drain + decode + estimator
/// observe). Setup (filling the inbox) runs outside the timed window.
fn bench_detector_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_drain");
    let n = 64usize;
    for k in [64usize, 1024, 8192] {
        let clock = VirtualClock::new();
        // Fixed delay and zero loss: the RNG is never consulted, so the
        // workload is identical run to run.
        let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(1));
        let net = InMemoryNetwork::new(n, config, clock.clone());
        let senders: Vec<_> = (1..n).map(|ix| net.endpoint(p(ix))).collect();
        let payloads: Vec<_> = (1..n)
            .map(|ix| {
                encode(&WireMsg::Heartbeat(Heartbeat {
                    sender: ix as u16,
                    seq: 1,
                    sent_at: Nanos::ZERO,
                }))
            })
            .collect();
        // A period the run never reaches again after the first poll:
        // the bench measures the drain, not the node's own fan-out.
        let mut node = DetectorNode::new(
            n,
            FixedTimeout::new(Nanos::from_millis(100)),
            net.endpoint(p(0)),
            clock.clone(),
            Nanos::from_nanos(u64::MAX),
        );
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("drain", size_id(k)), &k, |b, &k| {
            b.iter_batched(
                || {
                    for j in 0..k {
                        let s = j % (n - 1);
                        senders[s].send(p(0), payloads[s].clone());
                    }
                    clock.advance(Nanos::from_millis(2));
                },
                |()| node.poll(),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// A whole membership fleet advancing one heartbeat period per
/// iteration, in steady state *after* a view change — so the acting
/// coordinator re-announces its view every period, exercising the
/// multi-frame send path that heartbeat coalescing collapses.
fn bench_membership_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership_tick");
    for n in [4usize, 16, 64] {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(1));
        let net = InMemoryNetwork::new(n, config, clock.clone());
        let period = Nanos::from_millis(50);
        let mut nodes: Vec<_> = (0..n)
            .map(|ix| {
                MembershipNode::new(
                    n,
                    FixedTimeout::new(Nanos::from_millis(150)),
                    net.endpoint(p(ix)),
                    clock.clone(),
                    period,
                )
            })
            .collect();
        // Let everyone observe everyone (a process that never heartbeats
        // is never suspected — there is no arrival to time out against),
        // then crash the highest-index node and run until the coordinator
        // has excluded it: from here on every period carries heartbeats
        // plus a view re-announcement.
        for _ in 0..5 {
            for node in &mut nodes {
                node.poll();
            }
            clock.advance(period);
        }
        net.take_down(p(n - 1));
        for _ in 0..100 {
            if nodes[0].views_installed() >= 1 {
                break;
            }
            for node in nodes.iter_mut().take(n - 1) {
                node.poll();
            }
            clock.advance(period);
        }
        assert!(
            nodes[0].views_installed() >= 1,
            "warm-up must reach the announcing steady state"
        );
        let alive = n - 1;
        group.throughput(Throughput::Elements(alive as u64));
        group.bench_with_input(BenchmarkId::new("tick", n), &n, |b, _| {
            b.iter(|| {
                for node in nodes.iter_mut().take(alive) {
                    node.poll();
                }
                clock.advance(period);
            });
        });
    }
    group.finish();
}

/// A single-process cluster deciding `k` consecutive log slots through
/// the slot driver: open, self-delivered consensus traffic, decision
/// retirement — the storage-layer hot path of the decision service.
fn bench_service_slot_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_slot_advance");
    let me = p(0);
    for k in [64u64, 1024, 8192] {
        group.throughput(Throughput::Elements(k));
        #[allow(clippy::cast_possible_truncation)]
        let id = BenchmarkId::new("advance", size_id(k as usize));
        group.bench_with_input(id, &k, |b, &k| {
            b.iter(|| {
                let mut driver: SlotDriver<RotatingConsensus<u64>> = SlotDriver::new(me, 1);
                for slot in 0..k {
                    let (sends, mut decided) = driver.open(slot, slot, ProcessSet::empty());
                    // FIFO delivery: popping LIFO would starve the
                    // round-0 ack behind the round-chasing estimates and
                    // spin each slot through the core's round cap.
                    let mut queue: std::collections::VecDeque<(ProcessId, u64, RotatingMsg<u64>)> =
                        sends.into();
                    while decided.is_none() {
                        let (_, s, msg) = queue
                            .pop_front()
                            .expect("a 1-process slot decides via self-sends");
                        let (more, d) = driver.on_message(s, me, &msg, ProcessSet::empty());
                        queue.extend(more);
                        decided = d;
                    }
                }
                driver.decision(k - 1).copied()
            });
        });
    }
    group.finish();
}

/// One estimator of each kind, in the zoo's configuration, with its
/// sliding window at capacity.
fn estimator_zoo() -> Vec<Box<dyn ArrivalEstimator>> {
    let bootstrap = Nanos::from_millis(400);
    let mut zoo: Vec<Box<dyn ArrivalEstimator>> = vec![
        Box::new(FixedTimeout::new(Nanos::from_millis(300))),
        Box::new(ChenEstimator::new(Nanos::from_millis(60), 16, bootstrap)),
        Box::new(JacobsonEstimator::new(4.0, bootstrap)),
        Box::new(PhiAccrual::new(3.0, 16, bootstrap)),
    ];
    for est in &mut zoo {
        for k in 0..32 {
            est.observe(jittered_arrival(k));
        }
    }
    zoo
}

/// The `k`-th arrival of a 95–104 ms jittered heartbeat stream.
fn jittered_arrival(k: u64) -> Nanos {
    Nanos::from_millis(k * 100 + (k * 7) % 10)
}

/// Per-call cost of each estimator: `observe` (one heartbeat arrival,
/// window at capacity) and `deadline` (the freshness-point query the
/// membership tick and the service's retransmission timeout make for
/// every peer on every poll).
fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");
    group.throughput(Throughput::Elements(1));
    for mut est in estimator_zoo() {
        let name = est.name();
        let mut k = 32;
        group.bench_function(&format!("observe/{name}"), |b| {
            b.iter(|| {
                est.observe(jittered_arrival(k));
                k += 1;
            });
        });
        group.bench_function(&format!("deadline/{name}"), |b| {
            b.iter(|| black_box(&est).deadline());
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = configured();
    targets =
        bench_codec_roundtrip,
        bench_detector_drain,
        bench_membership_tick,
        bench_service_slot_advance,
        bench_estimator
}
criterion_main!(benches);
