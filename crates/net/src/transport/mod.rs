//! Transports: datagram delivery for the heartbeat stack.
//!
//! [`InMemoryNetwork`] is a deterministic virtual-time network with
//! configurable loss, delay and partitions — the workhorse of the QoS
//! experiments. [`UdpTransport`] carries the same traffic over real
//! `UdpSocket`s for the end-to-end examples, and [`FaultyTransport`]
//! wraps any per-node transport with the fault-injection surface
//! ([`ChurnableTransport`]) the online fleet driver needs, so the same
//! crash / recover / partition schedules run over genuine OS sockets.

pub mod faulty;
pub mod memory;
pub mod udp;

pub use faulty::{faulty_cluster, FaultInjector, FaultyTransport};
pub use memory::{Endpoint, InMemoryNetwork, LossModel, NetworkConfig};
pub use udp::UdpTransport;

use crate::clock::Nanos;
use crate::codec::{decode_borrowed, WireView};
use crate::weather::WeatherDirective;
use bytes::Bytes;
use rfd_core::{ProcessId, ProcessSet};
use std::ops::ControlFlow;

/// A received datagram.
#[derive(Clone, Debug)]
pub struct Datagram {
    /// Sending node.
    pub from: ProcessId,
    /// Receiving node.
    pub to: ProcessId,
    /// Payload bytes.
    pub payload: Bytes,
    /// Delivery time (virtual networks) or receive time (UDP).
    pub delivered_at: Nanos,
}

/// A node-side transport handle.
pub trait Transport {
    /// This node's identity.
    fn me(&self) -> ProcessId;

    /// Sends `payload` to `to` (best effort — may be lost).
    fn send(&self, to: ProcessId, payload: Bytes);

    /// Receives the next available datagram, if any.
    fn recv(&self) -> Option<Datagram>;

    /// Drains every currently available datagram into `into` (appending —
    /// the caller decides when to clear), returning how many arrived.
    ///
    /// The default loops [`Transport::recv`]; implementations whose inbox
    /// sits behind a lock should override this to drain under a single
    /// acquisition. Hot loops that poll every tick want this: one
    /// `recv_batch` into a reused buffer replaces per-datagram lock
    /// round-trips and lets the caller keep one long-lived allocation.
    fn recv_batch(&self, into: &mut Vec<Datagram>) -> usize {
        let before = into.len();
        while let Some(datagram) = self.recv() {
            into.push(datagram);
        }
        into.len() - before
    }
}

/// The receive loop every node kind shares. Drains `node`'s transport
/// into its reusable receive buffer (both handed out by `inbox`),
/// decodes each datagram through the borrowed-view codec, and passes
/// every leaf frame — a [`WireView::Batch`]'s sub-frames one by one, in
/// order (batches never nest) — to `on_frame` together with its
/// datagram. Returns how many datagrams failed to decode; they reach no
/// protocol layer.
///
/// `on_frame` returning [`ControlFlow::Break`] (the node halted) ends
/// the drain on the spot: the rest of that batch and every datagram
/// after it are dropped unseen — a halted node never polls again, so
/// this matches leaving them queued.
pub(crate) fn drain_frames<N, T: Transport>(
    node: &mut N,
    inbox: impl Fn(&mut N) -> (&T, &mut Vec<Datagram>),
    mut on_frame: impl FnMut(&mut N, &Datagram, WireView<'_>) -> ControlFlow<()>,
) -> u64 {
    let (transport, buf) = inbox(node);
    let mut rx = std::mem::take(buf);
    transport.recv_batch(&mut rx);
    let mut undecodable = 0;
    for dg in rx.drain(..) {
        let Ok(frame) = decode_borrowed(&dg.payload) else {
            undecodable += 1;
            continue;
        };
        let flow = match frame {
            WireView::Batch(batch) => batch.iter().try_for_each(|sub| on_frame(node, &dg, sub)),
            leaf => on_frame(node, &dg, leaf),
        };
        if flow.is_break() {
            break;
        }
    }
    *inbox(node).1 = rx;
    undecodable
}

/// Sends `payload` from `transport` to every process of `targets` but
/// itself, in process-id order.
pub(crate) fn multicast<T: Transport>(transport: &T, targets: ProcessSet, payload: &Bytes) {
    for to in targets {
        if to != transport.me() {
            transport.send(to, payload.clone());
        }
    }
}

/// The fleet-level fault-injection surface of a transport: what the
/// fleet driver ([`crate::online::Fleet`], behind every detector,
/// membership and decision-service fleet) needs to apply a ground-truth
/// [`crate::online::FaultSchedule`].
///
/// Two implementations ship:
///
/// * [`InMemoryNetwork`] — faults act on the simulated medium itself
///   (virtual time, deterministic per seed);
/// * [`FaultInjector`] — the shared control plane of a
///   [`FaultyTransport`] cluster, muting and partitioning traffic that
///   really flows through OS sockets (wall time).
pub trait ChurnableTransport {
    /// Crashes `node`: from now on it neither sends nor receives.
    fn take_down(&self, node: ProcessId);

    /// Recovers `node` (churn): its traffic flows again. Datagrams
    /// addressed to it while it was down must not surface afterwards
    /// (implementations may also drop a datagram arriving in the brief
    /// window between recovery and the node's next receive — best-effort
    /// loss, never stale delivery).
    fn bring_up(&self, node: ProcessId);

    /// Installs a network partition between `side` and its complement;
    /// traffic within either side is unaffected. Replaces any previous
    /// partition.
    fn set_partition(&self, side: ProcessSet);

    /// Heals the active partition, if any.
    fn heal_partition(&self);

    /// Applies an adversarial-weather directive (one-way blocks,
    /// duplication, reordering, gray failure, spikes — see
    /// [`WeatherDirective`]), returning whether this control plane
    /// supports it. The default declines: only the weather-capable
    /// [`FaultInjector`] fault plane implements the full catalogue, and
    /// a schedule carrying weather over an unsupporting substrate is a
    /// driver bug the fleet driver turns into a panic rather than a
    /// silently calm run.
    fn apply_weather(&self, directive: &WeatherDirective) -> bool {
        let _ = directive;
        false
    }
}
