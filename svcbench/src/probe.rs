//! Outside-in instrumentation for the traced run: wrappers around the
//! transport endpoint and the arrival estimator that count every call,
//! read the codec tag of every datagram sent, and time the calls made
//! during a fixed, deterministic sample of ticks.
//!
//! State lives in a thread-local [`Probe`]: the benchmark drives one
//! fleet on one thread, so every wrapped call of a tick lands in the same
//! probe without threading handles through the service's generics.

use rfd_core::ProcessId;
use rfd_net::bytes::Bytes;
use rfd_net::clock::Nanos;
use rfd_net::estimator::ArrivalEstimator;
use rfd_net::transport::{Datagram, Endpoint, Transport};
use std::cell::RefCell;
use std::time::Instant;

/// Frame families of the wire format, in report order. Tags 6/7 and
/// 9/10 are request/reply pairs and count as one family each; tag 8
/// (`Batch`) is a container whose sub-frames are counted instead.
pub const FRAME_KINDS: [&str; 7] = [
    "heartbeat",
    "view_change",
    "command",
    "consensus",
    "decided",
    "sync",
    "snapshot",
];

const BATCH_TAG: u8 = 8;

fn frame_kind(tag: u8) -> Option<usize> {
    match tag {
        1..=5 => Some(usize::from(tag) - 1),
        6 | 7 => Some(5),
        9 | 10 => Some(6),
        _ => None,
    }
}

/// One in this many ticks is timed call by call.
pub const SAMPLE_ONE_IN: u64 = 8;
/// One in this many timed ticks also keeps its spans.
const SPAN_ONE_IN: u64 = 32;
/// Spans kept in memory per traced pass, at most; the rest are counted.
const SPAN_CAP: usize = 300_000;

/// SplitMix64: the benchmark's only source of pseudo-randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

/// The wrapped layer boundaries.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    Send = 0,
    Recv = 1,
    Estimator = 2,
}

const CALL_NAMES: [&str; 3] = ["transport.send", "transport.recv", "estimator.call"];

/// One recorded span: wall offsets from the pass's first span, and the
/// tick (the `runner.step` span) it ran inside.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tick: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// What timing a call costs, measured before each traced pass: the
/// part of an empty timed region that falls inside the span, and the
/// whole extra cost of a timed wrapped call over a counted-only one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Overheads {
    pub inside_ns: f64,
    pub extra_ns: f64,
}

/// Frames of one datagram, by family; read off the wire tags.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    frames: [u8; 7],
    batched: u8,
    unknown: u8,
}

impl Tally {
    fn of(payload: &[u8]) -> Tally {
        let mut t = Tally::default();
        let Some(&tag) = payload.get(2) else {
            t.unknown = 1;
            return t;
        };
        if tag != BATCH_TAG {
            t.add(tag, false);
            return t;
        }
        // Batch body: count: u8 · count × (len: u16 · sub-frame), each
        // sub-frame a whole frame with its own magic and tag.
        let count = payload.get(3).copied().unwrap_or(0);
        let mut at = 4;
        for _ in 0..count {
            let (Some(&hi), Some(&lo)) = (payload.get(at), payload.get(at + 1)) else {
                t.unknown += 1;
                return t;
            };
            match payload.get(at + 4) {
                Some(&sub_tag) => t.add(sub_tag, true),
                None => t.unknown += 1,
            }
            at += 2 + usize::from(u16::from_be_bytes([hi, lo]));
        }
        t
    }

    fn add(&mut self, tag: u8, batched: bool) {
        match frame_kind(tag) {
            Some(kind) => {
                self.frames[kind] += 1;
                self.batched += u8::from(batched);
            }
            None => self.unknown += 1,
        }
    }
}

/// Counts (every call inside a cell's measured window) and timings
/// (calls inside sampled ticks).
#[derive(Debug, Default)]
pub struct Probe {
    pub sends: u64,
    pub send_bytes: u64,
    pub recv_calls: u64,
    pub recv_datagrams: u64,
    pub frames: [u64; 7],
    pub batched_frames: u64,
    pub unknown_frames: u64,
    pub observes: u64,
    pub queries: u64,
    pub sampled_ticks: u64,
    /// Per [`Call`]: timed calls and their summed span durations.
    pub sampled_calls: [u64; 3],
    pub sampled_ns: [u64; 3],
    pub sampled_recv_datagrams: u64,
    /// Sampled ticks' step time minus the wrapped spans inside them.
    pub sampled_self_ns: u64,
    pub overheads: Overheads,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    counting: bool,
    timing: bool,
    spanning: bool,
    tick: u64,
    tick_wrapped_ns: u64,
    epoch: Option<Instant>,
}

impl Probe {
    /// Every count the probe keeps (not the timings): these repeat
    /// exactly for a given seed.
    #[cfg(test)]
    pub fn counts(&self) -> Vec<u64> {
        let mut v = vec![
            self.sends,
            self.send_bytes,
            self.recv_calls,
            self.recv_datagrams,
            self.batched_frames,
            self.unknown_frames,
            self.observes,
            self.queries,
        ];
        v.extend(self.frames);
        v
    }

    fn span(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        if self.spans.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return;
        }
        let epoch = *self.epoch.get_or_insert(start);
        self.spans.push(Span {
            name,
            tick: self.tick,
            start_ns: nanos_between(epoch, start),
            dur_ns,
        });
    }

    fn add_recv(&mut self, datagrams: u64) {
        self.recv_calls += 1;
        self.recv_datagrams += datagrams;
        if self.timing {
            self.sampled_recv_datagrams += datagrams;
        }
    }

    fn add_send(&mut self, bytes: usize, tally: &Tally) {
        self.sends += 1;
        self.send_bytes += bytes as u64;
        for (total, &n) in self.frames.iter_mut().zip(&tally.frames) {
            *total += u64::from(n);
        }
        self.batched_frames += u64::from(tally.batched);
        self.unknown_frames += u64::from(tally.unknown);
    }
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

/// Runs one wrapped call: `count` records it when inside a measured
/// window, and in a sampled tick the call is timed (and maybe spanned).
fn wrapped<R>(call: Call, run: impl FnOnce() -> R, count: impl FnOnce(&mut Probe, &R)) -> R {
    let timed = PROBE.with(|p| p.borrow().timing);
    let start = timed.then(Instant::now);
    let out = run();
    let end = start.map(|_| Instant::now());
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        if p.counting {
            count(&mut p, &out);
        }
        if let (Some(start), Some(end)) = (start, end) {
            let dur = nanos_between(start, end);
            p.sampled_calls[call as usize] += 1;
            p.sampled_ns[call as usize] += dur;
            p.tick_wrapped_ns += dur;
            if p.spanning {
                p.span(CALL_NAMES[call as usize], start, dur);
            }
        }
    });
    out
}

/// Measures [`Overheads`] through the wrapped-call path itself.
fn calibrate() -> Overheads {
    const N: usize = 20_000;
    let mut inside: Vec<u64> = (0..N)
        .map(|_| {
            let start = Instant::now();
            nanos_between(start, Instant::now())
        })
        .collect();
    inside.sort_unstable();
    let loop_ns = |timing: bool| {
        PROBE.with(|p| p.borrow_mut().timing = timing);
        let start = Instant::now();
        for _ in 0..N {
            wrapped(Call::Estimator, || std::hint::black_box(()), |_, ()| {});
        }
        nanos_between(start, Instant::now()) as f64 / N as f64
    };
    // Median of a few rounds: each round is short, the host is noisy.
    let mut extra: Vec<f64> = (0..5).map(|_| loop_ns(true) - loop_ns(false)).collect();
    extra.sort_by(f64::total_cmp);
    Overheads {
        inside_ns: inside[N / 2] as f64,
        extra_ns: extra[2],
    }
}

/// Resets the probe for a new traced pass, calibrating its overheads.
pub fn reset() {
    let overheads = calibrate();
    PROBE.with(|p| {
        *p.borrow_mut() = Probe {
            overheads,
            ..Probe::default()
        };
    });
}

/// Takes the probe's state, leaving a fresh one.
pub fn take() -> Probe {
    PROBE.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Opens tick `tick` of a measured window: counting on, and timing on
/// for a fixed hash-chosen sample of ticks (a hash, so the sample cannot
/// alias with the 20-tick heartbeat cycle).
pub fn begin_tick(tick: u64) {
    let h = splitmix64(tick ^ 0x5eed_7ace);
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        p.tick = tick;
        p.counting = true;
        p.timing = h % SAMPLE_ONE_IN == 0;
        p.spanning = p.timing && (h >> 32) % SPAN_ONE_IN == 0;
        p.tick_wrapped_ns = 0;
    });
}

/// Closes a tick whose `runner.step` took `step_ns` from `start`.
pub fn end_tick(start: Instant, step_ns: u64) {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        if p.timing {
            p.sampled_ticks += 1;
            p.sampled_self_ns += step_ns.saturating_sub(p.tick_wrapped_ns);
        }
        if p.spanning {
            p.span("runner.step", start, step_ns);
        }
        p.timing = false;
        p.spanning = false;
    });
}

/// Stops counting at the end of a cell's measured window.
pub fn end_window() {
    PROBE.with(|p| p.borrow_mut().counting = false);
}

/// The traced transport: an [`Endpoint`] whose calls are counted and,
/// in sampled ticks, timed.
#[derive(Debug)]
pub struct TracedEndpoint(pub Endpoint);

impl Transport for TracedEndpoint {
    fn me(&self) -> ProcessId {
        self.0.me()
    }

    fn send(&self, to: ProcessId, payload: Bytes) {
        let bytes = payload.len();
        let tally = Tally::of(&payload);
        wrapped(
            Call::Send,
            || self.0.send(to, payload),
            |p, ()| p.add_send(bytes, &tally),
        );
    }

    fn recv(&self) -> Option<Datagram> {
        wrapped(
            Call::Recv,
            || self.0.recv(),
            |p, got| p.add_recv(u64::from(got.is_some())),
        )
    }

    fn recv_batch(&self, into: &mut Vec<Datagram>) -> usize {
        wrapped(
            Call::Recv,
            || self.0.recv_batch(into),
            |p, &got| p.add_recv(got as u64),
        )
    }
}

/// The traced estimator: forwards every call to the wrapped estimator,
/// counting observations and queries and timing them in sampled ticks.
#[derive(Clone, Debug)]
pub struct TracedEstimator<E>(pub E);

impl<E: ArrivalEstimator> ArrivalEstimator for TracedEstimator<E> {
    fn observe(&mut self, now: Nanos) {
        wrapped(
            Call::Estimator,
            || self.0.observe(now),
            |p, ()| p.observes += 1,
        );
    }

    fn deadline(&self) -> Option<Nanos> {
        wrapped(Call::Estimator, || self.0.deadline(), |p, _| p.queries += 1)
    }

    fn is_suspect(&self, now: Nanos) -> bool {
        wrapped(
            Call::Estimator,
            || self.0.is_suspect(now),
            |p, _| p.queries += 1,
        )
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        wrapped(
            Call::Estimator,
            || self.0.suspicion_level(now),
            |p, _| p.queries += 1,
        )
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_net::codec::{encode, Command, Heartbeat, ViewChange, WireMsg};

    #[test]
    fn tally_reads_single_frames_and_batch_sub_frames() {
        let command = Tally::of(&encode(&WireMsg::Command(Command { value: 7 })));
        assert_eq!(command.frames, [0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(command.batched, 0);
        let batch = Tally::of(&encode(&WireMsg::Batch(vec![
            WireMsg::Heartbeat(Heartbeat {
                sender: 1,
                seq: 2,
                sent_at: Nanos::from_millis(3),
            }),
            WireMsg::ViewChange(ViewChange {
                view_id: 4,
                members: 0b11,
            }),
            WireMsg::Command(Command { value: 9 }),
        ])));
        assert_eq!(batch.frames, [1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(batch.batched, 3);
        assert_eq!(batch.unknown, 0);
    }
}
