//! Drives one cell through `ServiceRunner::over` and reads the result
//! off the runner's public surface: its event stream, the nodes'
//! getters, the final `ServiceReport` and the network's counters.

use crate::alloc;
use crate::probe::{self, nanos_between};
use crate::reference;
use crate::workload::Cell;
use rfd_core::ProcessSet;
use rfd_net::clock::VirtualClock;
use rfd_net::estimator::ArrivalEstimator;
use rfd_net::online::Fault;
use rfd_net::service::{ServiceEvent, ServiceRunner};
use rfd_net::transport::{Endpoint, InMemoryNetwork, NetworkConfig, Transport};
use std::time::Instant;

/// What one cell produced. Virtual-time fields are in nanoseconds and
/// identical for a given cell seed; wall fields vary run to run.
#[derive(Clone, Debug, Default)]
pub struct CellOutcome {
    pub rate: u64,
    pub offered: u64,
    pub refused: u64,
    /// Due instant → held by the replica the client used.
    pub commit_ns: Vec<u64>,
    /// Due instant → held by the slowest replica live at the end.
    pub apply_all_ns: Vec<u64>,
    /// Commands their origin held by the end of the drain.
    pub decided_in_drain: u64,
    /// Commands their origin held within the workload's latency limit.
    pub within_slo: u64,
    /// Virtual span from the first command due to the last command its
    /// origin held by the end of the drain.
    pub busy_span_ns: u64,
    /// Per coordinator crash: crash → the next log index first decided
    /// at any live replica.
    pub crash_outage_ns: Vec<u64>,
    /// The longest stretch with a command outstanding (due, decided
    /// nowhere) and no decision at any replica.
    pub stall_ns: u64,
    /// Log length at the end (decided commands).
    pub decisions: u64,
    pub virtual_ns: u64,
    pub ticks: u64,
    pub pending_max: u64,
    pub retained_max: u64,
    pub retransmits: u64,
    pub duplicates: u64,
    pub malformed: u64,
    pub view_changes: u64,
    pub false_exclusions: u64,
    pub split_brain_ns: u64,
    pub transferred: u64,
    pub snapshots_installed: u64,
    pub sync_bytes: u64,
    pub rejoin_ns: Vec<u64>,
    pub net_sent: u64,
    pub net_lost: u64,
    /// Wall time: scenario + fleet construction plus the warm-up ticks.
    pub setup_ns: u64,
    /// Wall time inside `ServiceRunner::step` after the warm-up.
    pub step_ns: u64,
    /// The wall times of the measured steps.
    pub step_histogram: Histogram,
    /// Live-heap high-water mark while the cell ran, above the heap
    /// before its fleet was built.
    pub heap_peak_bytes: u64,
    /// Reference-kernel runs interleaved with the measured steps, and
    /// their summed wall time (see `reference`).
    pub reference_runs: u64,
    pub reference_ns: u64,
    /// Allocation calls inside the measured steps.
    pub step_allocations: u64,
    /// Traced cells only: each command's lifecycle span.
    pub lifecycle: Vec<Lifecycle>,
}

/// A command's lifecycle in virtual nanoseconds: due → entered its
/// origin's pool → decided there → applied at every live replica.
#[derive(Clone, Copy, Debug)]
pub struct Lifecycle {
    pub value: u64,
    pub due: u64,
    pub submitted: Option<u64>,
    pub at_origin: Option<u64>,
    pub applied_all: Option<u64>,
}

impl CellOutcome {
    /// The virtual-time results only, for determinism checks.
    pub fn virtual_fingerprint(&self) -> Vec<u64> {
        let mut v = vec![
            self.offered,
            self.refused,
            self.decided_in_drain,
            self.within_slo,
            self.busy_span_ns,
            self.stall_ns,
            self.decisions,
            self.virtual_ns,
            self.ticks,
            self.pending_max,
            self.retained_max,
            self.retransmits,
            self.duplicates,
            self.view_changes,
            self.false_exclusions,
            self.split_brain_ns,
            self.transferred,
            self.snapshots_installed,
            self.sync_bytes,
            self.net_sent,
            self.net_lost,
        ];
        for part in [
            &self.commit_ns,
            &self.apply_all_ns,
            &self.crash_outage_ns,
            &self.rejoin_ns,
        ] {
            v.push(part.len() as u64);
            v.extend(part);
        }
        v
    }
}

/// Durations in log-spaced buckets, 16 to each power of two (about 4%
/// wide): constant memory however many ticks a run takes.
#[derive(Clone, Debug)]
pub struct Histogram(Vec<u64>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    const SUB: u32 = 16;

    pub fn new() -> Self {
        Histogram(vec![0; 64 * Self::SUB as usize])
    }

    fn bucket(ns: u64) -> usize {
        if ns < u64::from(Self::SUB) {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let mantissa = (ns >> (exp - 4)) & u64::from(Self::SUB - 1);
        ((exp - 3) * Self::SUB) as usize + mantissa as usize
    }

    /// The middle of bucket `b`.
    fn value(b: usize) -> f64 {
        let sub = Self::SUB as usize;
        if b < sub {
            return b as f64;
        }
        let (exp, mantissa) = (b / sub + 3, b % sub);
        ((2 * (sub + mantissa) + 1) as f64 / 2.0) * (1u64 << (exp - 4)) as f64
    }

    pub fn record(&mut self, ns: u64) {
        self.0[Self::bucket(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine += theirs;
        }
    }

    /// Nearest-rank percentile, as the middle of its bucket; `0` when
    /// empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let total: u64 = self.0.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &count) in self.0.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::value(b);
            }
        }
        0.0
    }
}

/// Step time between two runs of the reference kernel: often enough to
/// follow the host's speed through a pass, rare enough to cost ~2%.
const REFERENCE_EVERY_NS: u64 = 50_000_000;

/// Per command (value `v` at index `v - 1`): due instant, origin and
/// the decision times the metrics need.
#[derive(Clone, Copy, Debug, Default)]
struct Command {
    due: u64,
    origin: usize,
    /// The tick the command entered its origin's pending pool.
    submitted: Option<u64>,
    index: Option<u64>,
    /// First decision at any replica.
    decided: Option<u64>,
}

/// Runs `cell` over wrapped endpoints; `wrap` turns each in-memory
/// endpoint into the transport handed to the fleet. Fails with a
/// message when the correctness gate does not hold.
pub fn run_cell<E, T>(
    build: impl FnOnce() -> Cell,
    prototype: E,
    wrap: impl Fn(Endpoint) -> T,
    traced: bool,
) -> Result<CellOutcome, String>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
{
    let setup_start = Instant::now();
    let cell = build();
    let n = cell.scenario.online.n;
    let mut commands: Vec<Command> = cell
        .scenario
        .commands
        .iter()
        .map(|&(at, origin, _)| Command {
            due: at.as_nanos(),
            origin: origin.index(),
            ..Command::default()
        })
        .collect();
    let mut out = CellOutcome {
        rate: cell.rate,
        offered: commands.len() as u64,
        step_histogram: Histogram::new(),
        ..CellOutcome::default()
    };
    // The benchmark's own bookkeeping is allocated; the fleet is not.
    let heap_base = alloc::reset_peak();
    let clock = VirtualClock::new();
    let config =
        NetworkConfig::reliable(cell.scenario.online.delay.0, cell.scenario.online.delay.1)
            .with_loss(cell.scenario.online.loss)
            .with_seed(cell.scenario.online.seed);
    let net = InMemoryNetwork::new(n, config, clock.clone());
    let endpoints = ProcessSet::full(n)
        .iter()
        .map(|pid| wrap(net.endpoint(pid)))
        .collect();
    let mut runner = ServiceRunner::over(
        prototype,
        cell.scenario.clone(),
        endpoints,
        net.clone(),
        clock,
    );
    let mut tracker = Tracker::new(n);
    while runner.now() < cell.first_due {
        let now = runner.now().as_nanos();
        let Some(events) = runner.step() else { break };
        tracker.observe(&events, now, &mut commands)?;
    }
    out.setup_ns = nanos_between(setup_start, Instant::now());

    // The measured window: from the first command due until the fleet
    // is quiescent after the drain (or the settle cap runs out).
    let drain_end = cell.drain_end.as_nanos();
    let mut tick = 0;
    let mut since_reference = REFERENCE_EVERY_NS;
    loop {
        if since_reference >= REFERENCE_EVERY_NS {
            let peak = alloc::peak_bytes();
            out.reference_ns += reference::kernel_ns();
            alloc::restore_peak(peak);
            out.reference_runs += 1;
            since_reference = 0;
        }
        let now = runner.now().as_nanos();
        if traced {
            probe::begin_tick(tick);
        }
        let allocs_before = alloc::allocations();
        let start = Instant::now();
        let events = runner.step();
        let dur = nanos_between(start, Instant::now());
        out.step_allocations += alloc::allocations() - allocs_before;
        if traced {
            probe::end_tick(start, dur);
        }
        let Some(events) = events else { break };
        out.step_ns += dur;
        since_reference += dur;
        out.step_histogram.record(dur);
        tick += 1;
        tracker.observe(&events, now, &mut commands)?;
        let mut quiescent = true;
        let mut live_len = None;
        for ix in 0..n {
            let node = runner.node(ix);
            out.pending_max = out.pending_max.max(node.pending() as u64);
            out.retained_max = out.retained_max.max(node.log().entries().len() as u64);
            let len = node.log().len();
            let growth = &mut tracker.growth[ix];
            if growth.last().map_or(0, |&(l, _)| l) < len {
                growth.push((len, now));
            }
            if !tracker.down[ix] && !node.is_halted() {
                quiescent &= node.pending() == 0 && *live_len.get_or_insert(len) == len;
            }
        }
        if now >= drain_end && quiescent {
            break;
        }
    }
    out.heap_peak_bytes = alloc::peak_bytes().saturating_sub(heap_base);
    if traced {
        probe::end_window();
    }
    out.ticks = tick;
    out.virtual_ns = runner.now().as_nanos() - cell.first_due.as_nanos();

    // The correctness gate.
    let report = runner.report();
    if !report.agreement_holds() {
        return Err("replicas disagree on a decided index".into());
    }
    if !report.live_logs_converged() {
        return Err("live replicas' logs did not converge".into());
    }
    if report.membership.decisions_lost != 0 {
        return Err(format!(
            "{} decisions lost in state transfer",
            report.membership.decisions_lost
        ));
    }
    out.malformed = (0..n).map(|ix| runner.node(ix).malformed_frames()).sum();
    if out.malformed != 0 {
        return Err(format!("{} malformed frames", out.malformed));
    }

    // A replica holds a command once its log (compacted prefix
    // included) reaches past the command's index, however the entry got
    // there: decided, relayed, transferred or covered by a snapshot.
    let held_at = |ix: usize, index: u64| {
        let growth = &tracker.growth[ix];
        growth
            .get(growth.partition_point(|&(len, _)| len <= index))
            .map(|&(_, at)| at)
    };
    let live: Vec<usize> = (0..n)
        .filter(|&ix| report.up[ix] && !report.halted[ix])
        .collect();
    let first_due = commands.iter().map(|c| c.due).min().unwrap_or(0);
    let slo = cell.slo.as_nanos();
    let mut last_in_drain = first_due;
    for (value, c) in (1..).zip(&commands) {
        if c.submitted.is_none() {
            out.refused += 1;
        }
        let at_origin = c.index.and_then(|index| held_at(c.origin, index));
        let applied_all = c.index.and_then(|index| {
            live.iter()
                .map(|&ix| held_at(ix, index))
                .collect::<Option<Vec<_>>>()
                .and_then(|times| times.into_iter().max())
        });
        if let Some(at) = at_origin {
            out.commit_ns.push(at - c.due);
            if at <= drain_end {
                out.decided_in_drain += 1;
                last_in_drain = last_in_drain.max(at);
            }
            if at - c.due <= slo {
                out.within_slo += 1;
            }
        }
        if let Some(at) = applied_all {
            out.apply_all_ns.push(at - c.due);
        }
        if traced {
            out.lifecycle.push(Lifecycle {
                value,
                due: c.due,
                submitted: c.submitted,
                at_origin,
                applied_all,
            });
        }
    }
    out.busy_span_ns = last_in_drain - first_due;
    out.decisions = report.decided_len();

    // Outages, from each index's first decision at any replica.
    let mut first_decisions: Vec<u64> = commands.iter().filter_map(|c| c.decided).collect();
    first_decisions.sort_unstable();
    for crash in &cell.coordinator_crashes {
        let c = crash.as_nanos();
        let k = first_decisions.partition_point(|&t| t <= c);
        if let Some(&next) = first_decisions.get(k) {
            out.crash_outage_ns.push(next - c);
        }
    }
    for c in &commands {
        let Some(decided) = c.decided else { continue };
        let k = first_decisions.partition_point(|&t| t < decided);
        let since = k
            .checked_sub(1)
            .map_or(c.due, |prev| first_decisions[prev].max(c.due));
        out.stall_ns = out.stall_ns.max(decided.saturating_sub(since));
    }

    let m = &report.membership;
    out.retransmits = m.retransmits_sent;
    out.duplicates = m.duplicate_frames_dropped;
    out.view_changes = m.view_changes;
    out.false_exclusions = m.false_exclusions.len() as u64;
    out.split_brain_ns = m.split_brain_duration.as_nanos();
    out.transferred = m.decisions_transferred;
    out.sync_bytes = m.sync_bytes_sent;
    out.rejoin_ns = m.rejoin_latencies.iter().map(|t| t.as_nanos()).collect();
    out.snapshots_installed = (0..n)
        .map(|ix| runner.node(ix).log().snapshots_installed())
        .sum();
    let (sent, lost, _) = net.stats();
    out.net_sent = sent;
    out.net_lost = lost;
    Ok(out)
}

/// Event bookkeeping across the ticks of one cell.
struct Tracker {
    /// Per node: `(log length, virtual time)` each time it grew.
    growth: Vec<Vec<(u64, u64)>>,
    /// Per node, per command: whether the node has decided it.
    decided: Vec<Vec<bool>>,
    /// Per node: crashed (ground truth, from the fault events).
    down: Vec<bool>,
}

impl Tracker {
    fn new(n: usize) -> Self {
        Tracker {
            growth: vec![Vec::new(); n],
            decided: vec![Vec::new(); n],
            down: vec![false; n],
        }
    }

    fn observe(
        &mut self,
        events: &[ServiceEvent],
        now: u64,
        commands: &mut [Command],
    ) -> Result<(), String> {
        for event in events {
            match event {
                ServiceEvent::Submitted { value, .. } => {
                    command(commands, *value)?.submitted = Some(now);
                }
                ServiceEvent::Decided { node, decision, .. } => {
                    let c = command(commands, decision.value)?;
                    if c.submitted.is_none() {
                        return Err(format!(
                            "value {} decided but never submitted",
                            decision.value
                        ));
                    }
                    match c.index {
                        None => {
                            c.index = Some(decision.index);
                            c.decided = Some(now);
                        }
                        Some(index) if index != decision.index => {
                            return Err(format!("value {} decided at two indices", decision.value));
                        }
                        Some(_) => {}
                    }
                    let seen = &mut self.decided[node.index()];
                    let slot = usize::try_from(decision.value - 1).expect("value");
                    if seen.len() <= slot {
                        seen.resize(slot + 1, false);
                    }
                    if std::mem::replace(&mut seen[slot], true) {
                        return Err(format!("{node} decided value {} twice", decision.value));
                    }
                }
                ServiceEvent::Fault { fault, .. } => match fault {
                    Fault::Crash(p) => self.down[p.index()] = true,
                    Fault::Recover(p) => self.down[p.index()] = false,
                    _ => {}
                },
                ServiceEvent::ViewInstalled { .. }
                | ServiceEvent::Transferred { .. }
                | ServiceEvent::SyncServed { .. }
                | ServiceEvent::SnapshotInstalled { .. } => {}
            }
        }
        Ok(())
    }
}

fn command(commands: &mut [Command], value: u64) -> Result<&mut Command, String> {
    usize::try_from(value)
        .ok()
        .and_then(|v| v.checked_sub(1))
        .and_then(|ix| commands.get_mut(ix))
        .ok_or_else(|| format!("value {value} was never offered"))
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
