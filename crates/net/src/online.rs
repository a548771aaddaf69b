//! The online detection runtime: long-running scenarios under **churn**
//! (crash / recover / partition schedules), observed incrementally.
//!
//! The batch QoS harness ([`crate::qos::evaluate_qos`]) runs a two-node
//! scenario to completion and finalizes the metrics post hoc — exactly
//! the "inspect the corpse" style the paper's §1.3 says practitioners do
//! *not* deploy. This module is the long-running service counterpart:
//!
//! * [`FaultSchedule`] / [`Fault`] — a ground-truth timeline of crashes,
//!   recoveries and network partitions;
//! * [`Fleet`] — the one resumable fleet driver: `n` nodes of one kind
//!   ([`FleetNode`]) advanced one sample tick at a time through the
//!   fault schedule, yielding typed events. Aliases name its kinds:
//!   [`OnlineRunner`] (heartbeating [`DetectorNode`]s, each observer–
//!   target pair scored live by a [`QosMonitor`], optionally shadowed by
//!   a batch [`QosTracker`] for experiment E11's exact-equality gate),
//!   [`MembershipRunner`] (a [`MembershipNode`] fleet observed by a
//!   [`MembershipWatcher`]: exclusion latency per crash, false
//!   exclusions, view changes, split-brain duration and post-heal
//!   reconvergence) and [`ServiceRunner`](crate::service::ServiceRunner)
//!   (the replicated decision service, one layer up).
//!
//! The driver is generic over the execution substrate, so one scenario
//! runs deterministically on the simulated network ([`Fleet::new`]),
//! under adversarial weather ([`Fleet::weather`], see [`crate::weather`])
//! *and* in wall time over real UDP sockets wrapped in
//! [`crate::transport::FaultyTransport`] ([`Fleet::over`]; see
//! `examples/udp_churn.rs`).

use crate::clock::{Clock, ClockSkew, Nanos, Pacer, SkewedClock, VirtualClock};
use crate::detector::DetectorNode;
use crate::estimator::ArrivalEstimator;
use crate::membership::{MembershipNode, View};
use crate::qos::{QosMonitor, QosReport, QosTracker};
use crate::transport::{ChurnableTransport, Endpoint, InMemoryNetwork, Transport};
use crate::weather::{memory_network, WeatherDirective};
use rfd_core::{ProcessId, ProcessSet};
use std::fmt::Debug;
use std::ops::Range;

/// One ground-truth fault injection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The process stops: no sends, no receives, no steps.
    Crash(ProcessId),
    /// The process resumes from its pre-crash state (churn).
    Recover(ProcessId),
    /// A network partition between `side` and its complement.
    Partition(ProcessSet),
    /// The active partition heals.
    Heal,
    /// An adversarial-weather mutation of the fault plane (one-way
    /// blocks, duplication, reordering, gray failure, spikes — see
    /// [`crate::weather`]). Requires a weather-capable
    /// [`ChurnableTransport`]; applying it to one that declines
    /// ([`ChurnableTransport::apply_weather`] returns `false`) panics
    /// the driver rather than running a silently calm scenario.
    Weather(WeatherDirective),
}

/// A time-ordered ground-truth schedule of [`Fault`]s.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<(Nanos, Fault)>,
}

impl FaultSchedule {
    /// An empty (fault-free) schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at time `at` (builder style). Events may be added in
    /// any order; the schedule keeps them sorted by time (stable for
    /// equal times).
    #[must_use]
    pub fn at(mut self, at: Nanos, fault: Fault) -> Self {
        self.events.push((at, fault));
        self.events.sort_by_key(|(t, _)| *t);
        self
    }

    /// The scheduled events, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[(Nanos, Fault)] {
        &self.events
    }

    /// The process's **final** crash time: the last `Crash` not followed
    /// by a `Recover`. This is the crash the Chen–Toueg–Aguilera metrics
    /// judge against — earlier crash/recover cycles are transient churn,
    /// visible to the detector only as (correctly penalized) mistakes.
    #[must_use]
    pub fn final_crash(&self, target: ProcessId) -> Option<Nanos> {
        let mut crash = None;
        for (at, fault) in &self.events {
            match fault {
                Fault::Crash(p) if *p == target => crash = Some(*at),
                Fault::Recover(p) if *p == target => crash = None,
                _ => {}
            }
        }
        crash
    }

    /// The first crash time of `target`, if any (what a membership
    /// exclusion latency is measured from).
    #[must_use]
    pub fn first_crash(&self, target: ProcessId) -> Option<Nanos> {
        self.events.iter().find_map(|(at, fault)| match fault {
            Fault::Crash(p) if *p == target => Some(*at),
            _ => None,
        })
    }
}

/// Parameters of an online (long-running) detection scenario.
#[derive(Clone, Debug)]
pub struct OnlineScenario {
    /// Number of processes (all heartbeat all).
    pub n: usize,
    /// Heartbeat period.
    pub period: Nanos,
    /// Independent datagram loss probability.
    pub loss: f64,
    /// One-way delay bounds.
    pub delay: (Nanos, Nanos),
    /// Total observation duration.
    pub duration: Nanos,
    /// The sampling/poll tick.
    pub sample_every: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Ground-truth fault schedule.
    pub schedule: FaultSchedule,
    /// Whether a membership fleet reconciles split-brain views after a
    /// partition heals (see
    /// [`MembershipNode::with_heal_merge`](crate::membership::MembershipNode::with_heal_merge)).
    /// Off by default: the classic §1.3 service split-brains by design —
    /// exclusion is forever. Read by the membership and service fleets
    /// ([`MembershipRunner`], [`ServiceRunner`](crate::service::ServiceRunner));
    /// the detector fleet of [`OnlineRunner`] has no views to merge.
    pub heal_merge: bool,
    /// Per-node clock skew rates (index = process id), identity where
    /// absent or empty. Every node's local clock — heartbeat pacing,
    /// timeout arithmetic, arrival stamps — runs through a
    /// [`SkewedClock`] at its rate while the driver keeps ticking in
    /// unskewed time, so a skewed node is locally honest but globally
    /// fast or slow. Populated by
    /// [`Weather::apply_to`](crate::weather::Weather::apply_to).
    pub skews: Vec<ClockSkew>,
}

impl Default for OnlineScenario {
    fn default() -> Self {
        Self {
            n: 4,
            period: Nanos::from_millis(100),
            loss: 0.0,
            delay: (Nanos::from_millis(2), Nanos::from_millis(10)),
            duration: Nanos::from_millis(30_000),
            sample_every: Nanos::from_millis(5),
            seed: 0,
            schedule: FaultSchedule::new(),
            heal_merge: false,
            skews: Vec::new(),
        }
    }
}

/// A typed event yielded by [`OnlineRunner::step`] and
/// [`MembershipRunner::step`].
#[derive(Clone, Debug)]
pub enum OnlineEvent {
    /// A scheduled fault took effect.
    Fault {
        /// Injection time (the tick at which it was applied).
        at: Nanos,
        /// The fault.
        fault: Fault,
    },
    /// An observer's verdict about a target flipped.
    Suspicion {
        /// The observing process.
        observer: ProcessId,
        /// The judged process.
        target: ProcessId,
        /// When the transition was observed.
        at: Nanos,
        /// The new verdict (`true` = suspect).
        suspected: bool,
    },
}

pub(crate) mod sealed {
    /// Closes [`super::FleetNode`]: the crate's three node kinds are the
    /// only ones.
    pub trait Sealed {}
}

/// A node kind the [`Fleet`] driver runs: how one node is spawned from
/// the scenario, its node loop, and the kind's part of each tick.
/// Implemented by [`DetectorNode`], [`MembershipNode`] and
/// [`DecisionService`](crate::service::DecisionService) only (sealed).
pub trait FleetNode: Sized + sealed::Sealed {
    /// The estimator every node clones.
    type Prototype: Clone;
    /// The per-node transport.
    type Transport: Transport;
    /// The node's clock: the driver clock behind a [`SkewedClock`].
    type Clock;
    /// The scenario a fleet of this kind runs.
    type Scenario: Debug;
    /// The driver's books on the fleet (QoS monitors, a membership
    /// watcher, the client command queue).
    type Book: Debug;
    /// A typed event yielded by [`Fleet::step`].
    type Event;

    /// The fleet, network and fault-schedule parameters.
    fn online(scenario: &Self::Scenario) -> &OnlineScenario;
    /// Builds one node of the scenario's fleet.
    fn spawn(
        prototype: Self::Prototype,
        transport: Self::Transport,
        clock: Self::Clock,
        scenario: &Self::Scenario,
    ) -> Self;
    /// Opens the books for a fresh run. The service kind moves the
    /// scenario's client commands into its book here.
    fn open_book(scenario: &mut Self::Scenario) -> Self::Book;
    /// Runs one iteration of the node loop and books what it yields.
    fn poll(&mut self, book: &mut Self::Book, now: Nanos, events: &mut Vec<Self::Event>);
    /// The kind's part of one tick, once the driver has applied the
    /// tick's faults (the schedule entries at `faults`) to the network:
    /// book the faults, poll every live node, book the fleet's state.
    fn tick<C, N>(
        fleet: &mut Fleet<Self, C, N>,
        now: Nanos,
        faults: Range<usize>,
        events: &mut Vec<Self::Event>,
    );
    /// The node's membership view; `None` for a bare detector.
    fn view(&self) -> Option<View> {
        None
    }
    /// Whether the node halted on learning of its exclusion.
    fn is_halted(&self) -> bool {
        false
    }
}

/// A resumable fleet under churn: call [`Fleet::step`] per sample tick
/// (or [`Fleet::run_to_end`]); each tick applies the faults due, lets
/// the kind inject its inputs, polls every live node, books the results
/// and paces the clock to the next tick.
///
/// Generic over the node kind `Nd` ([`FleetNode`]) and the substrate:
/// the per-node [`Transport`], the [`Pacer`] clock `C` that drives the
/// ticks ([`VirtualClock`] jumps instantly and deterministically,
/// [`crate::clock::SystemClock`] genuinely sleeps between ticks) and the
/// [`ChurnableTransport`] fault plane `N` the schedule acts on.
#[derive(Debug)]
pub struct Fleet<Nd: FleetNode, C = VirtualClock, N = InMemoryNetwork> {
    pub(crate) scenario: Nd::Scenario,
    pub(crate) book: Nd::Book,
    clock: C,
    pub(crate) net: N,
    /// Each node's clock is the driver clock seen through that node's
    /// [`ClockSkew`] (identity unless the scenario skews it).
    pub(crate) nodes: Vec<Nd>,
    pub(crate) up: Vec<bool>,
    next_fault: usize,
    stepped: bool,
    done: bool,
}

/// The detector fleet: heartbeating [`DetectorNode`]s scored live by one
/// [`QosMonitor`] per ordered observer–target pair.
///
/// # Examples
///
/// ```
/// use rfd_core::ProcessId;
/// use rfd_net::clock::Nanos;
/// use rfd_net::estimator::ChenEstimator;
/// use rfd_net::online::{Fault, FaultSchedule, OnlineRunner, OnlineScenario};
///
/// let ms = Nanos::from_millis;
/// let target = ProcessId::new(1);
/// let scenario = OnlineScenario {
///     n: 2,
///     duration: ms(10_000),
///     schedule: FaultSchedule::new().at(ms(5_000), Fault::Crash(target)),
///     ..OnlineScenario::default()
/// };
/// let mut runner = OnlineRunner::new(ChenEstimator::new(ms(50), 32, ms(500)), scenario);
/// while let Some(_events) = runner.step() { /* react live */ }
/// let report = runner.report(ProcessId::new(0), target).unwrap();
/// assert!(report.detection_time.is_some(), "the crash was detected");
/// ```
pub type OnlineRunner<E, T = Endpoint, C = VirtualClock, N = InMemoryNetwork> =
    Fleet<DetectorNode<E, T, SkewedClock<C>>, C, N>;

/// The membership fleet: [`MembershipNode`]s observed by a
/// [`MembershipWatcher`].
pub type MembershipRunner<E, T = Endpoint, C = VirtualClock, N = InMemoryNetwork> =
    Fleet<MembershipNode<E, T, SkewedClock<C>>, C, N>;

impl<Nd> Fleet<Nd>
where
    Nd: FleetNode<Transport = Endpoint, Clock = SkewedClock<VirtualClock>>,
{
    /// Builds the simulated fleet: one node per process around clones of
    /// `prototype`, over a fresh seeded virtual network (the scenario's
    /// `loss`, `delay` and `seed` fields), deterministic per seed.
    #[must_use]
    pub fn new(prototype: Nd::Prototype, scenario: Nd::Scenario) -> Self {
        let online = Nd::online(&scenario);
        let (net, clock) = memory_network(online, online.loss);
        let endpoints = (0..online.n)
            .map(|ix| net.endpoint(ProcessId::new(ix)))
            .collect();
        Self::over(prototype, scenario, endpoints, net, clock)
    }
}

impl<Nd, C, N> Fleet<Nd, C, N>
where
    Nd: FleetNode<Clock = SkewedClock<C>>,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    /// Builds the fleet over an arbitrary substrate: one [`Transport`]
    /// per node (in process-id order), the [`ChurnableTransport`] control
    /// plane the fault schedule drives, and the [`Pacer`] clock that
    /// paces the sample ticks.
    ///
    /// The scenario's transport-level fields (`loss`, `delay`, `seed`)
    /// describe the network [`Fleet::new`] builds; here the caller
    /// already built the substrate, so they are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints.len() != scenario.n` or an endpoint's
    /// identity disagrees with its position.
    #[must_use]
    pub fn over(
        prototype: Nd::Prototype,
        mut scenario: Nd::Scenario,
        endpoints: Vec<Nd::Transport>,
        net: N,
        clock: C,
    ) -> Self {
        let online = Nd::online(&scenario);
        let n = online.n;
        assert_eq!(endpoints.len(), n, "one endpoint per process");
        let nodes = endpoints
            .into_iter()
            .enumerate()
            .map(|(ix, endpoint)| {
                assert_eq!(endpoint.me(), ProcessId::new(ix), "endpoints out of order");
                let skew = online.skews.get(ix).copied().unwrap_or_default();
                let clock = SkewedClock::new(clock.clone(), skew);
                Nd::spawn(prototype.clone(), endpoint, clock, &scenario)
            })
            .collect();
        Self {
            book: Nd::open_book(&mut scenario),
            scenario,
            clock,
            net,
            nodes,
            up: vec![true; n],
            next_fault: 0,
            stepped: false,
            done: false,
        }
    }

    /// The current time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Whether the scenario duration has elapsed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Which processes are currently up (ground truth).
    #[must_use]
    pub fn up_set(&self) -> ProcessSet {
        let mut s = ProcessSet::empty();
        for (ix, up) in self.up.iter().enumerate() {
            if *up {
                s.insert(ProcessId::new(ix));
            }
        }
        s
    }

    /// Read access to one node (e.g. a replica's live log mid-run). The
    /// node's clock is the driver clock seen through that node's
    /// [`ClockSkew`].
    ///
    /// # Panics
    ///
    /// Panics if `ix` is not a process of the fleet.
    #[must_use]
    pub fn node(&self, ix: usize) -> &Nd {
        &self.nodes[ix]
    }

    /// Executes one sample tick: applies due faults, polls every live
    /// node, books the results, paces the clock to the next tick, and
    /// returns the tick's events. `None` once the scenario duration has
    /// elapsed.
    ///
    /// Under a [`VirtualClock`] the tick is instantaneous; under a
    /// [`crate::clock::SystemClock`] this genuinely sleeps out the
    /// remainder of `sample_every`, so driving the fleet in a loop paces
    /// it in wall time.
    ///
    /// # Panics
    ///
    /// Panics if the schedule carries weather that the fault plane
    /// declines (see [`Fault::Weather`]).
    pub fn step(&mut self) -> Option<Vec<Nd::Event>> {
        if self.done {
            return None;
        }
        self.stepped = true;
        let now = self.clock.now();
        let online = Nd::online(&self.scenario);
        if now >= online.duration {
            self.done = true;
            return None;
        }
        let (first_fault, sample_every) = (self.next_fault, online.sample_every);
        while let Some(&(at, fault)) = online.schedule.events().get(self.next_fault) {
            if at > now {
                break;
            }
            match fault {
                Fault::Crash(p) => {
                    self.net.take_down(p);
                    self.up[p.index()] = false;
                }
                Fault::Recover(p) => {
                    self.net.bring_up(p);
                    self.up[p.index()] = true;
                }
                Fault::Partition(side) => self.net.set_partition(side),
                Fault::Heal => self.net.heal_partition(),
                Fault::Weather(d) => assert!(
                    self.net.apply_weather(&d),
                    "the schedule carries weather ({d:?}) but this substrate's fault \
                     plane declined it — drive weather schedules over a \
                     FaultInjector-wrapped fleet (see Fleet::weather)"
                ),
            }
            self.next_fault += 1;
        }
        let mut events = Vec::new();
        Nd::tick(self, now, first_fault..self.next_fault, &mut events);
        self.clock.pace_to(now.saturating_add(sample_every));
        Some(events)
    }

    /// Runs the remaining ticks and returns every event produced.
    pub fn run_to_end(&mut self) -> Vec<Nd::Event> {
        let mut all = Vec::new();
        while let Some(mut events) = self.step() {
            all.append(&mut events);
        }
        all
    }
}

impl<Nd: FleetNode, C, N> Fleet<Nd, C, N> {
    /// Runs one iteration of every live node's loop.
    pub(crate) fn poll_live(&mut self, now: Nanos, events: &mut Vec<Nd::Event>) {
        for (node, &up) in self.nodes.iter_mut().zip(&self.up) {
            if up {
                node.poll(&mut self.book, now, events);
            }
        }
    }
}

/// The detector fleet's books: one incremental [`QosMonitor`] per
/// ordered observer–target pair, the opt-in batch [`QosTracker`]
/// shadows, and each observer's previous suspect set.
#[derive(Debug)]
pub struct QosBook {
    /// `monitors[observer][target]`, `None` on the diagonal.
    monitors: Vec<Vec<Option<QosMonitor>>>,
    /// Batch shadows fed the identical sample stream (the equality
    /// gate). Opt-in via [`OnlineRunner::with_batch_shadow`]: a tracker
    /// keeps every suspicion episode, which is exactly the unbounded
    /// growth the incremental monitor exists to avoid, so a long-running
    /// deployment must not pay for it by default.
    shadows: Option<Vec<Vec<Option<QosTracker>>>>,
    last_suspects: Vec<ProcessSet>,
}

impl<E, T, C> sealed::Sealed for DetectorNode<E, T, C> {}

impl<E, T, C> FleetNode for DetectorNode<E, T, C>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Clock,
{
    type Prototype = E;
    type Transport = T;
    type Clock = C;
    type Scenario = OnlineScenario;
    type Book = QosBook;
    type Event = OnlineEvent;

    fn online(scenario: &OnlineScenario) -> &OnlineScenario {
        scenario
    }

    fn spawn(prototype: E, transport: T, clock: C, scenario: &OnlineScenario) -> Self {
        DetectorNode::new(scenario.n, prototype, transport, clock, scenario.period)
    }

    /// One [`QosMonitor`] per ordered observer–target pair, primed with
    /// the schedule's final crash times.
    fn open_book(scenario: &mut OnlineScenario) -> QosBook {
        let n = scenario.n;
        let monitors = (0..n)
            .map(|obs| {
                (0..n)
                    .map(|t| {
                        (obs != t).then(|| {
                            QosMonitor::new(scenario.schedule.final_crash(ProcessId::new(t)))
                        })
                    })
                    .collect()
            })
            .collect();
        QosBook {
            monitors,
            shadows: None,
            last_suspects: vec![ProcessSet::empty(); n],
        }
    }

    /// Polls the node, emits its suspicion flips and samples its
    /// monitors.
    fn poll(&mut self, book: &mut QosBook, now: Nanos, events: &mut Vec<OnlineEvent>) {
        let suspects = DetectorNode::poll(self);
        let observer = self.detector().me();
        let ix = observer.index();
        let last = book.last_suspects[ix];
        for target in suspects.union(last).difference(suspects.intersection(last)) {
            events.push(OnlineEvent::Suspicion {
                observer,
                target,
                at: now,
                suspected: suspects.contains(target),
            });
        }
        book.last_suspects[ix] = suspects;
        for t in 0..book.monitors.len() {
            let verdict = suspects.contains(ProcessId::new(t));
            if let Some(m) = &mut book.monitors[ix][t] {
                m.sample(now, verdict);
            }
            if let Some(shadows) = &mut book.shadows {
                if let Some(s) = &mut shadows[ix][t] {
                    s.sample(now, verdict);
                }
            }
        }
    }

    fn tick<P, N>(
        fleet: &mut Fleet<Self, P, N>,
        now: Nanos,
        faults: Range<usize>,
        events: &mut Vec<OnlineEvent>,
    ) {
        for &(at, fault) in &fleet.scenario.schedule.events()[faults] {
            events.push(OnlineEvent::Fault { at, fault });
        }
        fleet.poll_live(now, events);
    }
}

impl<E, T, C, N> OnlineRunner<E, T, C, N>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    /// Additionally feeds every pair's sample stream to a batch
    /// [`QosTracker`] shadow (builder style), enabling
    /// [`OnlineRunner::batch_report`] and
    /// [`OnlineRunner::monitor_matches_batch`] — the E11 equality gate.
    ///
    /// Off by default: a tracker records every suspicion episode, which
    /// is unbounded over a long run — precisely what the incremental
    /// monitor avoids. Enable it for verification runs only, before the
    /// first [`OnlineRunner::step`].
    #[must_use]
    pub fn with_batch_shadow(mut self) -> Self {
        let n = self.scenario.n;
        debug_assert!(
            !self.stepped,
            "enable the shadow before stepping, or it will miss samples"
        );
        self.book.shadows = Some(
            (0..n)
                .map(|obs| (0..n).map(|t| (obs != t).then(QosTracker::new)).collect())
                .collect(),
        );
        self
    }

    /// The end of the scored window: the current time, or the scenario
    /// end once done.
    fn scored_until(&self) -> Nanos {
        if self.done {
            self.scenario.duration
        } else {
            self.clock.now()
        }
    }

    /// The live QoS report of `observer` about `target` as of the
    /// current time (or the scenario end once done), straight from the
    /// incremental monitor. `None` on the diagonal.
    #[must_use]
    pub fn report(&self, observer: ProcessId, target: ProcessId) -> Option<QosReport> {
        self.book.monitors[observer.index()][target.index()]
            .as_ref()
            .map(|m| m.report(self.scored_until()))
    }

    /// The batch-path report of the same pair: the shadow
    /// [`QosTracker`]'s post-hoc [`QosTracker::finalize`] over the
    /// identical sample stream. `None` on the diagonal.
    ///
    /// # Panics
    ///
    /// Panics unless the runner was built with
    /// [`OnlineRunner::with_batch_shadow`].
    #[must_use]
    pub fn batch_report(&self, observer: ProcessId, target: ProcessId) -> Option<QosReport> {
        self.book
            .shadows
            .as_ref()
            .expect("batch shadow not enabled; build the runner with with_batch_shadow()")
            [observer.index()][target.index()]
        .as_ref()
        .map(|s| {
            s.finalize(
                self.scenario.schedule.final_crash(target),
                self.scored_until(),
            )
        })
    }

    /// Whether the incremental monitor and the batch tracker agree
    /// **exactly** (every field, including the floating-point rates) for
    /// the pair — the E11 acceptance gate.
    ///
    /// # Panics
    ///
    /// Panics unless the runner was built with
    /// [`OnlineRunner::with_batch_shadow`].
    #[must_use]
    pub fn monitor_matches_batch(&self, observer: ProcessId, target: ProcessId) -> bool {
        match (
            self.report(observer, target),
            self.batch_report(observer, target),
        ) {
            (Some(a), Some(b)) => reports_equal(&a, &b),
            (None, None) => true,
            _ => false,
        }
    }
}

/// Exact (bitwise for floats) equality of two QoS reports.
#[must_use]
pub fn reports_equal(a: &QosReport, b: &QosReport) -> bool {
    a.detection_time == b.detection_time
        && a.mistakes == b.mistakes
        && a.mistake_rate.to_bits() == b.mistake_rate.to_bits()
        && a.avg_mistake_duration == b.avg_mistake_duration
        && a.longest_mistake == b.longest_mistake
        && a.query_accuracy.to_bits() == b.query_accuracy.to_bits()
}

/// The report of a [`MembershipWatcher`].
#[derive(Clone, Debug, Default)]
pub struct MembershipChurnReport {
    /// Per process: time from its first crash to its exclusion from the
    /// authoritative view. `None` if it never crashed, was never
    /// excluded, or was excluded *before* it crashed (that exclusion did
    /// not detect the crash — it shows up in
    /// [`MembershipChurnReport::false_exclusions`] instead).
    pub exclusion_latency: Vec<Option<Nanos>>,
    /// Processes excluded although they had neither crashed nor been
    /// down before — the by-fiat accuracy enforcement of §1.3 (typical
    /// under partitions).
    pub false_exclusions: ProcessSet,
    /// View installations observed across the fleet.
    pub view_changes: u64,
    /// Total time the fleet spent **split-brained**: live, non-halted
    /// members holding at least two distinct views (id or member set).
    /// Accumulated between observation ticks, so its resolution is the
    /// observation cadence and the partial interval after the final
    /// observation is not counted (an undercount of at most one tick).
    pub split_brain_duration: Nanos,
    /// Per noted heal ([`MembershipWatcher::note_fault`]), the time from
    /// the heal to the first observation at which every live member held
    /// one single view again. `None` if the fleet never reconverged
    /// before the observation ended — the default (merge-less) service
    /// split-brains forever; the heal-merge reconciliation is what makes
    /// these finite.
    pub time_to_reconverge: Vec<Option<Nanos>>,
    /// Decision-log entries adopted via post-heal **state transfer**
    /// ([`MembershipWatcher::note_state_transfer`]) across the fleet —
    /// the work the heal-merge re-sync did.
    pub decisions_transferred: u64,
    /// Decision-log entries *discarded* while reconciling (a conflicting
    /// suffix lost to the total view order). Zero as long as the service
    /// layer's agreement holds; any other value is a safety red flag.
    pub decisions_lost: u64,
    /// Snapshot summaries served to fast-rejoining peers
    /// ([`MembershipWatcher::note_sync_served`] with `snapshot: true`) —
    /// the compaction fast path of the service layer.
    pub snapshots_sent: u64,
    /// Total encoded bytes of sync and snapshot reply frames served
    /// across the fleet — the transfer cost experiment E14 plots
    /// against log length.
    pub sync_bytes_sent: u64,
    /// Per noted rejoin ([`MembershipWatcher::note_rejoin`]): the time
    /// from a heal until every live replica caught up to the pre-heal
    /// log length — E14's rejoin latency.
    pub rejoin_latencies: Vec<Nanos>,
    /// Adversarial-weather directives applied during the run
    /// ([`MembershipWatcher::note_fault`]) — zero on a crash-only
    /// schedule, so a report can attest which fault vocabulary the
    /// fleet was actually exposed to.
    pub weather_directives: u64,
    /// Frames re-sent by the service layer's retransmission plane
    /// across the fleet. Zero on a calm network — retransmission is
    /// pure insurance against loss. Filled by the service runner
    /// (node-level counters summed); a bare [`MembershipWatcher`]
    /// reports zero.
    pub retransmits_sent: u64,
    /// Received frames the service layer dropped as duplicates
    /// (idempotent receipt of retransmitted or raced frames), summed
    /// across the fleet. Filled by the service runner; a bare
    /// [`MembershipWatcher`] reports zero.
    pub duplicate_frames_dropped: u64,
}

/// An incremental observer of a membership fleet under churn: feed it
/// ground-truth fault notes and periodic view observations; read the
/// report at any time.
#[derive(Clone, Debug)]
pub struct MembershipWatcher {
    n: usize,
    down: ProcessSet,
    first_crash: Vec<Option<Nanos>>,
    excluded_at: Vec<Option<Nanos>>,
    last_view_ids: Vec<u64>,
    /// Last observed member set per node: heal-merge adoption is ordered
    /// by `(id, member bitmap)`, so an installation can keep the id and
    /// change only the members — counted as a view change too.
    last_view_members: Vec<Option<ProcessSet>>,
    /// Whether the previous observation saw divergent views, and when it
    /// was taken — the state that turns per-tick observations into the
    /// accumulated split-brain duration.
    diverged: bool,
    last_observed: Option<Nanos>,
    /// `(heal time, time to reconverge)` per noted heal; the second
    /// component stays `None` until a convergent observation follows.
    heals: Vec<(Nanos, Option<Nanos>)>,
    /// The report's running totals; [`MembershipWatcher::report`] adds
    /// the per-process exclusion latencies and per-heal reconvergence
    /// times.
    totals: MembershipChurnReport,
}

impl MembershipWatcher {
    /// A watcher over `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            down: ProcessSet::empty(),
            first_crash: vec![None; n],
            excluded_at: vec![None; n],
            last_view_ids: vec![0; n],
            last_view_members: vec![None; n],
            diverged: false,
            last_observed: None,
            heals: Vec::new(),
            totals: MembershipChurnReport::default(),
        }
    }

    /// Notes one applied ground-truth fault at `at`. A crash starts the
    /// exclusion-latency clock of its process and a heal the fleet's
    /// time to reconverge onto a single view (reported in
    /// [`MembershipChurnReport::time_to_reconverge`]); a weather
    /// directive is counted, the report's attestation that the run was
    /// weathered, not calm. Faults on out-of-range processes
    /// (`p.index() >= n`) are ignored — the watcher tracks only the
    /// fleet it was sized for.
    pub fn note_fault(&mut self, at: Nanos, fault: &Fault) {
        match *fault {
            Fault::Crash(p) if p.index() < self.n => {
                self.down.insert(p);
                self.first_crash[p.index()].get_or_insert(at);
            }
            Fault::Recover(p) => {
                self.down.remove(p);
            }
            Fault::Heal => self.heals.push((at, None)),
            Fault::Weather(_) => self.totals.weather_directives += 1,
            Fault::Crash(_) | Fault::Partition(_) => {}
        }
    }

    /// Notes one state-transfer reconciliation at the service layer:
    /// `adopted` log entries were received from a peer, `lost` local
    /// entries were discarded to the total view order while merging.
    pub fn note_state_transfer(&mut self, adopted: u64, lost: u64) {
        self.totals.decisions_transferred += adopted;
        self.totals.decisions_lost += lost;
    }

    /// Notes one served state-transfer reply at the service layer:
    /// `bytes` encoded reply bytes went out, as a `snapshot` summary or
    /// a plain log-suffix stream.
    pub fn note_sync_served(&mut self, bytes: u64, snapshot: bool) {
        self.totals.sync_bytes_sent += bytes;
        if snapshot {
            self.totals.snapshots_sent += 1;
        }
    }

    /// Notes one completed rejoin: the measured time from a heal until
    /// every live replica caught back up to the pre-heal log length.
    pub fn note_rejoin(&mut self, latency: Nanos) {
        self.totals.rejoin_latencies.push(latency);
    }

    /// Feeds one observation tick: `views` holds, for each live
    /// (non-halted) member, its current view id and member set. A
    /// process counts as *excluded* once the **authoritative view** —
    /// the one held by the lowest-index live member, i.e. the
    /// coordinator lineage — omits it. (Judging against *every* view
    /// would deadlock under split-brain: a partitioned minority keeps a
    /// stale view containing itself until it learns of its exclusion.)
    ///
    /// Members with an out-of-range index (`>= n`) are skipped rather
    /// than indexed — the same latent panic family as the heartbeat
    /// sender guard of [`MembershipNode`]'s receive path.
    pub fn observe<I>(&mut self, now: Nanos, views: I)
    where
        I: IntoIterator<Item = (ProcessId, u64, ProcessSet)>,
    {
        let mut authority: Option<(ProcessId, ProcessSet)> = None;
        let mut first_view: Option<(u64, ProcessSet)> = None;
        let mut saw_view = false;
        let mut diverged_now = false;
        for (member, view_id, members) in views {
            if member.index() >= self.n {
                continue;
            }
            match &authority {
                Some((lowest, _)) if member >= *lowest => {}
                _ => authority = Some((member, members)),
            }
            match first_view {
                Some(v) if v != (view_id, members) => diverged_now = true,
                None => first_view = Some((view_id, members)),
                Some(_) => {}
            }
            saw_view = true;
            let last = &mut self.last_view_ids[member.index()];
            if view_id > *last {
                self.totals.view_changes += view_id - *last;
                *last = view_id;
            } else if view_id == *last
                && self.last_view_members[member.index()].is_some_and(|m| m != members)
            {
                // A same-id, different-members installation: the
                // heal-merge total order advanced on the bitmap alone.
                self.totals.view_changes += 1;
            }
            self.last_view_members[member.index()] = Some(members);
        }
        // Split-brain accounting: the interval since the previous
        // observation carries that observation's divergence verdict.
        if self.diverged {
            if let Some(prev) = self.last_observed {
                self.totals.split_brain_duration = self
                    .totals
                    .split_brain_duration
                    .saturating_add(now.saturating_sub(prev));
            }
        }
        self.diverged = diverged_now;
        self.last_observed = Some(now);
        if saw_view && !diverged_now {
            for (healed_at, reconverged) in &mut self.heals {
                if reconverged.is_none() && now >= *healed_at {
                    *reconverged = Some(now.saturating_sub(*healed_at));
                }
            }
        }
        let Some((_, authoritative_members)) = authority else {
            return;
        };
        let excluded = authoritative_members.complement_within(self.n);
        for p in excluded {
            if self.excluded_at[p.index()].is_none() {
                self.excluded_at[p.index()] = Some(now);
                if !self.down.contains(p) && self.first_crash[p.index()].is_none() {
                    self.totals.false_exclusions.insert(p);
                }
            }
        }
    }

    /// [`MembershipWatcher::observe`]s a fleet: the views of its up,
    /// non-halted nodes.
    pub(crate) fn observe_fleet<Nd: FleetNode>(&mut self, now: Nanos, nodes: &[Nd], up: &[bool]) {
        self.observe(
            now,
            nodes
                .iter()
                .zip(up)
                .enumerate()
                .filter(|(_, (node, &up))| up && !node.is_halted())
                .filter_map(|(ix, (node, _))| {
                    let v = node.view()?;
                    Some((ProcessId::new(ix), v.id, v.members))
                }),
        );
    }

    /// The report so far.
    #[must_use]
    pub fn report(&self) -> MembershipChurnReport {
        let exclusion_latency = (0..self.n)
            .map(|ix| match (self.first_crash[ix], self.excluded_at[ix]) {
                // An exclusion that precedes the crash did not detect it
                // (e.g. a partition exclusion before a later crash): a
                // saturated 0 here would read as instant detection.
                (Some(c), Some(e)) if e >= c => Some(e.saturating_sub(c)),
                _ => None,
            })
            .collect();
        MembershipChurnReport {
            exclusion_latency,
            time_to_reconverge: self.heals.iter().map(|(_, r)| *r).collect(),
            ..self.totals.clone()
        }
    }
}

impl<E, T, C> sealed::Sealed for MembershipNode<E, T, C> {}

impl<E, T, C> FleetNode for MembershipNode<E, T, C>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Clock,
{
    type Prototype = E;
    type Transport = T;
    type Clock = C;
    type Scenario = OnlineScenario;
    type Book = MembershipWatcher;
    type Event = OnlineEvent;

    fn online(scenario: &OnlineScenario) -> &OnlineScenario {
        scenario
    }

    fn spawn(prototype: E, transport: T, clock: C, scenario: &OnlineScenario) -> Self {
        let node = MembershipNode::new(scenario.n, prototype, transport, clock, scenario.period);
        if scenario.heal_merge {
            node.with_heal_merge()
        } else {
            node
        }
    }

    fn open_book(scenario: &mut OnlineScenario) -> MembershipWatcher {
        MembershipWatcher::new(scenario.n)
    }

    fn poll(&mut self, _: &mut MembershipWatcher, _: Nanos, _: &mut Vec<OnlineEvent>) {
        MembershipNode::poll(self);
    }

    /// Notes the faults, polls the live nodes, then observes the views.
    fn tick<P, N>(
        fleet: &mut Fleet<Self, P, N>,
        now: Nanos,
        faults: Range<usize>,
        events: &mut Vec<OnlineEvent>,
    ) {
        for &(at, fault) in &fleet.scenario.schedule.events()[faults] {
            fleet.book.note_fault(at, &fault);
            events.push(OnlineEvent::Fault { at, fault });
        }
        fleet.poll_live(now, events);
        fleet.book.observe_fleet(now, &fleet.nodes, &fleet.up);
    }

    fn view(&self) -> Option<View> {
        Some(MembershipNode::view(self))
    }

    fn is_halted(&self) -> bool {
        MembershipNode::is_halted(self)
    }
}

impl<E, T, C, N> MembershipRunner<E, T, C, N>
where
    E: ArrivalEstimator + Clone,
    T: Transport,
    C: Pacer + Clone,
    N: ChurnableTransport,
{
    /// The watcher's report so far.
    #[must_use]
    pub fn report(&self) -> MembershipChurnReport {
        self.book.report()
    }
}

/// Drives a [`MembershipNode`] fleet through the scenario's fault
/// schedule over the simulated network (deterministic per seed),
/// observing it live with a [`MembershipWatcher`], and returns the
/// watcher's report. [`MembershipRunner::over`] drives the same fleet
/// over any other substrate (e.g. real UDP sockets in wall time).
///
/// With `scenario.heal_merge` off (the default), exclusion is forever —
/// the §1.3 enforcement: a process excluded while down or partitioned
/// either halts on learning of a newer view that omits it, or (having
/// suspected everyone during its outage) splits off into a stale view of
/// its own that the authoritative group never readopts. With it on, the
/// fleet instead reconciles after partitions heal: divergent views merge
/// back into a single one and
/// [`MembershipChurnReport::time_to_reconverge`] becomes finite.
pub fn run_membership_churn<E: ArrivalEstimator + Clone>(
    prototype: E,
    scenario: &OnlineScenario,
) -> MembershipChurnReport {
    let mut fleet = MembershipRunner::new(prototype, scenario.clone());
    while fleet.step().is_some() {}
    fleet.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;
    use crate::estimator::{ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual};
    use crate::qos::{evaluate_qos, QosScenario};
    use crate::transport::udp::loopback_cluster;
    use crate::transport::{faulty_cluster, NetworkConfig};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn schedule_final_crash_sees_through_churn() {
        let s = FaultSchedule::new()
            .at(ms(10_000), Fault::Recover(p(1)))
            .at(ms(5_000), Fault::Crash(p(1)))
            .at(ms(20_000), Fault::Crash(p(1)));
        assert_eq!(s.final_crash(p(1)), Some(ms(20_000)));
        assert_eq!(s.first_crash(p(1)), Some(ms(5_000)));
        assert_eq!(s.final_crash(p(2)), None);
        // Events come back time-sorted regardless of insertion order.
        let times: Vec<u64> = s.events().iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![5_000, 10_000, 20_000]);
    }

    #[test]
    fn online_runner_detects_a_final_crash_and_matches_batch() {
        let scenario = OnlineScenario {
            n: 3,
            duration: ms(20_000),
            schedule: FaultSchedule::new().at(ms(12_000), Fault::Crash(p(2))),
            ..OnlineScenario::default()
        };
        let mut runner = OnlineRunner::new(ChenEstimator::new(ms(50), 32, ms(500)), scenario)
            .with_batch_shadow();
        let events = runner.run_to_end();
        assert!(runner.is_done());
        assert!(events
            .iter()
            .any(|e| matches!(e, OnlineEvent::Fault { fault: Fault::Crash(q), .. } if *q == p(2))));
        for obs in [p(0), p(1)] {
            let r = runner.report(obs, p(2)).unwrap();
            let td = r.detection_time.expect("crash detected");
            assert!(td.as_millis() < 2_000, "{obs}: T_D = {td}");
            assert!(
                runner.monitor_matches_batch(obs, p(2)),
                "{obs}: monitor {r:?} vs batch {:?}",
                runner.batch_report(obs, p(2))
            );
        }
        // All pairs agree with the batch shadow, crashed or not.
        for a in 0..3 {
            for b in 0..3 {
                assert!(runner.monitor_matches_batch(p(a), p(b)), "({a},{b})");
            }
        }
    }

    #[test]
    fn recovery_clears_suspicion_and_counts_the_outage_as_mistake() {
        // p1 crashes at 5 s and recovers at 8 s; no final crash.
        let scenario = OnlineScenario {
            n: 2,
            duration: ms(20_000),
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Crash(p(1)))
                .at(ms(8_000), Fault::Recover(p(1))),
            ..OnlineScenario::default()
        };
        let mut runner =
            OnlineRunner::new(JacobsonEstimator::new(4.0, ms(500)), scenario).with_batch_shadow();
        let events = runner.run_to_end();
        let flips: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::Suspicion {
                    observer,
                    target,
                    suspected,
                    ..
                } if *observer == p(0) && *target == p(1) => Some(*suspected),
                _ => None,
            })
            .collect();
        assert!(
            flips.windows(2).all(|w| w[0] != w[1]),
            "suspicion transitions must alternate: {flips:?}"
        );
        assert!(
            flips.contains(&true) && flips.contains(&false),
            "the outage must be suspected and then cleared: {flips:?}"
        );
        let r = runner.report(p(0), p(1)).unwrap();
        assert!(r.detection_time.is_none(), "no final crash to detect");
        assert!(r.mistakes >= 1, "the outage shows up as a mistake episode");
        assert!(runner.monitor_matches_batch(p(0), p(1)));
        // Thanks to the Jacobson outage clamp, the detector re-arms after
        // the recovery: a fresh silence is suspected again promptly.
        assert!(r.query_accuracy > 0.5, "{r:?}");
    }

    #[test]
    fn partition_causes_cross_side_suspicion_then_heals() {
        let mut side = ProcessSet::empty();
        side.insert(p(0));
        side.insert(p(1));
        let scenario = OnlineScenario {
            n: 4,
            duration: ms(20_000),
            schedule: FaultSchedule::new()
                .at(ms(6_000), Fault::Partition(side))
                .at(ms(10_000), Fault::Heal),
            ..OnlineScenario::default()
        };
        let mut runner =
            OnlineRunner::new(PhiAccrual::new(3.0, 32, ms(500)), scenario).with_batch_shadow();
        runner.run_to_end();
        // Across the cut: mistakes (the partition looked like a crash).
        let cross = runner.report(p(0), p(2)).unwrap();
        assert!(cross.mistakes >= 1, "{cross:?}");
        assert!(cross.detection_time.is_none());
        // Within a side: clean.
        let within = runner.report(p(0), p(1)).unwrap();
        assert_eq!(within.mistakes, 0, "{within:?}");
        for a in 0..4 {
            for b in 0..4 {
                assert!(runner.monitor_matches_batch(p(a), p(b)), "({a},{b})");
            }
        }
    }

    /// The online runner with a crash-only schedule reproduces the batch
    /// harness shape: same estimator, same period/delay/loss family.
    #[test]
    fn online_runner_agrees_with_the_batch_harness_shape() {
        let crash = ms(15_000);
        let duration = ms(20_000);
        let scenario = OnlineScenario {
            n: 2,
            duration,
            schedule: FaultSchedule::new().at(crash, Fault::Crash(p(1))),
            ..OnlineScenario::default()
        };
        let mut runner = OnlineRunner::new(FixedTimeout::new(ms(400)), scenario);
        runner.run_to_end();
        let online = runner.report(p(0), p(1)).unwrap();
        let batch = evaluate_qos(
            FixedTimeout::new(ms(400)),
            &QosScenario {
                crash_at: Some(crash),
                duration,
                ..QosScenario::default()
            },
        );
        // Identical modelling except for node-loop scheduling details:
        // both detect within a period-scale bound and make no mistakes.
        assert!(online.detection_time.is_some() && batch.detection_time.is_some());
        assert_eq!(online.mistakes, 0);
        assert_eq!(batch.mistakes, 0);
    }

    /// The generic runner over a [`crate::transport::FaultyTransport`]
    /// cluster (reliable in-memory medium, every fault injected by the
    /// wrapper) behaves like the native in-memory runner: the crash is
    /// detected and the incremental monitors still equal their batch
    /// shadows exactly.
    #[test]
    fn generic_runner_over_a_faulty_transport_detects_and_matches_batch() {
        let scenario = OnlineScenario {
            n: 3,
            duration: ms(20_000),
            schedule: FaultSchedule::new()
                .at(ms(6_000), Fault::Partition(ProcessSet::singleton(p(1))))
                .at(ms(9_000), Fault::Heal)
                .at(ms(12_000), Fault::Crash(p(2))),
            ..OnlineScenario::default()
        };
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(scenario.delay.0, scenario.delay.1);
        let net = InMemoryNetwork::new(scenario.n, config, clock.clone());
        let endpoints = (0..scenario.n)
            .map(|ix| net.endpoint(ProcessId::new(ix)))
            .collect();
        let (nodes, injector) = faulty_cluster(endpoints, 0.0, scenario.seed, clock.clone());
        let mut runner = OnlineRunner::over(
            ChenEstimator::new(ms(50), 32, ms(500)),
            scenario,
            nodes,
            injector,
            clock,
        )
        .with_batch_shadow();
        let events = runner.run_to_end();
        assert!(events.iter().any(|e| matches!(
            e,
            OnlineEvent::Fault {
                fault: Fault::Heal,
                ..
            }
        )));
        let r = runner.report(p(0), p(2)).unwrap();
        let td = r
            .detection_time
            .expect("crash detected through the wrapper");
        assert!(td.as_millis() < 2_000, "T_D = {td}");
        // The partition of p1 looked like a crash to p0: a mistake.
        let cross = runner.report(p(0), p(1)).unwrap();
        assert!(cross.mistakes >= 1, "{cross:?}");
        for a in 0..3 {
            for b in 0..3 {
                assert!(runner.monitor_matches_batch(p(a), p(b)), "({a},{b})");
            }
        }
    }

    /// The whole online stack over *real* loopback UDP sockets, paced by
    /// the wall clock: a short scenario (~1.2 s) in which the victim is
    /// crash-muted and the survivor must detect it.
    #[test]
    fn wall_clock_udp_runner_detects_a_muted_peer() {
        let scenario = OnlineScenario {
            n: 2,
            period: ms(40),
            sample_every: ms(10),
            duration: ms(1_600),
            schedule: FaultSchedule::new().at(ms(500), Fault::Crash(p(1))),
            ..OnlineScenario::default()
        };
        let clock = SystemClock::new();
        let transports = loopback_cluster(2).expect("bind loopback");
        let (nodes, injector) = faulty_cluster(transports, 0.0, 0, clock.clone());
        let mut runner =
            OnlineRunner::over(FixedTimeout::new(ms(150)), scenario, nodes, injector, clock);
        runner.run_to_end();
        assert!(runner.is_done());
        let r = runner.report(p(0), p(1)).unwrap();
        // Wall-clock tolerant: typical T_D is ~160 ms, the bound only
        // guards against the detection being missed entirely.
        let td = r.detection_time.expect("mute detected over real sockets");
        assert!(td.as_millis() < 1_000, "T_D = {td} (report {r:?})");
    }

    /// Heal-merge reconciliation: the same partition/heal schedule
    /// split-brains forever under the default service but reconverges —
    /// with finite, reported latency — once merging is on.
    #[test]
    fn heal_merge_reconverges_where_the_default_splits_forever() {
        let mut minority = ProcessSet::empty();
        minority.insert(p(2));
        minority.insert(p(3));
        let scenario = OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(30_000),
            sample_every: ms(1),
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Partition(minority))
                .at(ms(10_000), Fault::Heal),
            ..OnlineScenario::default()
        };
        let chen = || ChenEstimator::new(ms(150), 16, ms(600));

        let split = run_membership_churn(chen(), &scenario);
        assert_eq!(
            split.time_to_reconverge,
            vec![None],
            "split-brain is forever"
        );
        assert!(split.split_brain_duration >= ms(15_000), "{split:?}");

        let merged = run_membership_churn(
            chen(),
            &OnlineScenario {
                heal_merge: true,
                ..scenario
            },
        );
        let ttr = merged.time_to_reconverge[0].expect("fleet reconverged after the heal");
        assert!(ttr < ms(5_000), "time to reconverge {ttr}");
        // Split-brain covers (roughly) the partition plus the merge
        // window — far less than the merge-less forever.
        assert!(merged.split_brain_duration < split.split_brain_duration);
        // The minority was still excluded by fiat *during* the cut.
        assert!(
            !merged.false_exclusions.is_empty(),
            "{:?}",
            merged.false_exclusions
        );
    }

    #[test]
    fn membership_churn_excludes_crashed_members_with_low_latency() {
        let scenario = OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(30_000),
            sample_every: ms(1),
            schedule: FaultSchedule::new().at(ms(5_000), Fault::Crash(p(2))),
            ..OnlineScenario::default()
        };
        let report = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);
        let latency = report.exclusion_latency[2].expect("crashed member excluded");
        assert!(latency.as_millis() < 5_000, "latency {latency}");
        assert!(report.false_exclusions.is_empty());
        assert!(report.view_changes >= 1);
    }

    #[test]
    fn membership_partition_forces_by_fiat_exclusions() {
        // A minority side {3} is cut off long enough to be excluded; it
        // never crashed, so the watcher must report a false exclusion —
        // the paper's by-fiat accuracy made measurable.
        let scenario = OnlineScenario {
            n: 4,
            period: ms(50),
            duration: ms(30_000),
            sample_every: ms(1),
            schedule: FaultSchedule::new()
                .at(ms(5_000), Fault::Partition(ProcessSet::singleton(p(3))))
                .at(ms(15_000), Fault::Heal),
            ..OnlineScenario::default()
        };
        let report = run_membership_churn(ChenEstimator::new(ms(150), 16, ms(600)), &scenario);
        assert!(
            report.false_exclusions.contains(p(3)),
            "{:?}",
            report.false_exclusions
        );
        assert!(report.exclusion_latency[3].is_none(), "p3 never crashed");
    }

    #[test]
    fn watcher_counts_view_changes_and_ignores_recovered_crashes() {
        let mut w = MembershipWatcher::new(3);
        w.note_fault(ms(100), &Fault::Crash(p(2)));
        w.note_fault(ms(150), &Fault::Recover(p(2)));
        let mut v1 = ProcessSet::full(3);
        v1.remove(p(2));
        w.observe(ms(200), vec![(p(0), 1, v1), (p(1), 1, v1)]);
        let r = w.report();
        // p2 crashed (then recovered) before the exclusion: accurate, not
        // false; latency measured from the first crash.
        assert!(r.false_exclusions.is_empty());
        assert_eq!(r.exclusion_latency[2], Some(ms(100)));
        assert_eq!(r.view_changes, 2);
    }
}
