//! The three workloads, generated from the run seed. Every workload is
//! open loop: commands fall due on a fixed schedule regardless of
//! progress, and latency is timed from the due instant.

use crate::probe::splitmix64;
use rfd_core::{ProcessId, ProcessSet};
use rfd_net::clock::Nanos;
use rfd_net::estimator::ChenEstimator;
use rfd_net::online::{Fault, FaultSchedule, OnlineScenario};
use rfd_net::service::{CompactionPolicy, ServiceScenario};

const SEC: u64 = 1_000_000_000;

/// The sample tick of every fleet.
const TICK: Nanos = Nanos::from_millis(5);
/// Heartbeat period of every fleet.
const PERIOD: Nanos = Nanos::from_millis(100);
/// Virtual time the fleet runs before the first command falls due.
const WARMUP_NS: u64 = 2 * SEC;

/// The detector every fleet runs: Chen's estimator with a 150 ms safety
/// margin over a 16-arrival window, 600 ms before the window fills.
pub fn estimator() -> ChenEstimator {
    ChenEstimator::new(Nanos::from_millis(150), 16, Nanos::from_millis(600))
}

/// Offered rates of `ladder_n5`, commands per virtual second: from well
/// below the knee (30–35/s) to about ten times it. Every rung runs.
pub const LADDER_RATES: [u64; 12] = [10, 20, 25, 30, 35, 40, 60, 80, 120, 160, 240, 320];
/// Commands each rung offers (p99 keeps ten samples beyond it).
const LADDER_COMMANDS: u64 = 1_000;
const LADDER_DRAIN_NS: u64 = 10 * SEC;

const FLEET_COMMANDS: u64 = 1_000;
const FLEET_DRAIN_NS: u64 = 5 * SEC;

/// `faults_n5` runs this many independently seeded fault replicas, so
/// each run pools enough coordinator crashes for a steady outage figure.
pub const FAULT_REPLICAS: u64 = 36;
const FAULT_LOAD_NS: u64 = 150 * SEC;
const FAULT_DRAIN_NS: u64 = 20 * SEC;
/// Partition/heal period of `p4`, and how long each partition holds.
const FAULT_CYCLE_NS: u64 = 30 * SEC;
const FAULT_HOLD_NS: u64 = 5 * SEC;

/// Latency limit of the calm workloads' service-level objective.
const CALM_SLO: Nanos = Nanos::from_millis(100);
/// `faults_n5` commands sent to `p4` wait out its partitions, so its
/// limit is set above the partition hold.
const FAULT_SLO: Nanos = Nanos::from_millis(10_000);

/// After the drain, the fleet runs until quiescent for at most this long.
const SETTLE_CAP_NS: u64 = 120 * SEC;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LadderN5,
    FleetN16,
    FaultsN5,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LadderN5, Workload::FleetN16, Workload::FaultsN5];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LadderN5 => "ladder_n5",
            Workload::FleetN16 => "fleet_n16",
            Workload::FaultsN5 => "faults_n5",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent scenarios ("cells") one pass runs: the ladder's rungs,
    /// the fleet's single run, the fault replicas.
    pub fn cells(self) -> u64 {
        match self {
            Workload::LadderN5 => LADDER_RATES.len() as u64,
            Workload::FleetN16 => 1,
            Workload::FaultsN5 => FAULT_REPLICAS,
        }
    }

    /// Builds cell `k` of this workload for run seed `seed`.
    pub fn cell(self, seed: u64, k: u64) -> Cell {
        let cell_seed = splitmix64(seed ^ splitmix64(k + 1));
        match self {
            Workload::LadderN5 => {
                let rate = LADDER_RATES[usize::try_from(k).expect("rung index")];
                Cell::calm(5, rate, LADDER_COMMANDS, LADDER_DRAIN_NS, cell_seed)
            }
            Workload::FleetN16 => Cell::calm(16, 2, FLEET_COMMANDS, FLEET_DRAIN_NS, cell_seed),
            Workload::FaultsN5 => Cell::faults(cell_seed),
        }
    }
}

/// One scenario of a workload, with what the metrics need to know
/// about it.
#[derive(Clone, Debug)]
pub struct Cell {
    pub scenario: ServiceScenario,
    /// Offered rate, commands per virtual second.
    pub rate: u64,
    /// When the first command falls due (the end of the warm-up).
    pub first_due: Nanos,
    /// End of the drain: commands their origin does not hold by then
    /// count as failed. The fleet then runs on until it is quiescent
    /// (at most [`SETTLE_CAP_NS`] more), so the convergence gate never
    /// judges a fleet caught mid-decision.
    pub drain_end: Nanos,
    /// The latency limit of the workload's service-level objective.
    pub slo: Nanos,
    /// Scheduled crashes of the coordinator of the moment.
    pub coordinator_crashes: Vec<Nanos>,
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A draw in `0..bound` from the cell's seed stream.
fn draw(seed: u64, stream: u64, bound: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream)) % bound
}

impl Cell {
    fn base(n: usize, drain_end_ns: u64, seed: u64) -> ServiceScenario {
        ServiceScenario {
            online: OnlineScenario {
                n,
                period: PERIOD,
                delay: (Nanos::from_millis(2), Nanos::from_millis(10)),
                duration: Nanos::from_nanos(drain_end_ns + SETTLE_CAP_NS),
                sample_every: TICK,
                seed,
                ..OnlineScenario::default()
            },
            ..ServiceScenario::default()
        }
    }

    /// `count` commands at `rate`/s, round-robin over `clients`, each
    /// due at its slot of the schedule plus a seeded sub-tick offset (so
    /// latencies do not all sit on the tick grid).
    fn schedule(
        mut scenario: ServiceScenario,
        rate: u64,
        count: u64,
        clients: &[usize],
    ) -> ServiceScenario {
        let gap = SEC / rate;
        let seed = scenario.online.seed;
        for i in 0..count {
            let at = WARMUP_NS + i * gap + draw(seed, 1 << 32 | i, TICK.as_nanos());
            let client = clients[usize::try_from(i).expect("index") % clients.len()];
            scenario = scenario.command(Nanos::from_nanos(at), p(client), i + 1);
        }
        scenario
    }

    fn calm(n: usize, rate: u64, count: u64, drain_ns: u64, seed: u64) -> Cell {
        let drain_end = WARMUP_NS + count * SEC / rate + drain_ns;
        let scenario = Self::base(n, drain_end, seed);
        let clients: Vec<usize> = (0..n).collect();
        Cell {
            scenario: Self::schedule(scenario, rate, count, &clients),
            rate,
            first_due: Nanos::from_nanos(WARMUP_NS),
            drain_end: Nanos::from_nanos(drain_end),
            slo: CALM_SLO,
            coordinator_crashes: Vec::new(),
        }
    }

    /// `faults_n5`: 5% loss, heal-merge and compaction; `p4` is cut off
    /// for 5 s of every 30 s, and the coordinators `p0` then `p1` crash
    /// at seeded instants between partitions. Clients use `p2..p4`.
    fn faults(seed: u64) -> Cell {
        const RATE: u64 = 5;
        let drain_end = WARMUP_NS + FAULT_LOAD_NS + FAULT_DRAIN_NS;
        let mut scenario = Self::base(5, drain_end, seed);
        scenario.online.loss = 0.05;
        scenario.online.heal_merge = true;
        scenario = scenario.with_compaction(CompactionPolicy::retain_last(16));
        let mut schedule = FaultSchedule::new();
        let cycles = FAULT_LOAD_NS / FAULT_CYCLE_NS;
        for c in 0..cycles {
            let at = WARMUP_NS + c * FAULT_CYCLE_NS + 10 * SEC + draw(seed, c, 2 * SEC);
            schedule = schedule
                .at(
                    Nanos::from_nanos(at),
                    Fault::Partition(ProcessSet::singleton(p(4))),
                )
                .at(Nanos::from_nanos(at + FAULT_HOLD_NS), Fault::Heal);
        }
        let crashes: Vec<Nanos> = [(0, 25 * SEC), (1, 85 * SEC)]
            .into_iter()
            .map(|(who, offset)| {
                let at = WARMUP_NS + offset + draw(seed, 100 + who, 3 * SEC);
                schedule = std::mem::take(&mut schedule)
                    .at(Nanos::from_nanos(at), Fault::Crash(p(who as usize)));
                Nanos::from_nanos(at)
            })
            .collect();
        scenario.online.schedule = schedule;
        Cell {
            scenario: Self::schedule(scenario, RATE, FAULT_LOAD_NS / SEC * RATE, &[2, 3, 4]),
            rate: RATE,
            first_due: Nanos::from_nanos(WARMUP_NS),
            drain_end: Nanos::from_nanos(drain_end),
            slo: FAULT_SLO,
            coordinator_crashes: crashes,
        }
    }

    /// The cell cut short for tests: commands due before `until_s`
    /// seconds, the faults before then, and a 5 s drain.
    #[cfg(test)]
    pub fn until(mut self, until_s: u64) -> Cell {
        let until = Nanos::from_nanos(WARMUP_NS + until_s * SEC);
        self.scenario.commands.retain(|&(at, _, _)| at < until);
        let drain_end = until.as_nanos() + 5 * SEC;
        self.drain_end = Nanos::from_nanos(drain_end);
        self.scenario.online.duration = Nanos::from_nanos(drain_end + SETTLE_CAP_NS);
        self
    }
}
