//! Exactness of the arrival estimators against their recompute-per-query
//! definitions.
//!
//! The estimators derive their statistics and freshness point once per
//! heartbeat in `observe`; every query is a field read or one φ
//! evaluation. This file keeps test-local reference copies that
//! recompute everything on every query — window mean and variance from
//! the raw samples, Chen's deadline from the mean, φ's normal model on
//! every `phi` call and its threshold crossing by geometric probe plus
//! bisection — and checks both agree **exactly**: `deadline()` and
//! `is_suspect(t)` equal, `suspicion_level(t)` and `phi(t)` equal by
//! `to_bits()`, at random query instants (and on both sides of every
//! deadline) after every arrival of a random sequence. The sequences
//! cover the bootstrap phase, window wrap-around, duplicate timestamps,
//! outage-sized gaps and φ's probe-cap case.

use std::collections::VecDeque;

use proptest::prelude::*;
use rfd_net::clock::Nanos;
use rfd_net::estimator::{
    ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
};

/// Recompute-per-query reference of one estimator.
trait Reference {
    fn observe(&mut self, now: Nanos);
    fn deadline(&self) -> Option<Nanos>;
    fn is_suspect(&self, now: Nanos) -> bool {
        matches!(self.deadline(), Some(d) if now > d)
    }
    fn suspicion_level(&self, now: Nanos) -> f64;
}

/// Silence over the deadline span, the level of every non-accrual
/// estimator.
fn span_ratio(last: Option<Nanos>, deadline: Option<Nanos>, now: Nanos) -> f64 {
    match (last, deadline) {
        (Some(last), Some(deadline)) => {
            let span = deadline.saturating_sub(last).as_nanos().max(1);
            now.saturating_sub(last).as_nanos() as f64 / span as f64
        }
        _ => 0.0,
    }
}

/// The sliding window, recomputing its statistics on every read.
struct RefWindow {
    capacity: usize,
    samples: VecDeque<u64>,
    last_arrival: Option<Nanos>,
}

impl RefWindow {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            samples: VecDeque::new(),
            last_arrival: None,
        }
    }

    fn record(&mut self, now: Nanos) {
        let gap = self
            .last_arrival
            .map(|prev| now.saturating_sub(prev).as_nanos());
        self.last_arrival = Some(now);
        if let Some(g) = gap {
            if self.samples.len() == self.capacity {
                self.samples.pop_front();
            }
            self.samples.push_back(g);
        }
    }

    fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&g| g as f64).sum::<f64>() / self.samples.len() as f64)
        }
    }

    fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        if self.samples.len() < 2 {
            return Some(0.0);
        }
        let var = self
            .samples
            .iter()
            .map(|&g| {
                let d = g as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.samples.len() as f64;
        Some(var)
    }
}

struct RefFixed {
    timeout: Nanos,
    last: Option<Nanos>,
}

impl Reference for RefFixed {
    fn observe(&mut self, now: Nanos) {
        self.last = Some(now);
    }

    fn deadline(&self) -> Option<Nanos> {
        self.last.map(|l| l.saturating_add(self.timeout))
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        match self.last {
            None => 0.0,
            Some(l) => now.saturating_sub(l).as_nanos() as f64 / self.timeout.as_nanos() as f64,
        }
    }
}

struct RefChen {
    window: RefWindow,
    alpha: Nanos,
    bootstrap: Nanos,
}

impl Reference for RefChen {
    fn observe(&mut self, now: Nanos) {
        self.window.record(now);
    }

    fn deadline(&self) -> Option<Nanos> {
        let last = self.window.last_arrival?;
        let expected_gap = match self.window.mean() {
            Some(mean) if self.window.samples.len() >= 2 => Nanos::from_nanos(mean as u64),
            _ => self.bootstrap,
        };
        Some(last.saturating_add(expected_gap).saturating_add(self.alpha))
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        span_ratio(self.window.last_arrival, self.deadline(), now)
    }
}

struct RefJacobson {
    srtt: Option<f64>,
    rttvar: f64,
    beta: f64,
    last: Option<Nanos>,
    bootstrap: Nanos,
}

impl Reference for RefJacobson {
    fn observe(&mut self, now: Nanos) {
        if let Some(prev) = self.last {
            let mut sample = now.saturating_sub(prev).as_nanos() as f64;
            match self.srtt {
                None => {
                    self.srtt = Some(sample);
                    self.rttvar = sample / 2.0;
                }
                Some(srtt) => {
                    let ceiling = 2.0 * (srtt + self.beta * self.rttvar);
                    if sample > ceiling {
                        sample = ceiling;
                    }
                    let err = (sample - srtt).abs();
                    self.rttvar = 0.75 * self.rttvar + 0.25 * err;
                    self.srtt = Some(0.875 * srtt + 0.125 * sample);
                }
            }
        }
        self.last = Some(now);
    }

    fn deadline(&self) -> Option<Nanos> {
        let last = self.last?;
        let rto = match self.srtt {
            Some(srtt) => Nanos::from_nanos((srtt + self.beta * self.rttvar) as u64),
            None => self.bootstrap,
        };
        Some(last.saturating_add(rto))
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        span_ratio(self.last, self.deadline(), now)
    }
}

struct RefPhi {
    window: RefWindow,
    threshold: f64,
    min_std: f64,
    bootstrap: Nanos,
}

impl RefPhi {
    fn phi(&self, now: Nanos) -> f64 {
        let Some(last) = self.window.last_arrival else {
            return 0.0;
        };
        let elapsed = now.saturating_sub(last).as_nanos() as f64;
        let (mean, std) = match (self.window.mean(), self.window.variance()) {
            (Some(m), Some(v)) if self.window.samples.len() >= 2 => (m, v.sqrt().max(self.min_std)),
            _ => {
                let b = self.bootstrap.as_nanos() as f64;
                (b / 2.0, b / 4.0)
            }
        };
        let y = (elapsed - mean) / std;
        let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if elapsed > mean {
            e / (1.0 + e)
        } else {
            1.0 - 1.0 / (1.0 + e)
        };
        -p_later.max(1e-12).log10()
    }
}

impl Reference for RefPhi {
    fn observe(&mut self, now: Nanos) {
        self.window.record(now);
    }

    fn deadline(&self) -> Option<Nanos> {
        const PROBE_CAP: u64 = 1 << 51;
        let last = self.window.last_arrival?;
        let mut lo = 0u64;
        let mut hi = self.bootstrap.as_nanos().max(1);
        while self.phi(last.saturating_add(Nanos::from_nanos(hi))) < self.threshold {
            if hi >= PROBE_CAP {
                return None;
            }
            lo = hi;
            hi = hi.saturating_mul(2).min(PROBE_CAP);
        }
        for _ in 0..40 {
            let mid = lo + (hi - lo) / 2;
            if self.phi(last.saturating_add(Nanos::from_nanos(mid))) < self.threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(last.saturating_add(Nanos::from_nanos(hi)))
    }

    fn is_suspect(&self, now: Nanos) -> bool {
        self.window.last_arrival.is_some() && self.phi(now) >= self.threshold
    }

    fn suspicion_level(&self, now: Nanos) -> f64 {
        self.phi(now)
    }
}

/// One arrival: a gap drawn from the kind `selector` picks (regular
/// jitter, sub-microsecond, duplicate timestamp, outage, or φ's
/// probe-cap scale), plus a raw draw for a query offset.
type Step = (u8, u64, u64);

fn gap_ns(selector: u8, raw: u64) -> u64 {
    match selector {
        // Heartbeat-scale jitter: 1–400 ms.
        0..=9 => 1_000_000 + raw % 399_000_000,
        // Sub-microsecond gaps.
        10 | 11 => raw % 1_000,
        // Duplicate timestamp.
        12 => 0,
        // Outages: 1 s – 1 h.
        13 | 14 => 1_000_000_000 + raw % 3_599_000_000_000,
        // ~4·10¹⁵ ns: the window's spread puts φ's crossing past the
        // probe cap.
        _ => 3_000_000_000_000_000 + raw % 2_000_000_000_000_000,
    }
}

/// The query instants after an arrival at `last`: random offsets at
/// heartbeat and outage scale, an instant before `last`, and both sides
/// of the reference deadline.
fn query_instants(last: Nanos, raw: u64, deadline: Option<Nanos>) -> Vec<Nanos> {
    let mut at = vec![
        last,
        last.saturating_add(Nanos::from_nanos(raw % 2_000_000_000)),
        last.saturating_add(Nanos::from_nanos(raw % 10_000_000_000_000)),
        Nanos::from_nanos(last.as_nanos().saturating_sub(raw % 1_000_000)),
    ];
    if let Some(d) = deadline {
        at.extend([
            Nanos::from_nanos(d.as_nanos().saturating_sub(1)),
            d,
            d.saturating_add(Nanos::from_nanos(1)),
        ]);
    }
    at
}

/// Feeds `steps` to both sides, comparing every query before the first
/// arrival and after each one; `extra` adds estimator-specific checks.
fn check_exact<E: ArrivalEstimator, R: Reference>(
    mut est: E,
    mut reference: R,
    steps: &[Step],
    extra: impl Fn(&E, &R, Nanos),
) {
    let name = est.name();
    let mut now = Nanos::ZERO;
    let compare = |est: &E, reference: &R, last: Nanos, raw: u64| {
        let deadline = reference.deadline();
        assert_eq!(est.deadline(), deadline, "{name}: deadline after {last}");
        for t in query_instants(last, raw, deadline) {
            assert_eq!(
                est.is_suspect(t),
                reference.is_suspect(t),
                "{name}: is_suspect({t})"
            );
            assert_eq!(
                est.suspicion_level(t).to_bits(),
                reference.suspicion_level(t).to_bits(),
                "{name}: suspicion_level({t})"
            );
            extra(est, reference, t);
        }
    };
    compare(&est, &reference, now, 12_345_678);
    for (k, &(selector, raw_gap, raw_query)) in steps.iter().enumerate() {
        if k > 0 {
            now = now.saturating_add(Nanos::from_nanos(gap_ns(selector, raw_gap)));
        }
        est.observe(now);
        reference.observe(now);
        compare(&est, &reference, now, raw_query);
    }
}

fn check_all(window: usize, alpha_ms: u64, bootstrap_ms: u64, threshold: f64, steps: &[Step]) {
    let alpha = Nanos::from_millis(alpha_ms);
    let bootstrap = Nanos::from_millis(bootstrap_ms);
    check_exact(
        FixedTimeout::new(bootstrap),
        RefFixed {
            timeout: bootstrap,
            last: None,
        },
        steps,
        |_, _, _| {},
    );
    check_exact(
        ChenEstimator::new(alpha, window, bootstrap),
        RefChen {
            window: RefWindow::new(window),
            alpha,
            bootstrap,
        },
        steps,
        |_, _, _| {},
    );
    check_exact(
        JacobsonEstimator::new(4.0, bootstrap),
        RefJacobson {
            srtt: None,
            rttvar: 0.0,
            beta: 4.0,
            last: None,
            bootstrap,
        },
        steps,
        |_, _, _| {},
    );
    check_exact(
        PhiAccrual::new(threshold, window, bootstrap),
        RefPhi {
            window: RefWindow::new(window),
            threshold,
            min_std: 1e5,
            bootstrap,
        },
        steps,
        |est: &PhiAccrual, reference: &RefPhi, t| {
            assert_eq!(est.phi(t).to_bits(), reference.phi(t).to_bits(), "phi({t})");
        },
    );
}

const THRESHOLDS: [f64; 4] = [0.5, 1.0, 3.0, 8.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random arrival sequences: windows of 2–19 samples wrap many
    /// times over 0–59 arrivals, mixing every gap kind.
    #[test]
    fn queries_match_the_recompute_reference(
        window in 2usize..20,
        alpha_ms in 0u64..100,
        bootstrap_ms in 1u64..1_000,
        threshold in 0usize..4,
        steps in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 0..60),
    ) {
        check_all(window, alpha_ms, bootstrap_ms, THRESHOLDS[threshold], &steps);
    }
}

/// φ's probe-cap case: two arrivals 1 ns apart, then a ~4·10¹⁵ ns gap.
/// The window's spread keeps φ below the threshold past the probe cap,
/// so the deadline is `None`; every query must still match.
#[test]
fn probe_cap_case_matches_the_reference() {
    let steps = [(12, 0, 7), (10, 1, 1 << 50), (15, 1_000_000_000_000_000, 3)];
    let mut phi = PhiAccrual::new(3.0, 16, Nanos::from_millis(500));
    for at in [0, 1, 4_000_000_000_000_001] {
        phi.observe(Nanos::from_nanos(at));
    }
    assert_eq!(phi.deadline(), None, "precondition: probe saturates");
    check_all(16, 20, 500, 3.0, &steps);
}
