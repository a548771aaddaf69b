//! Passes, the metrics computed from them, provenance and output.

use crate::measure::{ms, run_cell, CellOutcome, Histogram};
use crate::probe::{self, Call, Probe, TracedEndpoint, TracedEstimator, FRAME_KINDS};
use crate::reference;
use crate::workload::{estimator, Workload};
use std::fmt::Write as _;

/// One pass: every cell of the workload, run once.
#[derive(Debug)]
pub struct Pass {
    pub cells: Vec<CellOutcome>,
    /// Traced passes: the probe's counts, sampled timings and spans.
    pub probe: Option<Probe>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&CellOutcome) -> u64) -> u64 {
        self.cells.iter().map(f).sum()
    }

    fn max(&self, f: impl Fn(&CellOutcome) -> u64) -> u64 {
        self.cells.iter().map(f).max().unwrap_or(0)
    }

    fn step_ns(&self) -> u64 {
        self.sum(|c| c.step_ns)
    }

    /// Scales this pass's wall times to the nominal host speed, from
    /// the reference kernel runs interleaved with its steps.
    fn speed_factor(&self) -> f64 {
        reference::speed_factor(self.sum(|c| c.reference_ns), self.sum(|c| c.reference_runs))
    }
}

/// Runs every cell of `workload` once. A traced pass wraps the
/// endpoints and estimators; only the `first` traced pass keeps its
/// spans once done.
pub fn run_pass(workload: Workload, seed: u64, traced: bool, first: bool) -> Result<Pass, String> {
    if traced {
        probe::reset();
    }
    let cells = (0..workload.cells())
        .map(|k| {
            let build = || workload.cell(seed, k);
            if traced {
                run_cell(build, TracedEstimator(estimator()), TracedEndpoint, true)
            } else {
                run_cell(build, estimator(), |endpoint| endpoint, false)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut probe = traced.then(probe::take);
    if let Some(p) = probe.as_mut().filter(|_| !first) {
        p.spans = Vec::new();
    }
    Ok(Pass { cells, probe })
}

/// Every pass, traced or not, must reproduce the first pass's
/// virtual-time results bit for bit: the clock is virtual and every
/// draw is seeded, and the wrappers must not change behaviour.
pub fn check_deterministic(first: &Pass, pass: &Pass) -> Result<(), String> {
    for (k, (a, b)) in first.cells.iter().zip(&pass.cells).enumerate() {
        if a.virtual_fingerprint() != b.virtual_fingerprint() {
            return Err(format!(
                "cell {k} diverged in virtual time on a repeated pass"
            ));
        }
    }
    Ok(())
}

/// Nearest-rank percentile of unsorted samples; `0` when empty.
fn percentile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn pooled(cells: &[CellOutcome], f: impl Fn(&CellOutcome) -> &Vec<u64>) -> Vec<u64> {
    cells.iter().flat_map(|c| f(c).iter().copied()).collect()
}

/// `count` commands per virtual second of the cells' busy spans (first
/// command due → last command its origin held by the end of the drain).
fn per_busy_second<'a>(
    cells: impl IntoIterator<Item = &'a CellOutcome>,
    count: impl Fn(&CellOutcome) -> u64,
) -> f64 {
    let (n, span) = cells
        .into_iter()
        .fold((0, 0), |(n, span), c| (n + count(c), span + c.busy_span_ns));
    n as f64 / (span.max(1) as f64 / 1e9)
}

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Table {
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but not part of the result line.
    pub info: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Table {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let mut body = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                body,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        )
    }
}

fn counts(table: &mut Table, pass: &Pass) {
    table.attempted = pass.sum(|c| c.offered);
    table.failed = pass.sum(|c| c.refused);
}

/// The end-to-end metrics, from untraced passes. Virtual-time metrics
/// come from the first pass (every pass reproduces them); wall metrics
/// are medians over passes.
pub fn end_to_end(workload: Workload, passes: &[Pass]) -> Table {
    let mut t = Table::default();
    let first = &passes[0];
    counts(&mut t, first);
    let cells = &first.cells[..];
    // The ladder's latency guard is its lowest, fixed rung; its
    // throughput is its top, overloaded rung.
    let (latency_cells, rate_cells) = match workload {
        Workload::LadderN5 => (&cells[..1], &cells[cells.len() - 1..]),
        _ => (cells, cells),
    };
    // Commands served within the latency limit per virtual second, at
    // the best of the workload's offered rates (cells of one rate pool).
    let max_rate = cells
        .iter()
        .map(|c| {
            let same_rate = cells.iter().filter(|o| o.rate == c.rate);
            per_busy_second(same_rate, |c| c.within_slo)
        })
        .fold(0.0, f64::max);
    // Wall figures per pass, raw and scaled to the nominal host speed.
    let wall = |scale: bool, f: &dyn Fn(&Pass) -> f64| {
        median(
            passes
                .iter()
                .map(|p| f(p) * if scale { p.speed_factor() } else { 1.0 })
                .collect(),
        )
    };
    let setup_s = |p: &Pass| median(p.cells.iter().map(|c| c.setup_ns as f64 / 1e9).collect());
    let us_per_decision =
        |p: &Pass| p.step_ns() as f64 / 1e3 / p.sum(|c| c.decisions).max(1) as f64;
    let ms_per_virtual_s = |p: &Pass| ms(p.step_ns()) / (p.sum(|c| c.virtual_ns) as f64 / 1e9);
    t.push("setup_s", wall(true, &setup_s), "s");
    t.push("wall_us_per_decision", wall(true, &us_per_decision), "us");
    t.push("wall_ms_per_virtual_s", wall(true, &ms_per_virtual_s), "ms");
    for (name, value, unit) in [
        ("raw.setup_s", wall(false, &setup_s), "s"),
        (
            "raw.wall_us_per_decision",
            wall(false, &us_per_decision),
            "us",
        ),
        (
            "raw.wall_ms_per_virtual_s",
            wall(false, &ms_per_virtual_s),
            "ms",
        ),
        (
            "reference_kernel_us",
            wall(false, &|p| {
                ratio(p.sum(|c| c.reference_ns), p.sum(|c| c.reference_runs)) / 1e3
            }),
            "us",
        ),
    ] {
        t.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
    t.push(
        "decided_per_s",
        per_busy_second(rate_cells, |c| c.decided_in_drain),
        "1/s",
    );
    t.push("max_rate_under_slo", max_rate, "1/s");
    let commit = pooled(latency_cells, |c| &c.commit_ns);
    t.push("commit_p50_ms", ms(percentile(&commit, 0.50)), "ms");
    t.push("commit_p99_ms", ms(percentile(&commit, 0.99)), "ms");
    t.push(
        "apply_all_p99_ms",
        ms(percentile(
            &pooled(latency_cells, |c| &c.apply_all_ns),
            0.99,
        )),
        "ms",
    );
    t.push(
        "decided_frac",
        ratio(first.sum(|c| c.decided_in_drain), first.sum(|c| c.offered)),
        "ratio",
    );
    let outages = pooled(cells, |c| &c.crash_outage_ns);
    let outage = if outages.is_empty() {
        first.max(|c| c.stall_ns)
    } else {
        percentile(&outages, 0.5)
    };
    t.push("outage_ms", ms(outage), "ms");
    t.push(
        "peak_heap_mb",
        first.max(|c| c.heap_peak_bytes) as f64 / (1024.0 * 1024.0),
        "MB",
    );
    t
}

/// A traced pass's step time split across the layers: the sampled
/// ticks' costs, less the calibrated cost of timing them, scaled up to
/// every call and tick of the pass.
struct Timing {
    /// Step time of the pass, less the overhead of the timed calls.
    step_ns: f64,
    /// Per [`probe::Call`]: the mean cost of one call.
    per_call_ns: [f64; 3],
    transport_ns: f64,
    estimator_ns: f64,
    self_ns: f64,
}

fn timing(pass: &Pass) -> Timing {
    let p = pass.probe.as_ref().expect("traced pass");
    let o = p.overheads;
    let calls = [p.sends, p.recv_calls, p.observes + p.queries];
    let per_call_ns: [f64; 3] = std::array::from_fn(|k| {
        let timed = p.sampled_calls[k] as f64;
        ((p.sampled_ns[k] as f64 - o.inside_ns * timed) / timed.max(1.0)).max(0.0)
    });
    let scaled = |k: usize| per_call_ns[k] * calls[k] as f64;
    let timed_calls = p.sampled_calls.iter().sum::<u64>() as f64;
    // A sampled tick's self time still holds the part of each timed
    // call's overhead that falls outside its span.
    let sampled_self = p.sampled_self_ns as f64 - (o.extra_ns - o.inside_ns) * timed_calls;
    Timing {
        step_ns: pass.step_ns() as f64 - o.extra_ns * timed_calls,
        per_call_ns,
        transport_ns: scaled(0) + scaled(1),
        estimator_ns: scaled(2),
        self_ns: sampled_self * ratio(pass.sum(|c| c.ticks), p.sampled_ticks),
    }
}

/// The per-layer metrics, from the traced run: counts from its first
/// traced pass (they repeat exactly), timings as medians over its traced
/// passes, the runner's step distribution and allocations from its
/// untraced passes.
pub fn per_layer(untraced: &[Pass], traced: &[Pass]) -> Table {
    let mut t = Table::default();
    let pass = &traced[0];
    counts(&mut t, pass);
    let p = pass.probe.as_ref().expect("traced pass");
    let decisions = pass.sum(|c| c.decisions);
    let ticks = pass.sum(|c| c.ticks);
    let per_decision = |x: u64| ratio(x, decisions);
    let timed = |f: &dyn Fn(&Timing, &Probe) -> f64| {
        median(
            traced
                .iter()
                .map(|pass| f(&timing(pass), pass.probe.as_ref().expect("traced pass")))
                .collect(),
        )
    };
    let step_pct = |q: f64| {
        median(
            untraced
                .iter()
                .map(|pass| {
                    let mut steps = Histogram::new();
                    for c in &pass.cells {
                        steps.merge(&c.step_histogram);
                    }
                    steps.percentile(q) / 1e3
                })
                .collect(),
        )
    };

    t.push("runner.step_us_p50", step_pct(0.50), "us");
    t.push("runner.step_us_p99", step_pct(0.99), "us");
    t.push("runner.ticks", ticks as f64, "count");

    t.push(
        "service.self_ns_per_tick",
        timed(&|tm, _| tm.self_ns / ticks.max(1) as f64),
        "ns",
    );
    t.push(
        "service.pending_max",
        pass.max(|c| c.pending_max) as f64,
        "count",
    );
    t.push(
        "service.retransmits_per_decision",
        per_decision(pass.sum(|c| c.retransmits)),
        "1/decision",
    );
    t.push(
        "service.duplicates_per_decision",
        per_decision(pass.sum(|c| c.duplicates)),
        "1/decision",
    );
    t.push(
        "service.malformed_frames",
        pass.sum(|c| c.malformed) as f64,
        "count",
    );

    t.push(
        "transport.datagrams_per_decision",
        per_decision(p.sends),
        "1/decision",
    );
    t.push(
        "transport.bytes_per_decision",
        per_decision(p.send_bytes),
        "B/decision",
    );
    t.push(
        "transport.send_ns_per_datagram",
        timed(&|tm, _| tm.per_call_ns[Call::Send as usize]),
        "ns",
    );
    t.push(
        "transport.recv_ns_per_datagram",
        timed(&|tm, p| {
            tm.per_call_ns[Call::Recv as usize] * p.sampled_calls[Call::Recv as usize] as f64
                / p.sampled_recv_datagrams.max(1) as f64
        }),
        "ns",
    );
    t.push(
        "transport.busy_frac",
        timed(&|tm, _| tm.transport_ns / tm.step_ns),
        "ratio",
    );
    t.push(
        "transport.dropped_frac",
        ratio(pass.sum(|c| c.net_lost), pass.sum(|c| c.net_sent)),
        "ratio",
    );

    for (kind, &count) in FRAME_KINDS.iter().zip(&p.frames) {
        t.push(
            format!("codec.frames_per_decision.{kind}"),
            per_decision(count),
            "1/decision",
        );
    }
    t.push(
        "codec.batched_frac",
        ratio(p.batched_frames, p.frames.iter().sum()),
        "ratio",
    );

    t.push(
        "estimator.observes_per_tick",
        ratio(p.observes, ticks),
        "1/tick",
    );
    t.push(
        "estimator.queries_per_tick",
        ratio(p.queries, ticks),
        "1/tick",
    );
    t.push(
        "estimator.queries_per_observe",
        ratio(p.queries, p.observes),
        "ratio",
    );
    t.push(
        "estimator.ns_per_call",
        timed(&|tm, _| tm.per_call_ns[Call::Estimator as usize]),
        "ns",
    );
    t.push(
        "estimator.busy_frac",
        timed(&|tm, _| tm.estimator_ns / tm.step_ns),
        "ratio",
    );

    t.push(
        "membership.view_changes",
        pass.sum(|c| c.view_changes) as f64,
        "count",
    );
    t.push(
        "membership.false_exclusions",
        pass.sum(|c| c.false_exclusions) as f64,
        "count",
    );
    t.push(
        "membership.split_brain_ms",
        ms(pass.sum(|c| c.split_brain_ns)),
        "ms",
    );

    let rejoins = pooled(&pass.cells, |c| &c.rejoin_ns);
    t.push(
        "log.retained_max",
        pass.max(|c| c.retained_max) as f64,
        "count",
    );
    t.push(
        "log.entries_transferred",
        pass.sum(|c| c.transferred) as f64,
        "count",
    );
    t.push(
        "log.snapshots_installed",
        pass.sum(|c| c.snapshots_installed) as f64,
        "count",
    );
    t.push(
        "log.sync_bytes_per_rejoin",
        ratio(pass.sum(|c| c.sync_bytes), rejoins.len() as u64),
        "B",
    );
    t.push("log.rejoin_ms_p99", ms(percentile(&rejoins, 0.99)), "ms");

    let plain = &untraced[0];
    t.push(
        "alloc.per_decision",
        ratio(plain.sum(|c| c.step_allocations), decisions),
        "1/decision",
    );
    t.push(
        "alloc.per_tick",
        ratio(plain.sum(|c| c.step_allocations), ticks),
        "1/tick",
    );

    let overhead = median(
        traced
            .iter()
            .zip(untraced)
            .map(|(tr, un)| tr.step_ns() as f64 / un.step_ns().max(1) as f64)
            .collect(),
    );
    t.push("trace.overhead_ratio", overhead, "ratio");
    t.push(
        "trace.unattributed_frac",
        timed(&|tm, _| (tm.step_ns - tm.transport_ns - tm.estimator_ns - tm.self_ns) / tm.step_ns),
        "ratio",
    );
    t
}

/// Where the run came from, printed with every result so wall figures
/// from different hosts are never compared blind.
#[derive(Debug)]
pub struct Provenance {
    lines: Vec<(&'static str, String)>,
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Provenance {
    pub fn collect(workload: Workload, seed: u64, seconds: u64, passes: usize) -> Self {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        Provenance {
            lines: vec![
                ("workload", workload.name().to_owned()),
                ("seed", seed.to_string()),
                ("run_seconds", seconds.to_string()),
                ("passes", passes.to_string()),
                ("nproc", nproc.to_string()),
                (
                    "rustc",
                    command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
                ),
                (
                    "git_rev",
                    // Only the checkout's own repository: git must not go
                    // looking in the directories above it.
                    std::path::Path::new(".git")
                        .exists()
                        .then(|| command_output("git", &["rev-parse", "--short=12", "HEAD"]))
                        .flatten()
                        .unwrap_or_else(|| "none (not a git checkout)".into()),
                ),
            ],
        }
    }

    pub fn print(&self) {
        for (key, value) in &self.lines {
            println!("provenance.{key}: {value}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .lines
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Writes the first traced pass's spans as JSON lines under
/// `.bench_out/`, returning the path.
pub fn write_spans(
    workload: Workload,
    seed: u64,
    traced: &[Pass],
    provenance: &Provenance,
) -> Result<String, String> {
    let pass = &traced[0];
    let probe = pass.probe.as_ref().expect("traced pass");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"provenance\": {}, \"sample_one_in\": {}, \"spans_dropped\": {}, \"timer_inside_ns\": {}, \"timer_extra_ns\": {}}}",
        provenance.json(),
        probe::SAMPLE_ONE_IN,
        probe.spans_dropped,
        probe.overheads.inside_ns,
        probe.overheads.extra_ns
    );
    for s in &probe.spans {
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"tick\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            s.name, s.tick, s.start_ns, s.dur_ns
        );
    }
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |x| x.to_string());
    for (k, cell) in pass.cells.iter().enumerate() {
        for c in &cell.lifecycle {
            let _ = writeln!(
                out,
                "{{\"name\": \"command\", \"cell\": {k}, \"value\": {}, \"due_ns\": {}, \"submitted_ns\": {}, \
                 \"decided_origin_ns\": {}, \"applied_all_ns\": {}}}",
                c.value,
                c.due,
                opt(c.submitted),
                opt(c.at_origin),
                opt(c.applied_all)
            );
        }
    }
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "svcbench-{}-seed{seed}.trace.jsonl",
        workload.name()
    ));
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Cell;

    fn plain(cell: &Cell) -> CellOutcome {
        let cell = cell.clone();
        run_cell(move || cell, estimator(), |endpoint| endpoint, false).expect("correctness gate")
    }

    fn traced(cell: &Cell) -> (CellOutcome, Probe) {
        let cell = cell.clone();
        probe::reset();
        let out = run_cell(
            move || cell,
            TracedEstimator(estimator()),
            TracedEndpoint,
            true,
        )
        .expect("correctness gate");
        (out, probe::take())
    }

    #[test]
    fn a_seed_repeats_bit_for_bit_traced_or_not() {
        for workload in Workload::ALL {
            let cell = workload.cell(7, 0).until(35);
            let a = plain(&cell);
            let b = plain(&cell);
            assert!(a.decisions > 0, "{}", workload.name());
            assert_eq!(
                a.virtual_fingerprint(),
                b.virtual_fingerprint(),
                "{}",
                workload.name()
            );
            let (ta, pa) = traced(&cell);
            let (tb, pb) = traced(&cell);
            // The wrappers observe; they never change what the fleet does.
            assert_eq!(
                ta.virtual_fingerprint(),
                a.virtual_fingerprint(),
                "{}",
                workload.name()
            );
            assert_eq!(
                tb.virtual_fingerprint(),
                a.virtual_fingerprint(),
                "{}",
                workload.name()
            );
            assert_eq!(pa.counts(), pb.counts(), "{}", workload.name());
            assert!(pa.sends > 0 && pa.queries > 0, "{}", workload.name());
        }
    }

    #[test]
    fn another_seed_draws_other_faults_and_losses() {
        let a = Workload::FaultsN5.cell(1, 0);
        let b = Workload::FaultsN5.cell(2, 0);
        let times = |c: &Cell| -> Vec<u64> {
            c.scenario
                .online
                .schedule
                .events()
                .iter()
                .map(|(at, _)| at.as_nanos())
                .collect()
        };
        assert_ne!(times(&a), times(&b));
        let (oa, ob) = (plain(&a.until(35)), plain(&b.until(35)));
        assert!(oa.net_lost > 0 && ob.net_lost > 0);
        assert_ne!(oa.virtual_fingerprint(), ob.virtual_fingerprint());
        assert_ne!((oa.net_sent, oa.net_lost), (ob.net_sent, ob.net_lost));
    }

    #[test]
    fn histogram_percentiles_land_within_a_bucket() {
        let mut h = Histogram::new();
        for ns in 1..=1_000u64 {
            h.record(ns * 1_000);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.percentile(q);
            assert!((got - exact).abs() / exact < 0.04, "p{q}: {got} vs {exact}");
        }
        assert_eq!(Histogram::new().percentile(0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut t = Table {
            attempted: 3,
            failed: 0,
            ..Table::default()
        };
        t.push("setup_s", 0.25, "s");
        t.push("outage_ms", 1.5, "ms");
        assert_eq!(
            t.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"outage_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
