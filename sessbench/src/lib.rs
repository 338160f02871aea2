//! Session benchmark for the anonet workspace.
//!
//! Times whole guarded counting sessions from outside the library, in
//! one process per workload on one thread, and splits them by layer.
//! A run is a sequence of cycles. Each cycle sets the workload up afresh
//! (builds the worst-case twin and, for `leader-replay`, simulates its
//! executions, and fixes the expected verdicts), then runs every session
//! kind once, in an order drawn from the seed. The first cycles are an
//! untimed warm-up, gated like the others; the measured cycles follow
//! until the time is up and at least [`MIN_SESSIONS`] sessions ran.
//! Whole cycles keep the per-session counts exact, and set-up, like the
//! sessions, is sampled all through the run.
//!
//! Untraced runs report the end-to-end metrics ([`END_TO_END`]). Traced
//! runs alternate traced and untraced cycles and report the per-layer
//! metrics ([`PER_LAYER`]): mean span per session for each layer, the
//! session time no span covers (`unattributed_ms`) and the cost of the
//! spans themselves (`trace.overhead_ms`).

pub mod probe;
pub mod workloads;

use probe::{Counts, Layer, Probe};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
pub use workloads::{Bench, Workload};

/// Sessions a full-size run measures at least, so that p90 rests on at
/// least 100 samples.
pub const MIN_SESSIONS: usize = 100;

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("session_ms_min", "ms"),
    ("rounds_per_session", "rounds"),
    ("peak_rss_mb", "MiB"),
    ("correct_share", "share"),
];

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("adversary.build_ms", "ms"),
    ("faults.simulate_ms", "ms"),
    ("soa.deliveries", "count"),
    ("soa.histories", "count"),
    ("verdict.kernel_step_ms", "ms"),
    ("verdict.ht_step_ms", "ms"),
    ("kernel_counting.watch_ms", "ms"),
    ("kernel_counting.decision_ms", "ms"),
    ("crt.certified", "count"),
    ("crt.exact_replay", "count"),
    ("transform.to_pd2_ms", "ms"),
    ("verdict.degree_oracle_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("session.traced_ms", "ms"),
    ("session.traced_samples", "count"),
    ("session.p50_ms", "ms"),
    ("session.p90_ms", "ms"),
    ("session.samples", "count"),
    ("session.minor_faults", "count"),
    ("setup.minor_faults", "count"),
];

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed for the order of session kinds within each cycle.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Use the small smoke-test sizes and a short warm-up.
    pub smoke: bool,
    /// Make every expected verdict wrong, to show the gate fails.
    pub tamper: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The per-layer spans of one traced session.
#[derive(Debug, Clone)]
pub struct SessionSpans {
    /// Session kind.
    pub kind: usize,
    /// Session wall time.
    pub wall: Duration,
    /// Spans recorded during the session.
    pub probe: Probe,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No session returned an unexpected verdict.
    pub correct: bool,
    /// Sessions run and checked (warm-up and measured).
    pub attempted: u64,
    /// Sessions whose verdict differed from the expected one.
    pub failed: u64,
    /// One human-readable line on the set-up and untraced session times.
    pub summary: String,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Exact per-session counts of the measured sessions.
    pub counts_per_session: [f64; 4],
    /// Spans of every traced session (empty in untraced runs).
    pub spans: Vec<SessionSpans>,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as the single JSON line the benchmark prints last.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on f64 prints every significant digit and no exponent.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The traced sessions' spans as JSON lines, one per session.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(out, "{{\"kind\": {}, \"wall_ms\": {}", s.kind, ms(s.wall));
            for layer in Layer::ALL {
                if s.probe.calls(layer) > 0 {
                    let _ = write!(out, ", \"{}\": {}", layer.metric(), ms(s.probe.get(layer)));
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `q`-quantile of sorted `v` by linear interpolation between ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The process's peak resident set in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Minor page faults the process has taken so far (`minflt`, the tenth
/// field of `/proc/self/stat`).
fn minor_faults() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; the fields after it do not.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no minflt field in /proc/self/stat".to_string())
}

/// SplitMix64 step: the seed stream for the cycle orders.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order of the `kinds` session kinds in the next cycle (a seeded
/// Fisher–Yates shuffle).
fn cycle_order(kinds: usize, rng: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..kinds).collect();
    for i in (1..kinds).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns a description if set-up fails or the process's peak memory or
/// page faults cannot be read; a wrong verdict is not an error but a
/// failed session.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut rng = cfg.seed;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Warm-up: untimed, but every verdict is still checked.
    let (warm_cycles, warm_time) = if cfg.smoke {
        (1, Duration::ZERO)
    } else {
        (2, Duration::from_millis(500))
    };
    let mut off = Probe::new(false);
    let mut scratch_counts = Counts::default();
    let warm_start = Instant::now();
    let mut cycles = 0;
    while cycles < warm_cycles || warm_start.elapsed() < warm_time {
        let bench = Bench::setup(cfg.workload, cfg.smoke, cfg.tamper, &mut off)?;
        for kind in 0..bench.kinds() {
            let out = bench.session(kind, &mut off, &mut scratch_counts);
            attempted += 1;
            failed += u64::from(!out.ok);
        }
        cycles += 1;
    }

    // Measurement: whole cycles; traced runs alternate traced and
    // untraced cycles so both see the same machine conditions, and count
    // page faults around every set-up and session, outside their timing.
    let min_sessions = if cfg.smoke { 0 } else { MIN_SESSIONS };
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut traced = Probe::new(true);
    let mut setup_probe = Probe::new(cfg.trace);
    let mut counts = Counts::default();
    let mut setups = Vec::new();
    let mut setup_layer_min = [f64::INFINITY; Layer::ALL.len()];
    let mut walls = Vec::new();
    let mut kind_min = Vec::new();
    let mut traced_walls = Vec::new();
    let mut spans = Vec::new();
    let (mut setup_faults, mut session_faults) = (0u64, 0u64);
    let (mut rounds, mut verdicts) = (0u64, 0u64);
    let mut cycle = 0usize;
    let start = Instant::now();
    // At least two cycles, so that a traced run has a traced and an
    // untraced one.
    while cycle < 2 || start.elapsed() < budget || walls.len() + traced_walls.len() < min_sessions {
        let trace_cycle = cfg.trace && cycle % 2 == 1;
        let faults = if cfg.trace { minor_faults()? } else { 0 };
        setup_probe.reset();
        let t = Instant::now();
        // The previous cycle's inputs were dropped at the end of its
        // iteration, so only one set is alive at a time.
        let bench = Bench::setup(cfg.workload, cfg.smoke, cfg.tamper, &mut setup_probe)?;
        let setup_time = t.elapsed();
        if cfg.trace {
            setup_faults += minor_faults()? - faults;
        }
        setups.push(setup_time.as_secs_f64());
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            if setup_probe.calls(layer) > 0 {
                let per_call = ms(setup_probe.get(layer)) / f64::from(setup_probe.calls(layer));
                setup_layer_min[i] = setup_layer_min[i].min(per_call);
            }
        }
        kind_min.resize(bench.kinds(), f64::INFINITY);
        for kind in cycle_order(bench.kinds(), &mut rng) {
            let probe = if trace_cycle { &mut traced } else { &mut off };
            probe.reset();
            let faults = if cfg.trace { minor_faults()? } else { 0 };
            let t = Instant::now();
            let out = bench.session(kind, probe, &mut counts);
            let wall = t.elapsed();
            if cfg.trace {
                session_faults += minor_faults()? - faults;
            }
            attempted += 1;
            failed += u64::from(!out.ok);
            rounds += out.rounds;
            verdicts += out.verdicts;
            if trace_cycle {
                traced_walls.push(ms(wall));
                spans.push(SessionSpans {
                    kind,
                    wall,
                    probe: traced.clone(),
                });
            } else {
                walls.push(ms(wall));
                kind_min[kind] = kind_min[kind].min(ms(wall));
            }
        }
        cycle += 1;
    }
    let peak_rss = peak_rss_mib()?;

    let samples = walls.len() + traced_walls.len();
    let per_session = |c: u64| c as f64 / samples as f64;
    let counts_per_session = [
        per_session(counts.deliveries),
        per_session(counts.histories),
        per_session(counts.crt_certified),
        per_session(counts.crt_exact_replay),
    ];
    walls.sort_by(f64::total_cmp);
    setups.sort_by(f64::total_cmp);
    let summary = format!(
        "{} set-ups: min {:.3} ms, p50 {:.3} ms; {} untraced sessions: min {:.3} ms, p50 {:.3} ms, p90 {:.3} ms",
        setups.len(),
        1e3 * quantile(&setups, 0.0),
        1e3 * quantile(&setups, 0.5),
        walls.len(),
        quantile(&walls, 0.0),
        quantile(&walls, 0.5),
        quantile(&walls, 0.9),
    );

    let metric =
        |(name, unit): (&'static str, &'static str), value: f64| Metric { name, value, unit };
    let metrics: Vec<Metric> = if cfg.trace {
        let n = spans.len() as f64;
        let mut values = vec![0.0; PER_LAYER.len()];
        let mut set = |name: &str, v: f64| {
            let i = PER_LAYER
                .iter()
                .position(|(m, _)| *m == name)
                .expect("known metric");
            values[i] = v;
        };
        // A layer that ran inside the sessions reports its mean span per
        // session; one that ran only in set-up reports its fastest span
        // per call, as `setup_s` reports the fastest set-up (adversary
        // construction everywhere, simulation on leader-replay).
        let mut attributed = 0.0;
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            if spans.iter().any(|s| s.probe.calls(layer) > 0) {
                let mean = spans.iter().map(|s| ms(s.probe.get(layer))).sum::<f64>() / n;
                attributed += mean;
                set(layer.metric(), mean);
            } else if setup_layer_min[i].is_finite() {
                set(layer.metric(), setup_layer_min[i]);
            }
        }
        traced_walls.sort_by(f64::total_cmp);
        let traced_mean = traced_walls.iter().sum::<f64>() / n;
        set("soa.deliveries", counts_per_session[0]);
        set("soa.histories", counts_per_session[1]);
        set("crt.certified", counts_per_session[2]);
        set("crt.exact_replay", counts_per_session[3]);
        set("unattributed_ms", traced_mean - attributed);
        set(
            "trace.overhead_ms",
            quantile(&traced_walls, 0.5) - quantile(&walls, 0.5),
        );
        set("session.traced_ms", traced_mean);
        set("session.traced_samples", n);
        set("session.p50_ms", quantile(&walls, 0.5));
        set("session.p90_ms", quantile(&walls, 0.9));
        set("session.samples", walls.len() as f64);
        set("session.minor_faults", per_session(session_faults));
        set("setup.minor_faults", setup_faults as f64 / cycle as f64);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&k, v)| metric(k, v))
            .collect()
    } else {
        let values = [
            // The fastest set-up and each kind's fastest session: the
            // cost with the least interference from other tenants of the
            // machine, which needs only one quiet moment in the run.
            quantile(&setups, 0.0),
            kind_min.iter().sum::<f64>() / kind_min.len() as f64,
            rounds as f64 / verdicts.max(1) as f64,
            peak_rss,
            1.0 - failed as f64 / attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&k, v)| metric(k, v))
            .collect()
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    Ok(Report {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        summary,
        metrics,
        counts_per_session,
        spans,
    })
}
