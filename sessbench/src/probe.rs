//! Layer spans around the public calls a session makes, and the exact
//! counts a session produces.
//!
//! Spans are taken from outside the library: a [`Probe`] reads the clock
//! around a call only when it is on, so an untraced session pays one
//! branch per call and nothing else.

use std::time::{Duration, Instant};

/// A layer a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TwinBuilder::build` (set-up on every workload).
    Build,
    /// `simulate_with_faults`: the SoA round engine plus fault application.
    Simulate,
    /// The guarded kernel session's `step` calls and `finish`.
    KernelStep,
    /// The guarded history-tree session's `step` calls and `finish`.
    HtStep,
    /// `KernelCounting` rounds before the decision round.
    Watch,
    /// The `KernelCounting` decision round, CRT certification included.
    Decision,
    /// `transform::to_pd2`.
    ToPd2,
    /// `degree_oracle_verdict` with watchdogs.
    DegreeOracle,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Build,
        Layer::Simulate,
        Layer::KernelStep,
        Layer::HtStep,
        Layer::Watch,
        Layer::Decision,
        Layer::ToPd2,
        Layer::DegreeOracle,
    ];

    /// The per-layer metric the layer's span is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Build => "adversary.build_ms",
            Layer::Simulate => "faults.simulate_ms",
            Layer::KernelStep => "verdict.kernel_step_ms",
            Layer::HtStep => "verdict.ht_step_ms",
            Layer::Watch => "kernel_counting.watch_ms",
            Layer::Decision => "kernel_counting.decision_ms",
            Layer::ToPd2 => "transform.to_pd2_ms",
            Layer::DegreeOracle => "verdict.degree_oracle_ms",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Summed span time per layer, recorded only while on.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    on: bool,
    spans: [Duration; Layer::ALL.len()],
    calls: [u32; Layer::ALL.len()],
}

impl Probe {
    /// A probe that records spans when `on`.
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            ..Probe::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its wall time to `layer` when on.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    /// Adds a span measured elsewhere (e.g. from round timestamps).
    pub fn add(&mut self, layer: Layer, span: Duration) {
        self.spans[layer.index()] += span;
        self.calls[layer.index()] += 1;
    }

    /// The summed span of `layer`.
    pub fn get(&self, layer: Layer) -> Duration {
        self.spans[layer.index()]
    }

    /// How many spans were added to `layer`.
    pub fn calls(&self, layer: Layer) -> u32 {
        self.calls[layer.index()]
    }

    /// Clears the recorded spans, keeping the on/off state.
    pub fn reset(&mut self) {
        self.spans = Default::default();
        self.calls = Default::default();
    }
}

/// Exact per-session counts; they must repeat exactly across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Deliveries in the simulated executions (`RoundColumns::len`).
    pub deliveries: u64,
    /// Interned histories of the simulated executions (`arena.interned()`).
    pub histories: u64,
    /// Decisions certified by CRT reconstruction.
    pub crt_certified: u64,
    /// Decisions certified by exact replay.
    pub crt_exact_replay: u64,
}
