//! The three workloads: their set-up, their expected verdicts and one
//! session of each kind.
//!
//! Every workload calls only the public APIs of the anonet crates. Each
//! is sized so that one layer does most of its work:
//!
//! | workload | dominant layer | session |
//! |---|---|---|
//! | `leader-replay` | guarded leaders (`core::verdict`) | replay a pre-simulated execution through both leaders |
//! | `certified` | solver (`KernelCounting` + CRT certification) | one certified kernel count |
//! | `oracle` | `transform::to_pd2` + `degree_oracle_verdict` | transform, then the guarded degree oracle |

use crate::probe::{Counts, Layer, Probe};
use anonet_core::algorithms::{CountingOutcome, KernelCounting};
use anonet_core::verdict::{
    degree_oracle_verdict, simulate_with_faults, FaultPlan, FaultedExecution,
    GuardedHistoryTreeSession, GuardedKernelSession, Verdict, ViolationKind,
};
use anonet_linalg::SolverBackend;
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::simulate::Execution;
use anonet_multigraph::transform;
use anonet_multigraph::DblMultigraph;
use anonet_trace::{NullSink, RoundEvent, TraceSink};
use std::time::Instant;

/// Stride of the duplicate plan: far above any round's delivery count,
/// so exactly one delivery (canonical index 0) is duplicated.
const DUP_STRIDE: u32 = 1 << 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Guarded leaders replaying executions simulated in set-up.
    LeaderReplay,
    /// CRT-certified kernel counting.
    Certified,
    /// `G(PD)_2` transform plus the guarded degree oracle.
    Oracle,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LeaderReplay,
        Workload::Certified,
        Workload::Oracle,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaderReplay => "leader-replay",
            Workload::Certified => "certified",
            Workload::Oracle => "oracle",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Network size `n` of the workload's twin at full or smoke size.
    pub fn size(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Workload::LeaderReplay, false) => 29_524,
            (Workload::LeaderReplay, true) => 364,
            (Workload::Certified, false) => 121,
            (Workload::Oracle, false) => 3_280,
            (Workload::Certified | Workload::Oracle, true) => 40,
        }
    }
}

/// What one session returned, reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionOutcome {
    /// Every verdict of the session matched its expected value.
    pub ok: bool,
    /// Sum of the verdict rounds of the session (the paper's cost).
    pub rounds: u64,
    /// Number of verdicts the session returned.
    pub verdicts: u64,
}

/// The expected result of a certified kernel count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifiedExpectation {
    /// The count and decision round.
    pub outcome: CountingOutcome,
    /// The certification path traced on the decision round.
    pub certification: &'static str,
}

/// A set-up workload, ready to run sessions.
pub enum Bench {
    /// See [`Workload::LeaderReplay`].
    LeaderReplay(LeaderReplay),
    /// See [`Workload::Certified`].
    Certified(Certified),
    /// See [`Workload::Oracle`].
    Oracle(Oracle),
}

/// The two fault plans of `leader-replay`: the empty plan and the
/// crossover's off-spine duplicate at round `horizon + 1` (the spine is
/// already silent there, so the history-tree sums are untouched).
fn twin_plans(horizon: u32) -> [FaultPlan; 2] {
    [
        FaultPlan::new(),
        FaultPlan::new().duplicate_deliveries(horizon + 1, DUP_STRIDE, 0),
    ]
}

/// Expected guarded verdicts on a twin of size `n`, indexed
/// `[leader][plan]` (leader 0 = kernel, 1 = history tree; plan 0 =
/// clean, 1 = duplicate). Both leaders decide `n` at `horizon + 2` on
/// the clean plan; under the duplicate the kernel trips census
/// conservation at `horizon + 1` and the history tree still decides `n`.
fn twin_expectations(n: u64, horizon: u32) -> [[Verdict; 2]; 2] {
    let correct = Verdict::Correct {
        count: n,
        rounds: horizon + 2,
    };
    [
        [
            correct,
            Verdict::ModelViolation {
                kind: ViolationKind::CensusConservation,
                round: horizon + 1,
            },
        ],
        [correct, correct],
    ]
}

/// A deliberately wrong copy of `v` (its round moved by one), used to
/// show that the correctness gate fails.
fn tampered(v: &Verdict) -> Verdict {
    match *v {
        Verdict::Correct { count, rounds } => Verdict::Correct {
            count,
            rounds: rounds + 1,
        },
        Verdict::Undecided { rounds, candidates } => Verdict::Undecided {
            rounds: rounds + 1,
            candidates,
        },
        Verdict::ModelViolation { kind, round } => Verdict::ModelViolation {
            kind,
            round: round + 1,
        },
    }
}

/// The round a verdict was reached in.
fn verdict_round(v: &Verdict) -> u32 {
    match v {
        Verdict::Correct { rounds, .. } | Verdict::Undecided { rounds, .. } => *rounds,
        Verdict::ModelViolation { round, .. } => *round,
    }
}

/// Builds the worst-case twin of size `n`, timed as the adversary layer.
fn build_twin(n: u64, probe: &mut Probe) -> Result<(DblMultigraph, u32), String> {
    let pair = probe
        .time(Layer::Build, || TwinBuilder::new().build(n))
        .map_err(|e| format!("twin construction for n={n} failed: {e}"))?;
    Ok((pair.smaller, pair.horizon))
}

/// The two guarded session types behind one stepping interface.
trait Guarded {
    fn step_round(&mut self, exec: &Execution, r: usize, plan: &FaultPlan) -> Option<Verdict>;
    fn close(self, max_rounds: u32) -> Verdict;
}

macro_rules! guarded {
    ($t:ty) => {
        impl Guarded for $t {
            fn step_round(
                &mut self,
                exec: &Execution,
                r: usize,
                plan: &FaultPlan,
            ) -> Option<Verdict> {
                self.step(&exec.arena, &exec.rounds[r], plan, &mut NullSink)
            }
            fn close(self, max_rounds: u32) -> Verdict {
                self.finish(max_rounds, &mut NullSink)
            }
        }
    };
}
guarded!(GuardedKernelSession);
guarded!(GuardedHistoryTreeSession);

/// Steps a guarded session through every round of `exec`, the way a
/// transport would deliver them.
fn replay<G: Guarded>(
    mut session: G,
    exec: &Execution,
    plan: &FaultPlan,
    max_rounds: u32,
) -> Verdict {
    for r in 0..exec.rounds.len() {
        if let Some(v) = session.step_round(exec, r, plan) {
            return v;
        }
    }
    session.close(max_rounds)
}

/// Replays `exec` through leader `leader` (0 = kernel, 1 = history tree).
fn replay_leader(leader: usize, exec: &Execution, plan: &FaultPlan, max_rounds: u32) -> Verdict {
    if leader == 0 {
        replay(GuardedKernelSession::new(), exec, plan, max_rounds)
    } else {
        replay(GuardedHistoryTreeSession::new(), exec, plan, max_rounds)
    }
}

/// Leader `leader`'s step span.
fn step_layer(leader: usize) -> Layer {
    if leader == 0 {
        Layer::KernelStep
    } else {
        Layer::HtStep
    }
}

fn count_execution(exec: &FaultedExecution, counts: &mut Counts) {
    counts.deliveries += exec
        .execution
        .rounds
        .iter()
        .map(|r| r.len() as u64)
        .sum::<u64>();
    counts.histories += exec.execution.arena.interned() as u64;
}

/// `leader-replay`: two kinds, {clean, duplicate}. Both executions are
/// simulated in set-up; each session replays one through the kernel
/// leader and then the history-tree leader.
pub struct LeaderReplay {
    executions: Box<[FaultedExecution; 2]>,
    max_rounds: u32,
    plans: [FaultPlan; 2],
    expect: [[Verdict; 2]; 2],
}

/// `certified`: one kind, a CRT-certified kernel count with the
/// certification trace facet on.
pub struct Certified {
    m: DblMultigraph,
    max_rounds: u32,
    expect: CertifiedExpectation,
}

/// `oracle`: one kind, the `G(PD)_2` transform and the guarded degree
/// oracle on it.
pub struct Oracle {
    m: DblMultigraph,
    max_rounds: u32,
    expect: Verdict,
}

/// A sink that keeps the certification facet of each round and, when
/// timing, the instant each round event was recorded.
#[derive(Default)]
struct RoundStamps {
    timing: bool,
    stamps: Vec<Instant>,
    certification: Option<String>,
}

impl TraceSink for RoundStamps {
    fn record(&mut self, event: &RoundEvent) {
        if self.timing {
            self.stamps.push(Instant::now());
        }
        if event.certification.is_some() {
            self.certification.clone_from(&event.certification);
        }
    }
}

impl Bench {
    /// Builds the workload's inputs and fixes its expected verdicts.
    /// With `tamper`, every expected verdict is deliberately wrong.
    ///
    /// # Errors
    ///
    /// Returns a description if an input cannot be built.
    pub fn setup(
        workload: Workload,
        smoke: bool,
        tamper: bool,
        probe: &mut Probe,
    ) -> Result<Bench, String> {
        let n = workload.size(smoke);
        let (m, horizon) = build_twin(n, probe)?;
        // The crossover's round budget: enough for the guarded leaders to
        // confirm their decision over two more rounds.
        let max_rounds = horizon + 4;
        Ok(match workload {
            Workload::LeaderReplay => {
                let plans = twin_plans(horizon);
                let mut expect = twin_expectations(n, horizon);
                if tamper {
                    expect = expect.map(|row| row.map(|v| tampered(&v)));
                }
                let executions = [0, 1].map(|p| {
                    probe.time(Layer::Simulate, || {
                        simulate_with_faults(&m, max_rounds as usize, &plans[p])
                    })
                });
                Bench::LeaderReplay(LeaderReplay {
                    executions: Box::new(executions),
                    max_rounds,
                    plans,
                    expect,
                })
            }
            Workload::Certified => {
                // Theorem 1: the kernel leader decides after
                // ⌊log₃(2n+1)⌋ + 1 rounds, i.e. at horizon + 2.
                let rounds = horizon + 2 + u32::from(tamper);
                Bench::Certified(Certified {
                    m,
                    max_rounds,
                    expect: CertifiedExpectation {
                        outcome: CountingOutcome { count: n, rounds },
                        certification: "crt",
                    },
                })
            }
            Workload::Oracle => {
                // Lemma 1's transform adds three auxiliary nodes; the
                // oracle decides in its fixed three rounds.
                let mut expect = Verdict::Correct {
                    count: n + 3,
                    rounds: 3,
                };
                if tamper {
                    expect = tampered(&expect);
                }
                Bench::Oracle(Oracle {
                    m,
                    max_rounds,
                    expect,
                })
            }
        })
    }

    /// Number of session kinds; a measurement cycle runs each once.
    pub fn kinds(&self) -> usize {
        match self {
            Bench::LeaderReplay(_) => 2,
            Bench::Certified(_) | Bench::Oracle(_) => 1,
        }
    }

    /// Runs one session of `kind`, timing its layers into `probe` when
    /// the probe is on and adding its exact counts to `counts`.
    pub fn session(&self, kind: usize, probe: &mut Probe, counts: &mut Counts) -> SessionOutcome {
        match self {
            Bench::LeaderReplay(b) => {
                let faulted = &b.executions[kind];
                count_execution(faulted, counts);
                let mut out = SessionOutcome {
                    ok: true,
                    ..SessionOutcome::default()
                };
                for leader in 0..2 {
                    let v = probe.time(step_layer(leader), || {
                        replay_leader(leader, &faulted.execution, &b.plans[kind], b.max_rounds)
                    });
                    out.ok &= v == b.expect[leader][kind];
                    out.rounds += u64::from(verdict_round(&v));
                    out.verdicts += 1;
                }
                out
            }
            Bench::Certified(b) => {
                let mut sink = RoundStamps {
                    timing: probe.on(),
                    ..RoundStamps::default()
                };
                let start = Instant::now();
                let run = KernelCounting::new()
                    .with_backend(SolverBackend::CrtCertified)
                    .with_certification_trace()
                    .run_with_sink(&b.m, b.max_rounds, &mut sink);
                if probe.on() {
                    // The decision round is the last event recorded; the
                    // rounds before it are the watch phase.
                    if let Some((&decided, before)) = sink.stamps.split_last() {
                        let watched = before.last().copied().unwrap_or(start);
                        probe.add(Layer::Watch, watched - start);
                        probe.add(Layer::Decision, decided - watched);
                    }
                }
                match sink.certification.as_deref() {
                    Some("crt") => counts.crt_certified += 1,
                    Some("exact-replay") => counts.crt_exact_replay += 1,
                    _ => {}
                }
                let ok = matches!(&run, Ok((o, _)) if *o == b.expect.outcome)
                    && sink.certification.as_deref() == Some(b.expect.certification);
                SessionOutcome {
                    ok,
                    rounds: run
                        .as_ref()
                        .map_or(u64::from(b.max_rounds), |(o, _)| u64::from(o.rounds)),
                    verdicts: 1,
                }
            }
            Bench::Oracle(b) => {
                let net = probe.time(Layer::ToPd2, || {
                    transform::to_pd2(&b.m, b.max_rounds as usize)
                });
                let Ok(net) = net else {
                    return SessionOutcome {
                        ok: false,
                        rounds: 0,
                        verdicts: 1,
                    };
                };
                let v = probe.time(Layer::DegreeOracle, || {
                    degree_oracle_verdict(net, &FaultPlan::new(), true)
                });
                SessionOutcome {
                    ok: v == b.expect,
                    rounds: u64::from(verdict_round(&v)),
                    verdicts: 1,
                }
            }
        }
    }

    /// The expected guarded twin verdicts, `[leader][plan]`, for
    /// `leader-replay`.
    pub fn twin_expect(&self) -> Option<&[[Verdict; 2]; 2]> {
        match self {
            Bench::LeaderReplay(b) => Some(&b.expect),
            _ => None,
        }
    }

    /// The expected certified count, for `certified`.
    pub fn certified_expect(&self) -> Option<CertifiedExpectation> {
        match self {
            Bench::Certified(b) => Some(b.expect),
            _ => None,
        }
    }

    /// The expected oracle verdict, for `oracle`.
    pub fn oracle_expect(&self) -> Option<&Verdict> {
        match self {
            Bench::Oracle(b) => Some(&b.expect),
            _ => None,
        }
    }
}
