//! Golden verdicts and trace digests of *faulted* kernel and
//! history-tree runs.
//!
//! `crates/core/tests/fault_verdicts.rs` pins the empty-plan traces
//! against the plain algorithms; this suite pins what happens once a
//! fault strikes. Every committed corpus schedule (`tests/corpus/`) and
//! every E22a seeded plan (twins n ∈ {4, 9, 13, 25}, 15 seeds each, the
//! fault window of `exp_faults`) runs through both algorithms, guarded
//! and unguarded. Each run contributes one line to a table: its verdict
//! and an FNV-1a digest of its JSONL trace, `fault` and `violation`
//! facets included. The table must match `tests/golden/faulted_traces.txt`
//! byte for byte, so any change to a screen, to the violation round or
//! to a single traced facet shows up here.

use anonet_core::trace::MemorySink;
use anonet_core::verdict::{
    history_tree_verdict_with_sink, kernel_verdict_with_sink, FaultPlan, Verdict,
};
use anonet_multigraph::adversary::TwinBuilder;
use anonet_multigraph::corpus::ArchivedSchedule;
use anonet_multigraph::DblMultigraph;
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = include_str!("golden/faulted_traces.txt");

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `m` under `plan` through both algorithms and both arms, one
/// table line each.
fn record(table: &mut String, name: &str, m: &DblMultigraph, horizon: u32, plan: &FaultPlan) {
    type Runner = fn(&DblMultigraph, u32, &FaultPlan, bool, &mut MemorySink) -> Verdict;
    let runners: [(&str, Runner); 2] = [
        ("kernel", kernel_verdict_with_sink::<MemorySink>),
        ("history-tree", history_tree_verdict_with_sink::<MemorySink>),
    ];
    for (alg, run) in runners {
        for watchdogs in [true, false] {
            let mut sink = MemorySink::new();
            let verdict = run(m, horizon, plan, watchdogs, &mut sink);
            let trace: String = sink
                .events()
                .iter()
                .map(|e| e.to_json_line() + "\n")
                .collect();
            let arm = if watchdogs { "guarded" } else { "unguarded" };
            writeln!(
                table,
                "{name} {alg} {arm} {verdict:?} events={} fnv={:016x}",
                sink.events().len(),
                fnv1a(&trace)
            )
            .unwrap();
        }
    }
}

fn faulted_trace_table() -> String {
    let mut table = String::new();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let entry = ArchivedSchedule::parse(&text).expect("canonical corpus file");
        let m = entry.schedule.multigraph().expect("corpus schedules assemble");
        let horizon = entry.schedule.horizon();
        record(&mut table, &entry.name, &m, horizon, entry.schedule.plan());
    }
    // E22a's seeded plans: faults strike no later than horizon - 3.
    for n in [4u64, 9, 13, 25] {
        let pair = TwinBuilder::new().build(n).expect("twins build");
        let horizon = (pair.horizon + 3).max(5);
        for seed in 0..15u64 {
            let plan = FaultPlan::seeded(1_000 * n + seed, horizon - 2, 1 + (seed % 2) as u32);
            record(&mut table, &format!("e22a-n{n}-s{seed}"), &pair.smaller, horizon, &plan);
        }
    }
    table
}

#[test]
fn faulted_verdicts_and_traces_match_the_golden_table() {
    let table = faulted_trace_table();
    for (line, (got, want)) in table.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", line + 1);
    }
    assert_eq!(
        table.lines().count(),
        GOLDEN.lines().count(),
        "golden table length"
    );
}
