//! Smoke-size self-tests of the session benchmark: exact counts repeat,
//! every metric is emitted with its unit, and the correctness gate fails
//! when it should.

use anonet_core::algorithms::CountingOutcome;
use anonet_core::verdict::{Verdict, ViolationKind};
use sessbench::probe::Probe;
use sessbench::workloads::CertifiedExpectation;
use sessbench::{run, Bench, Config, Report, Workload, END_TO_END, PER_LAYER};
use std::process::Command;

fn smoke(workload: Workload, seed: u64, trace: bool, tamper: bool) -> Report {
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        tamper,
    })
    .expect("smoke run")
}

#[test]
fn exact_counts_repeat_exactly() {
    for w in Workload::ALL {
        let (a, b) = (smoke(w, 1, false, false), smoke(w, 2, false, false));
        assert!(a.correct && b.correct, "{}", w.name());
        assert_eq!(
            a.metric("rounds_per_session"),
            b.metric("rounds_per_session"),
            "{}",
            w.name()
        );
        let (a, b) = (smoke(w, 3, true, false), smoke(w, 4, true, false));
        assert!(a.correct && b.correct, "{}", w.name());
        for name in [
            "soa.deliveries",
            "soa.histories",
            "crt.certified",
            "crt.exact_replay",
        ] {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", w.name());
        }
        assert_eq!(a.counts_per_session, b.counts_per_session, "{}", w.name());
    }
}

#[test]
fn layer_counts_land_on_their_workloads() {
    let simulated = |w| smoke(w, 1, true, false).metric("soa.deliveries").unwrap();
    assert!(simulated(Workload::LeaderReplay) > 0.0);
    assert_eq!(simulated(Workload::Certified), 0.0);
    assert_eq!(simulated(Workload::Oracle), 0.0);
    let certified = smoke(Workload::Certified, 1, true, false);
    assert_eq!(certified.metric("crt.certified"), Some(1.0));
    assert_eq!(certified.metric("crt.exact_replay"), Some(0.0));
}

/// `(name, unit)` pairs of one metric section of `BENCHMARK.json`,
/// which keeps one metric object per line.
fn spec_section(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(spec_section(&spec, "end_to_end"), expect(&END_TO_END));
    assert_eq!(spec_section(&spec, "per_layer"), expect(&PER_LAYER));
    for w in Workload::ALL {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = smoke(w, 1, trace, false);
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, list, "{} trace={trace}", w.name());
            if !trace {
                // End-to-end metrics are never 0 on a correct run.
                assert!(
                    r.metrics.iter().all(|m| m.value > 0.0),
                    "{}: {:?}",
                    w.name(),
                    r.metrics
                );
            }
        }
    }
}

#[test]
fn wrong_expectations_fail_the_gate() {
    for w in Workload::ALL {
        let r = smoke(w, 1, false, true);
        assert!(!r.correct, "{}", w.name());
        assert!(r.attempted > 0 && r.failed == r.attempted, "{}", w.name());
        assert_eq!(r.metric("correct_share"), Some(0.0), "{}", w.name());
    }
}

#[test]
fn command_exits_non_zero_on_a_wrong_verdict_and_on_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_sessbench");
    let out = Command::new(bin)
        .args([
            "--workload",
            "oracle",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
            "--tamper",
        ])
        .output()
        .expect("run sessbench");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false,"));

    let out = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .expect("run sessbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn full_size_expectations_match_the_paper() {
    let setup =
        |w| Bench::setup(w, false, false, &mut Probe::new(false)).expect("full-size set-up");
    let correct = Verdict::Correct {
        count: 29_524,
        rounds: 11,
    };
    let census = Verdict::ModelViolation {
        kind: ViolationKind::CensusConservation,
        round: 10,
    };
    assert_eq!(
        setup(Workload::LeaderReplay).twin_expect(),
        Some(&[[correct, census], [correct, correct]])
    );
    assert_eq!(
        setup(Workload::Certified).certified_expect(),
        Some(CertifiedExpectation {
            outcome: CountingOutcome {
                count: 121,
                rounds: 6
            },
            certification: "crt",
        })
    );
    assert_eq!(
        setup(Workload::Oracle).oracle_expect(),
        Some(&Verdict::Correct {
            count: 3_283,
            rounds: 3
        })
    );
}

#[test]
fn traced_spans_are_written_out_one_line_per_session() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("leader-replay.spans.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_sessbench"))
        .args([
            "--workload",
            "leader-replay",
            "--seconds",
            "0",
            "--trace",
            "1",
            "--smoke",
        ])
        .arg("--spans-out")
        .arg(&path)
        .output()
        .expect("run sessbench");
    assert_eq!(out.status.code(), Some(0));
    let spans = std::fs::read_to_string(&path).expect("spans file");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let samples = format!(
        "\"session.traced_samples\": {{\"value\": {}",
        spans.lines().count()
    );
    assert!(stdout.contains(&samples), "{stdout}");
    assert!(spans
        .lines()
        .all(|l| l.contains("\"wall_ms\"") && l.contains("\"verdict.kernel_step_ms\"")));
}
