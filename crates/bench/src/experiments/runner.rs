//! Deterministic parallel execution of experiment grids.
//!
//! Every experiment in this crate is a pure function of its (hard-coded)
//! seeds and sizes, so cells of a grid — one cell per `(seed, n, family)`
//! combination, or one per whole experiment — can run on any thread in
//! any order and still produce the *same values* as a serial sweep. The
//! runner exploits that through
//! [`claim_chunks`](anonet_trace::par::claim_chunks): a scoped worker
//! pool claims cells from a shared counter, writes each result into the
//! slot of its cell index, and returns the slots in input order. Output is therefore byte-for-byte
//! identical to the serial run, regardless of thread count or
//! scheduling; only the wall-clock timings differ.
//!
//! The thread count comes from [`thread_count`]: `--threads N` on the
//! command line, else the `ANONET_THREADS` environment variable, else
//! the machine's available parallelism.
//!
//! # Crash safety
//!
//! [`run_cells_checked`] is the crash-safe entry point: every cell runs
//! inside `catch_unwind`, so a panicking cell becomes a typed
//! [`RunOutcome::Failed`] (and, with the cell's coordinates and seed, a
//! [`CellFailure`]) instead of poisoning the worker pool — sibling
//! cells always finish. With [`GridConfig::checkpoint`] set, each
//! completed cell is journaled durably (see
//! [`checkpoint`](super::checkpoint)); with [`GridConfig::resume`],
//! journaled cells are replayed instead of re-run, and because every
//! cell is a pure function of its hard-coded seeds, the resumed output
//! is byte-identical to an uninterrupted run at any thread count
//! (timings excepted — they are wall-clock measurements; resumed cells
//! report the journaled measurement).
//!
//! For CI, [`GridConfig::inject_panic`] (from `--inject-panic N` or
//! `ANONET_FAIL_CELL=N`) deterministically panics the cell at index
//! `N`, which makes the kill → resume → byte-compare cycle testable.

use super::checkpoint;
use anonet_core::experiment::Table;
use anonet_trace::par::claim_chunks;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// One unit of parallel work producing a [`Table`].
pub struct Cell {
    /// Stable identifier (used in timing reports; matches the table id
    /// for whole-experiment cells).
    pub id: &'static str,
    /// The cell's self-seed, if it has one — reported in
    /// [`CellFailure`] so a failing cell can be replayed in isolation.
    pub seed: Option<u64>,
    run: Box<dyn Fn() -> Table + Send + Sync>,
}

impl Cell {
    /// Wraps an experiment function as a grid cell.
    pub fn new(id: &'static str, run: impl Fn() -> Table + Send + Sync + 'static) -> Cell {
        Cell {
            id,
            seed: None,
            run: Box::new(run),
        }
    }

    /// Records the cell's self-seed (diagnostic only — the runner never
    /// feeds it back; cells seed themselves).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Cell {
        self.seed = Some(seed);
        self
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell").field("id", &self.id).finish()
    }
}

/// Wall-clock timing of one executed cell.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CellTiming {
    /// The cell's identifier.
    pub id: String,
    /// Execution time in microseconds (on whichever worker ran it).
    pub micros: u64,
}

/// Runs `f` over every item of `items` on `threads` workers and returns
/// the results *in input order* together with per-item wall-clock times.
///
/// Items are claimed through [`claim_chunks`], so workers stay busy even
/// when cell costs are skewed; each result lands in the slot of its item
/// index, which makes the output independent of scheduling. With
/// `threads <= 1` the items run serially on the calling thread — the
/// parallel output is identical by construction.
///
/// # Examples
///
/// ```
/// use anonet_bench::experiments::runner::run_grid;
///
/// let squares = run_grid(&[1u64, 2, 3, 4], 4, |&n| n * n);
/// let values: Vec<u64> = squares.into_iter().map(|(v, _)| v).collect();
/// assert_eq!(values, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated).
pub fn run_grid<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<(T, u64)>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let mut slots: Vec<Option<(T, u64)>> = items.iter().map(|_| None).collect();
    claim_chunks(&mut slots, threads, |i, slot| {
        let start = Instant::now();
        let value = f(&items[i]);
        *slot = Some((value, start.elapsed().as_micros() as u64));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Runs experiment cells on `threads` workers; returns the tables in
/// input order plus per-cell timings.
///
/// # Panics
///
/// Panics if a cell produces a table with no rows (the same sanity check
/// the serial suite applies) or if a worker panics.
pub fn run_cells(cells: &[Cell], threads: usize) -> (Vec<Table>, Vec<CellTiming>) {
    let results = run_grid(cells, threads, |cell| (cell.run)());
    let mut tables = Vec::with_capacity(cells.len());
    let mut timings = Vec::with_capacity(cells.len());
    for (cell, (table, micros)) in cells.iter().zip(results) {
        assert!(!table.rows.is_empty(), "experiment {} produced no rows", table.id);
        timings.push(CellTiming {
            id: cell.id.to_string(),
            micros,
        });
        tables.push(table);
    }
    (tables, timings)
}

/// How one cell of a checked grid run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The cell ran to completion in this process.
    Ok,
    /// The cell panicked; the payload is captured, siblings kept going.
    Failed {
        /// The panic payload, stringified.
        panic_msg: String,
    },
    /// The cell was not executed.
    Skipped {
        /// `true` when the result was replayed from a checkpoint
        /// journal (the only reason a cell is skipped today).
        resumed: bool,
    },
}

impl RunOutcome {
    /// The status string used in the `--json` schema: `"ok"` for
    /// completed *and* resumed cells (a resumed cell's result is the
    /// journaled original, so reporting provenance here would break the
    /// byte-identical-resume guarantee — provenance goes to stderr),
    /// `"failed"` for panics.
    pub fn status(&self) -> &'static str {
        match self {
            RunOutcome::Failed { .. } => "failed",
            RunOutcome::Ok | RunOutcome::Skipped { .. } => "ok",
        }
    }
}

/// A panicking cell, captured instead of propagated.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CellFailure {
    /// The cell's `0`-based position in the grid.
    pub index: usize,
    /// The cell's stable identifier.
    pub id: String,
    /// The cell's self-seed, when recorded ([`Cell::with_seed`]).
    pub seed: Option<u64>,
    /// The panic payload, stringified.
    pub panic_msg: String,
}

/// Configuration of a checked grid run ([`run_cells_checked`]).
#[derive(Debug, Clone, Default)]
pub struct GridConfig {
    /// Worker count (`0`/`1` runs serially on the calling thread).
    pub threads: usize,
    /// Journal completed cells to this `*.checkpoint.jsonl` sidecar.
    pub checkpoint: Option<PathBuf>,
    /// Replay the journal at [`GridConfig::checkpoint`] and skip the
    /// cells it already holds.
    pub resume: bool,
    /// Deterministically panic the cell at this index (fault-injection
    /// hook for kill/resume tests).
    pub inject_panic: Option<usize>,
}

impl GridConfig {
    /// Parses the runner flags out of a raw argument list:
    /// `--threads N` (else `ANONET_THREADS`, else auto),
    /// `--checkpoint PATH`, `--resume`, and `--inject-panic N` (else
    /// `ANONET_FAIL_CELL`). Both `--flag value` and `--flag=value`
    /// spellings are accepted.
    pub fn from_args(args: &[String]) -> GridConfig {
        GridConfig {
            threads: thread_count(args.iter().cloned()),
            checkpoint: arg_value(args, "--checkpoint").map(PathBuf::from),
            resume: args.iter().any(|a| a == "--resume"),
            inject_panic: arg_value(args, "--inject-panic")
                .and_then(|v| v.parse::<usize>().ok())
                .or_else(|| {
                    std::env::var("ANONET_FAIL_CELL")
                        .ok()
                        .and_then(|v| v.parse::<usize>().ok())
                }),
        }
    }
}

/// The per-cell result of a checked grid run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's stable identifier.
    pub id: String,
    /// The cell's self-seed, when recorded.
    pub seed: Option<u64>,
    /// How the cell ended.
    pub outcome: RunOutcome,
    /// The cell's table (`None` exactly when the cell failed).
    pub table: Option<Table>,
    /// Wall-clock microseconds: measured for fresh cells, replayed from
    /// the journal for resumed cells, `None` for failed cells.
    pub micros: Option<u64>,
}

impl CellReport {
    /// The cell's failure record, if it failed.
    pub fn failure(&self, index: usize) -> Option<CellFailure> {
        match &self.outcome {
            RunOutcome::Failed { panic_msg } => Some(CellFailure {
                index,
                id: self.id.clone(),
                seed: self.seed,
                panic_msg: panic_msg.clone(),
            }),
            _ => None,
        }
    }
}

/// Stringifies a `catch_unwind` payload (`&str` and `String` panics;
/// anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs experiment cells crash-safely: panic isolation per cell,
/// optional checkpoint journaling, optional resume. See the
/// [module docs](self#crash-safety) for the semantics and guarantees.
///
/// Reports come back in input order regardless of thread count. Journal
/// records are appended in *completion* order — replay is index-keyed,
/// so this does not affect resume.
///
/// # Errors
///
/// Returns a typed [`checkpoint::JournalError`] for a configuration or
/// journal problem: `resume` without `checkpoint`, an
/// unreadable/undecodable journal, or a journal that belongs to a
/// different grid. A *panicking cell* is not an error — it is a
/// [`RunOutcome::Failed`] report.
pub fn run_cells_checked(
    cells: &[Cell],
    cfg: &GridConfig,
) -> Result<Vec<CellReport>, checkpoint::JournalError> {
    // Replay the journal (if resuming) into per-cell tables up front,
    // so payload corruption surfaces before any work starts.
    let mut resumed: Vec<Option<(u64, Table)>> = (0..cells.len()).map(|_| None).collect();
    if cfg.resume {
        let path = cfg
            .checkpoint
            .as_deref()
            .ok_or_else(checkpoint::JournalError::resume_requires_checkpoint)?;
        let ids: Vec<String> = cells.iter().map(|c| c.id.to_string()).collect();
        for (i, slot) in checkpoint::load_resume(path, &ids)?.into_iter().enumerate() {
            if let Some((micros, payload)) = slot {
                let table = checkpoint::table_from_payload(&payload).map_err(|e| {
                    checkpoint::JournalError::BadPayload {
                        path: path.to_path_buf(),
                        cell: i,
                        detail: e,
                    }
                })?;
                resumed[i] = Some((micros, table));
            }
        }
    }

    let journal = match &cfg.checkpoint {
        Some(path) => Some(Mutex::new(checkpoint::open_journal(path)?)),
        None => None,
    };

    let pending: Vec<usize> = (0..cells.len()).filter(|&i| resumed[i].is_none()).collect();
    let fresh = run_grid(&pending, cfg.threads, |&i| {
        let cell = &cells[i];
        let start = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if cfg.inject_panic == Some(i) {
                panic!("injected panic at cell {i} (`{}`)", cell.id);
            }
            let table = (cell.run)();
            assert!(!table.rows.is_empty(), "experiment {} produced no rows", table.id);
            table
        }));
        let micros = start.elapsed().as_micros() as u64;
        match result {
            Ok(table) => {
                if let Some(journal) = &journal {
                    // A journal failure (unserializable table, disk
                    // full, …) must not fail the cell — the result is
                    // in hand; the cell simply re-runs on a future
                    // resume. A poisoned lock only means a sibling
                    // cell panicked mid-append; the writer is
                    // line-atomic, so recovering it is safe.
                    match checkpoint::table_payload(&table) {
                        Ok(payload) => {
                            let line = checkpoint::encode_record(i, cell.id, micros, &payload);
                            let mut writer = journal
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            if let Err(e) = writer.append_line(&line) {
                                eprintln!(
                                    "warning: checkpoint append failed for cell {i} (`{}`): {e}",
                                    cell.id
                                );
                            }
                        }
                        Err(e) => eprintln!(
                            "warning: cell {i} (`{}`) not checkpointed: {e}",
                            cell.id
                        ),
                    }
                }
                CellReport {
                    id: cell.id.to_string(),
                    seed: cell.seed,
                    outcome: RunOutcome::Ok,
                    table: Some(table),
                    micros: Some(micros),
                }
            }
            Err(payload) => CellReport {
                id: cell.id.to_string(),
                seed: cell.seed,
                outcome: RunOutcome::Failed {
                    panic_msg: panic_message(payload.as_ref()),
                },
                table: None,
                micros: None,
            },
        }
    });

    let mut fresh_reports = fresh.into_iter().map(|(report, _)| report);
    let reports = cells
        .iter()
        .zip(resumed)
        .map(|(cell, slot)| match slot {
            Some((micros, table)) => CellReport {
                id: cell.id.to_string(),
                seed: cell.seed,
                outcome: RunOutcome::Skipped { resumed: true },
                table: Some(table),
                micros: Some(micros),
            },
            None => fresh_reports.next().expect("one fresh report per pending cell"),
        })
        .collect();
    Ok(reports)
}

/// The value of `--flag value` or `--flag=value` in a raw argument
/// list (last occurrence wins).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let mut found = None;
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if a == flag {
            found = iter.peek().map(|v| v.to_string());
        } else if let Some(v) = a.strip_prefix(flag) {
            if let Some(v) = v.strip_prefix('=') {
                found = Some(v.to_string());
            }
        }
    }
    found
}

/// Resolves the worker count: the value after a `--threads` argument,
/// else `ANONET_THREADS`, else the machine's available parallelism
/// (serial as a last resort). A value of `0` means "auto" too.
pub fn thread_count(args: impl Iterator<Item = String>) -> usize {
    let mut args = args.peekable();
    let mut explicit = None;
    while let Some(a) = args.next() {
        if a == "--threads" {
            explicit = args.peek().and_then(|v| v.parse::<usize>().ok());
        } else if let Some(v) = a.strip_prefix("--threads=") {
            explicit = v.parse::<usize>().ok();
        }
    }
    let requested = explicit.or_else(|| {
        std::env::var("ANONET_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
    });
    match requested {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..67).collect();
        let serial: Vec<u64> = run_grid(&items, 1, |&n| n * n + 1)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        for threads in [2, 3, 4, 16] {
            let parallel: Vec<u64> = run_grid(&items, threads, |&n| n * n + 1)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn grid_handles_empty_and_single_item() {
        let empty: Vec<(u32, u64)> = run_grid(&[] as &[u32], 8, |&n| n);
        assert!(empty.is_empty());
        let one = run_grid(&[7u32], 8, |&n| n + 1);
        assert_eq!(one[0].0, 8);
    }

    #[test]
    fn thread_count_precedence() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(thread_count(args(&["--threads", "3"]).into_iter()), 3);
        assert_eq!(thread_count(args(&["--threads=5"]).into_iter()), 5);
        // 0 or missing → auto (at least one worker).
        assert!(thread_count(args(&["--threads", "0"]).into_iter()) >= 1);
        assert!(thread_count(args(&[]).into_iter()) >= 1);
    }

    #[test]
    fn arg_value_parses_both_spellings() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            arg_value(&args(&["--checkpoint", "a.jsonl"]), "--checkpoint").as_deref(),
            Some("a.jsonl")
        );
        assert_eq!(
            arg_value(&args(&["--checkpoint=b.jsonl"]), "--checkpoint").as_deref(),
            Some("b.jsonl")
        );
        // Last occurrence wins; missing flag is None.
        assert_eq!(
            arg_value(&args(&["--out", "x", "--out=y"]), "--out").as_deref(),
            Some("y")
        );
        assert_eq!(arg_value(&args(&["--outlier", "x"]), "--out"), None);
    }

    fn tiny_cell(id: &'static str, value: u64) -> Cell {
        Cell::new(id, move || {
            let mut t = Table::new(id, "tiny", &["v"]);
            t.push_display_row(&[value]);
            t
        })
    }

    #[test]
    fn checked_run_isolates_injected_panic_from_siblings() {
        let cells = vec![tiny_cell("a", 1), tiny_cell("b", 2).with_seed(77), tiny_cell("c", 3)];
        let cfg = GridConfig {
            threads: 1, // keep the panic on the (output-captured) test thread
            inject_panic: Some(1),
            ..GridConfig::default()
        };
        let reports = run_cells_checked(&cells, &cfg).expect("run succeeds");
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].outcome, RunOutcome::Ok);
        assert_eq!(reports[2].outcome, RunOutcome::Ok);
        assert!(reports[0].table.is_some() && reports[2].table.is_some());
        let failure = reports[1].failure(1).expect("cell 1 failed");
        assert_eq!(failure.id, "b");
        assert_eq!(failure.seed, Some(77));
        assert!(failure.panic_msg.contains("injected panic at cell 1"));
        assert!(reports[1].table.is_none() && reports[1].micros.is_none());
        assert_eq!(reports[1].outcome.status(), "failed");
        assert_eq!(reports[0].outcome.status(), "ok");
        // Non-failed cells never produce a failure record.
        assert_eq!(reports[0].failure(0), None);
    }

    #[test]
    fn checked_run_checkpoints_and_resumes() {
        let path = std::env::temp_dir().join(format!(
            "anonet-runner-{}.checkpoint.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cells = vec![tiny_cell("a", 1), tiny_cell("b", 2), tiny_cell("c", 3)];

        let interrupted = GridConfig {
            threads: 1,
            checkpoint: Some(path.clone()),
            inject_panic: Some(2),
            ..GridConfig::default()
        };
        let reports = run_cells_checked(&cells, &interrupted).expect("interrupted run");
        assert!(matches!(reports[2].outcome, RunOutcome::Failed { .. }));

        let resumed_cfg = GridConfig {
            threads: 1,
            checkpoint: Some(path.clone()),
            resume: true,
            ..GridConfig::default()
        };
        let resumed = run_cells_checked(&cells, &resumed_cfg).expect("resumed run");
        assert_eq!(resumed[0].outcome, RunOutcome::Skipped { resumed: true });
        assert_eq!(resumed[1].outcome, RunOutcome::Skipped { resumed: true });
        assert_eq!(resumed[2].outcome, RunOutcome::Ok);
        // Resumed cells replay the journaled measurement and table.
        assert_eq!(resumed[0].micros, reports[0].micros);
        assert_eq!(resumed[0].table, reports[0].table);
        assert_eq!(resumed[0].outcome.status(), "ok");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_without_checkpoint_is_an_error() {
        let cells = vec![tiny_cell("a", 1)];
        let cfg = GridConfig {
            threads: 1,
            resume: true,
            ..GridConfig::default()
        };
        let err = run_cells_checked(&cells, &cfg).unwrap_err();
        assert!(matches!(err, checkpoint::JournalError::Config { .. }));
        assert!(err.to_string().contains("--resume requires --checkpoint"));
    }

    #[test]
    fn cells_run_and_report_timings() {
        let cells = vec![
            Cell::new("a", crate::experiments::fig3),
            Cell::new("b", crate::experiments::thm1),
        ];
        let (tables, timings) = run_cells(&cells, 2);
        assert_eq!(tables.len(), 2);
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].id, "a");
        assert_eq!(tables[1], crate::experiments::thm1());
    }
}
