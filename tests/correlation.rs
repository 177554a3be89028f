//! Repo-level correlation tests: the paper's §IV validation claims as
//! executable assertions, on a subset of the correlation set (the full
//! sweep lives in the `fig05_correlation` harness).

use std::path::Path;
use threadfuser::analyzer::stats::{mean_absolute_error, mean_absolute_pct_error, pearson};
use threadfuser::ir::OptLevel;
use threadfuser::workloads::{self, by_name, correlation_set};
use threadfuser::Pipeline;

const SUBSET: &[&str] = &["bfs", "nn", "btree", "cc", "vectoradd"];

fn sweep(opt: OptLevel) -> (Vec<f64>, Vec<f64>) {
    let mut eff = Vec::new();
    let mut txn = Vec::new();
    for name in SUBSET {
        let w = by_name(name).unwrap();
        let r = Pipeline::from_workload(&w).threads(96).opt_level(opt).analyze().unwrap();
        eff.push(r.simt_efficiency());
        txn.push(r.total_transactions() as f64);
    }
    (eff, txn)
}

fn hardware() -> (Vec<f64>, Vec<f64>) {
    let mut eff = Vec::new();
    let mut txn = Vec::new();
    for name in SUBSET {
        let w = by_name(name).unwrap();
        let hw = Pipeline::from_workload(&w).threads(96).measure_hardware().unwrap();
        eff.push(hw.simt_efficiency());
        txn.push(hw.total_transactions() as f64);
    }
    (eff, txn)
}

#[test]
fn o1_efficiency_correlates_perfectly() {
    let (hw_eff, _) = hardware();
    let (eff, _) = sweep(OptLevel::O1);
    assert!(pearson(&eff, &hw_eff) > 0.999);
    assert!(mean_absolute_error(&eff, &hw_eff) < 0.01);
}

#[test]
fn o1_transactions_match_hardware() {
    let (_, hw_txn) = hardware();
    let (_, txn) = sweep(OptLevel::O1);
    assert!(mean_absolute_pct_error(&txn, &hw_txn) < 0.01);
}

#[test]
fn o0_overestimates_transactions() {
    let (_, hw_txn) = hardware();
    let (_, txn) = sweep(OptLevel::O0);
    for (p, a) in txn.iter().zip(&hw_txn) {
        assert!(*p >= *a, "O0 adds memory traffic, never removes it");
    }
    assert!(mean_absolute_pct_error(&txn, &hw_txn) > 0.02, "visible O0 inflation");
}

#[test]
fn o2_underestimates_transactions() {
    let (_, hw_txn) = hardware();
    let (_, txn) = sweep(OptLevel::O2);
    assert!(
        txn.iter().zip(&hw_txn).any(|(p, a)| *p < *a),
        "register promotion must remove traffic the reference binary has"
    );
}

#[test]
fn optimization_error_ordering_matches_paper() {
    // Paper Fig. 5b: O1 is the closest approximation of the hardware.
    let (_, hw_txn) = hardware();
    let o0 = mean_absolute_pct_error(&sweep(OptLevel::O0).1, &hw_txn);
    let o1 = mean_absolute_pct_error(&sweep(OptLevel::O1).1, &hw_txn);
    let o2 = mean_absolute_pct_error(&sweep(OptLevel::O2).1, &hw_txn);
    assert!(o1 <= o0 && o1 <= o2, "O1 best: O0={o0:.3} O1={o1:.3} O2={o2:.3}");
}

#[test]
fn correlation_set_has_eleven_gpu_workloads() {
    let set = correlation_set();
    assert_eq!(set.len(), 11);
    assert!(set.iter().all(|w| w.meta.has_gpu_impl));
}

/// The lock-step machine's counters on every catalog workload at 64
/// threads, O1 and O3, warps 8 and 32, equal the table pinned in
/// `tests/golden/lockstep_stats.txt`: issues, thread instructions, and
/// the heap and stack `transactions instructions accesses` triples, or
/// the run's error. Regenerate deliberately with
/// `TF_BLESS=1 cargo test --test correlation`.
#[test]
fn lockstep_stats_match_the_pinned_table() {
    let mut table = String::new();
    for w in workloads::all() {
        for opt in [OptLevel::O1, OptLevel::O3] {
            for warp in [8, 32] {
                let hw = Pipeline::from_workload(&w)
                    .threads(64)
                    .warp_size(warp)
                    .hardware_opt_level(opt)
                    .measure_hardware();
                let row = match hw {
                    Ok(s) => format!(
                        "issues {} thread_insts {} heap {} {} {} stack {} {} {}",
                        s.issues,
                        s.thread_insts,
                        s.heap.transactions,
                        s.heap.instructions,
                        s.heap.accesses,
                        s.stack.transactions,
                        s.stack.instructions,
                        s.stack.accesses
                    ),
                    Err(e) => format!("error {e}"),
                };
                table.push_str(&format!("{} {opt:?} w{warp}: {row}\n", w.meta.name));
            }
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/lockstep_stats.txt");
    if std::env::var("TF_BLESS").is_ok() {
        std::fs::write(&path, &table).expect("pinned table written");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{}: {e} (regenerate with TF_BLESS=1 cargo test --test correlation)", path.display())
    });
    for (got, want) in table.lines().zip(want.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(table.lines().count(), want.lines().count(), "pinned rows");
}
