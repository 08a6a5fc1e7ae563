//! Persistent proof-cache speedup across *processes* (the tentpole's
//! headline number for PR 7).
//!
//! The warm-daemon bench shows what staying resident buys; this one shows
//! what the on-disk cache buys a process that did NOT stay resident. The
//! parent re-executes itself twice as a child process over one cache
//! directory:
//!
//! 1. **cold child** — a fresh process, empty cache: every Table 1 target
//!    is proved and written back;
//! 2. **warm child** — another fresh process, same directory: every target
//!    must be answered from disk with zero proof work.
//!
//! The run **asserts** the cache contract: the warm child re-proves 0
//! targets (all hits, no kernel/SMT queries) with verdicts intact, and its
//! verification time beats the cold child's by at least 2×. Results go to
//! `BENCH_cache.json` at the workspace root (uploaded as a CI artifact by
//! the bench-smoke job).
//!
//! `BENCH_QUICK=1` (or `-- --quick`) runs the first three Table 1 cases
//! only, still asserting the contract, so CI stays fast.

use case_studies::table1::table1_cases;
use proof_cache::{CacheStore, DirStore};
use std::sync::Arc;
use std::time::Instant;

const ROLE_ENV: &str = "GILLIAN_BENCH_CACHE_ROLE";
const DIR_ENV: &str = "GILLIAN_BENCH_CACHE_DIR";
const QUICK_ENV: &str = "GILLIAN_BENCH_CACHE_QUICK";

/// One child lifetime: Table 1 through fresh sessions sharing one on-disk
/// store. Prints a single machine-readable summary line for the parent.
fn child_main(quick: bool) -> ! {
    let dir = std::env::var(DIR_ENV).expect("child runs with a cache dir");
    let store: Arc<dyn CacheStore> = Arc::new(DirStore::new(&dir));
    let mut cases = table1_cases();
    if quick {
        cases.truncate(3);
    }
    let (mut targets, mut hits, mut misses, mut writes) = (0u64, 0u64, 0u64, 0u64);
    let (mut kernel_queries, mut smt_queries) = (0u64, 0u64);
    let mut verify_seconds = 0.0f64;
    let mut all_verified = true;
    for case in cases {
        let session = case.builder().workers(1).cache(Arc::clone(&store));
        let report = session.build().unwrap().verify_all();
        all_verified &= report.all_verified();
        targets += report.cases.len() as u64;
        hits += report.solver.disk_cache_hits;
        misses += report.solver.disk_cache_misses;
        writes += report.solver.disk_cache_writes;
        kernel_queries += report.solver.unsat_queries;
        smt_queries += report.solver.smt_queries;
        verify_seconds += report.wall_time.as_secs_f64();
    }
    println!(
        "CACHEBENCH targets={targets} hits={hits} misses={misses} writes={writes} \
         kernel_queries={kernel_queries} smt_queries={smt_queries} \
         verified={all_verified} verify_seconds={verify_seconds:.6}"
    );
    std::process::exit(if all_verified { 0 } else { 1 });
}

#[derive(Debug, Default, Clone)]
struct ChildStats {
    targets: u64,
    hits: u64,
    misses: u64,
    writes: u64,
    kernel_queries: u64,
    smt_queries: u64,
    verified: bool,
    verify_seconds: f64,
    process_seconds: f64,
}

fn spawn_child(dir: &std::path::Path, quick: bool) -> ChildStats {
    let exe = std::env::current_exe().expect("bench binary path");
    let start = Instant::now();
    let out = std::process::Command::new(exe)
        .env(ROLE_ENV, "child")
        .env(DIR_ENV, dir)
        .env(QUICK_ENV, if quick { "1" } else { "0" })
        .output()
        .expect("spawn cache-bench child");
    let process_seconds = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("CACHEBENCH "))
        .unwrap_or_else(|| panic!("no CACHEBENCH line in:\n{stdout}"));
    let mut stats = ChildStats {
        process_seconds,
        ..ChildStats::default()
    };
    for field in line.trim_start_matches("CACHEBENCH ").split_whitespace() {
        let (key, value) = field.split_once('=').expect("key=value");
        match key {
            "targets" => stats.targets = value.parse().unwrap(),
            "hits" => stats.hits = value.parse().unwrap(),
            "misses" => stats.misses = value.parse().unwrap(),
            "writes" => stats.writes = value.parse().unwrap(),
            "kernel_queries" => stats.kernel_queries = value.parse().unwrap(),
            "smt_queries" => stats.smt_queries = value.parse().unwrap(),
            "verified" => stats.verified = value.parse().unwrap(),
            "verify_seconds" => stats.verify_seconds = value.parse().unwrap(),
            other => panic!("unknown CACHEBENCH field `{other}`"),
        }
    }
    stats
}

fn main() {
    let quick_arg = std::env::args().any(|a| a == "--quick");
    if std::env::var(ROLE_ENV).as_deref() == Ok("child") {
        child_main(std::env::var(QUICK_ENV).as_deref() == Ok("1"));
    }
    let quick = quick_arg || std::env::var("BENCH_QUICK").is_ok();
    println!(
        "== proof_cache (fresh-process cold vs warm, Table 1{}) ==",
        if quick { ", quick" } else { "" }
    );

    let dir = std::env::temp_dir().join(format!("gillian-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = spawn_child(&dir, quick);
    assert!(cold.verified, "cold run verifies everything");
    assert_eq!(cold.hits, 0, "first process starts from an empty store");
    assert_eq!(cold.misses, cold.targets);
    assert_eq!(
        cold.writes, cold.targets,
        "every verified proof is persisted"
    );

    let warm = spawn_child(&dir, quick);
    assert!(warm.verified, "warm run preserves every verdict");
    assert_eq!(
        warm.misses, 0,
        "a fresh process on an unchanged workload re-proves 0 targets"
    );
    assert_eq!(
        warm.hits, cold.targets,
        "every target is answered from disk"
    );
    assert_eq!(warm.kernel_queries, 0, "no kernel queries ran warm");
    assert_eq!(warm.smt_queries, 0, "no SMT queries ran warm");

    let speedup = cold.verify_seconds / warm.verify_seconds.max(1e-9);
    println!(
        "  cold: {:>9.4}s verify ({:.4}s process) — {} targets proved, {} records written",
        cold.verify_seconds, cold.process_seconds, cold.targets, cold.writes
    );
    println!(
        "  warm: {:>9.6}s verify ({:.4}s process) — {} targets answered from disk",
        warm.verify_seconds, warm.process_seconds, warm.hits
    );
    println!("  verification speedup: {speedup:.1}x");

    // Acceptance: answering from disk beats re-proving, with room.
    assert!(
        speedup >= 2.0,
        "warm fresh-process run must be at least 2x faster than cold, got {speedup:.2}x"
    );

    let json = format!(
        "{{\"suite\":\"table1\",\"bench\":\"proof_cache\",\"quick\":{quick},\
         \"targets\":{},\"cold_verify_seconds\":{:.6},\"warm_verify_seconds\":{:.6},\
         \"cold_process_seconds\":{:.6},\"warm_process_seconds\":{:.6},\
         \"warm_speedup\":{speedup:.2},\"cold_writes\":{},\"warm_hits\":{},\
         \"warm_misses\":{},\"all_verified\":true}}",
        cold.targets,
        cold.verify_seconds,
        warm.verify_seconds,
        cold.process_seconds,
        warm.process_seconds,
        cold.writes,
        warm.hits,
        warm.misses,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json");
    std::fs::write(path, &json).expect("write BENCH_cache.json");
    println!("  wrote {path}");

    let _ = std::fs::remove_dir_all(&dir);
}
