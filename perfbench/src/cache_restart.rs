//! `cache_restart`: the CI / fresh-process user. Each cycle fills an empty
//! on-disk proof cache with a cold pass over the Table 1 sessions, then
//! runs warm restarts: fresh sessions over a fresh `DirStore` on the same
//! directory, answered from disk. On a seeded subset of restarts one spec
//! variant is overridden, so its cone misses and is written back.

use crate::sessions::{self, Recipe};
use crate::stats::{ratio, Rng, Samples};
use crate::trace::Tracer;
use crate::verdicts::{self, Tally, ADD_TWO};
use crate::{counts_digest, Config, Layers, Outcome};
use driver::{CacheStore, DirStore};
use proof_cache::{CacheRecord, RunCounters, StoreStats};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Warm restarts per cycle. Every fill syncs 11 records to disk; with
/// fills more often than this, the restart figures spread several times
/// wider between runs.
const RESTARTS: usize = 50;
/// The verified `add_two` variants a restart may override with.
const OVERRIDES: [usize; 2] = [1, 2];

/// Which restarts of a cycle override `add_two`, and with what: three at
/// positions the seed picks, the first two with distinct variants (each
/// misses and is written back), the third repeating one of them (a hit).
/// Every seed gets the same mix, so medians and tails compare across
/// seeds.
fn override_plan(rng: &mut Rng) -> Vec<Option<usize>> {
    let mut positions: Vec<usize> = (0..RESTARTS).collect();
    rng.shuffle(&mut positions);
    let mut at = positions[..3].to_vec();
    at.sort_unstable();
    let mut variants = OVERRIDES;
    rng.shuffle(&mut variants);
    let mut plan = vec![None; RESTARTS];
    plan[at[0]] = Some(variants[0]);
    plan[at[1]] = Some(variants[1]);
    plan[at[2]] = Some(variants[rng.below(2)]);
    plan
}

#[derive(Default, Clone, Copy)]
struct StoreWork {
    lookups: u64,
    lookup_s: f64,
    inserts: u64,
    insert_s: f64,
}

/// Times every call into the proof-cache store; delegates to `DirStore`.
struct TimingStore {
    inner: DirStore,
    work: Mutex<StoreWork>,
}

impl TimingStore {
    fn work(&self) -> StoreWork {
        *self.work.lock().expect("store counters are never poisoned")
    }

    fn add(&self, f: impl FnOnce(&mut StoreWork)) {
        f(&mut self.work.lock().expect("store counters are never poisoned"));
    }
}

impl CacheStore for TimingStore {
    fn lookup(&self, target_key: u64) -> Vec<CacheRecord> {
        let t0 = Instant::now();
        let out = self.inner.lookup(target_key);
        let took = t0.elapsed().as_secs_f64();
        self.add(|w| {
            w.lookups += 1;
            w.lookup_s += took;
        });
        out
    }

    fn insert(&self, record: &CacheRecord) {
        let t0 = Instant::now();
        self.inner.insert(record);
        let took = t0.elapsed().as_secs_f64();
        self.add(|w| {
            w.inserts += 1;
            w.insert_s += took;
        });
    }

    fn clear(&self) {
        self.inner.clear();
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn note_run(&self, counters: RunCounters) {
        let t0 = Instant::now();
        self.inner.note_run(counters);
        let took = t0.elapsed().as_secs_f64();
        self.add(|w| w.insert_s += took);
    }
}

/// `statfs(2)` magic numbers of the RAM-backed file systems.
const TMPFS_MAGIC: i64 = 0x0102_1994;
const RAMFS_MAGIC: i64 = 0x8584_58f6;

extern "C" {
    fn statfs(path: *const std::ffi::c_char, buf: *mut i64) -> i32;
}

/// The resolved path of the store directory, its file-system type and
/// whether that type is RAM-backed.
fn describe_store(dir: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let Ok(path) = std::ffi::CString::new(dir.as_os_str().as_bytes()) else {
        return format!("{} (file system unknown)", dir.display());
    };
    // `struct statfs` of 64-bit Linux is 120 bytes with `f_type` first.
    let mut buf = [0i64; 32];
    // SAFETY: `path` is NUL-terminated and `buf` is writable and larger
    // than `struct statfs`.
    if unsafe { statfs(path.as_ptr(), buf.as_mut_ptr()) } != 0 {
        return format!("{} (file system unknown)", dir.display());
    }
    let ram = matches!(buf[0], TMPFS_MAGIC | RAMFS_MAGIC);
    format!(
        "{} (file system type {:#x}, {})",
        dir.display(),
        buf[0],
        if ram { "RAM-backed" } else { "not RAM-backed" }
    )
}

/// The six Table 1 sessions: every case study in FC, LP and LinkedList
/// also in TS.
fn recipes(rng: &mut Rng) -> Vec<Recipe> {
    let mut out = sessions::case_studies(false);
    out.retain(|r| r.mode_label() == "FC" || matches!(r.session, "LP" | "LinkedList"));
    rng.shuffle(&mut out);
    for r in &mut out {
        rng.shuffle(&mut r.targets);
    }
    out
}

/// One fill or restart over the store at `dir`.
struct Pass {
    setup: Duration,
    verify: Duration,
    calls: Vec<Duration>,
    hits: u64,
    misses: u64,
    writes: u64,
    digest: String,
    work: StoreWork,
}

/// `restart` passes feed the engine and solver counters; the fill's
/// proofs would otherwise drown the restarts' (near-zero) proof work.
fn run_pass(
    recipes: &[Recipe],
    dir: &Path,
    edit: Option<usize>,
    restart: bool,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Pass {
    let timing = Arc::new(TimingStore {
        inner: DirStore::new(dir),
        work: Mutex::default(),
    });
    let store: Arc<dyn CacheStore> = timing.clone();
    let mut pass = Pass {
        setup: Duration::ZERO,
        verify: Duration::ZERO,
        calls: Vec::new(),
        hits: 0,
        misses: 0,
        writes: 0,
        digest: String::new(),
        work: StoreWork::default(),
    };
    for r in recipes {
        let mut r = r.clone();
        if r.session == "EvenInt" {
            r.edit = edit.map(|i| &ADD_TWO[i]);
        }
        let (session, setup) = sessions::build(&r, tr, Some(store.clone()));
        pass.setup += setup;
        sessions::replay_setup(&r, &session, tr);
        let span = tr.begin("driver.verify_all");
        let t0 = Instant::now();
        let report = session.verify_all();
        let took = t0.elapsed();
        tr.end(span);
        pass.verify += took;
        pass.calls.push(took);
        pass.hits += report.solver.disk_cache_hits;
        pass.misses += report.solver.disk_cache_misses;
        pass.writes += report.solver.disk_cache_writes;
        if restart {
            crate::count_engine(tr, &report.stats, &report.solver);
            tr.count("solver.kernel_s", report.solver.kernel_nanos as f64 * 1e-9);
        }
        let mut verdicts = Vec::new();
        for c in &report.cases {
            let class = verdicts::expect(r.session, r.mode_label(), c.name());
            if !tally.check(class, c.verified()) && class == verdicts::Expect::MustFail {
                crate::soundness_bug(&format!("{} {} proved from the cache", r.session, c.name()));
            }
            verdicts.push((c.name().to_string(), c.verified()));
        }
        pass.digest += &format!(
            "{} {} {verdicts:?} {};",
            r.session,
            r.mode_label(),
            counts_digest(&report.stats, &report.solver)
        );
    }
    pass.work = timing.work();
    pass
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut rng = Rng::new(cfg.seed);
    let recipes = recipes(&mut rng);
    let targets: u64 = recipes.iter().map(|r| r.targets.len() as u64).sum();
    let plan = override_plan(&mut rng);
    let dir: PathBuf = cfg.work_dir.join(format!("store-{}", std::process::id()));
    let mut out = Outcome {
        tail_p: 90.0,
        ..Outcome::default()
    };
    let mut first: Vec<String> = Vec::new();
    let mut untraced = Tracer::new(false);
    let mut fills = Samples::default();
    let mut miss_restarts = Samples::default();
    let mut traced_restarts = Samples::default();
    let mut traced = StoreWork::default();
    let mut fill_work = StoreWork::default();
    let (mut traced_fills, mut traced_hits, mut traced_misses, mut bytes) = (0.0, 0.0, 0.0, 0.0);

    let start = Instant::now();
    let mut cycle = 0u64;
    // Cycle 0 is unmeasured: it interns every symbol and records the
    // answers every later cycle must repeat. A traced run alternates
    // untraced and traced cycles, so it runs at least one of each.
    while cycle <= 2 || start.elapsed() < cfg.seconds {
        let tracing = tr.enabled() && cycle.is_multiple_of(2) && cycle > 0;
        let t: &mut Tracer = if tracing { &mut *tr } else { &mut untraced };
        let measured = cycle > 0 && !tracing;
        DirStore::new(&dir).clear();
        let mut passes = Vec::with_capacity(RESTARTS + 1);
        t.next_op();
        passes.push(run_pass(&recipes, &dir, None, false, &mut out.tally, t));
        if tracing {
            bytes += DirStore::new(&dir).stats().bytes as f64;
        }
        let mut written = Vec::new();
        for edit in &plan {
            t.next_op();
            let mut p = run_pass(&recipes, &dir, *edit, true, &mut out.tally, t);
            // A fresh variant misses once and is written back; everything
            // else is served from disk.
            let expect_miss = edit.is_some_and(|e| !written.contains(&e));
            if let Some(e) = edit {
                written.push(*e);
            }
            out.other_attempted += 1;
            let want = (targets - expect_miss as u64, expect_miss as u64);
            if (p.hits, p.misses) != want {
                out.other_failed += 1;
                out.notes.push(format!(
                    "restart with {edit:?}: {} hits / {} misses, expected {} / {}",
                    p.hits, p.misses, want.0, want.1
                ));
            }
            p.digest += &format!(" hits={} misses={} writes={}", p.hits, p.misses, p.writes);
            passes.push(p);
        }
        let fill = &passes[0];
        out.other_attempted += 1;
        if (fill.misses, fill.writes) != (targets, targets) {
            out.other_failed += 1;
            out.notes.push(format!(
                "fill wrote {} of {targets} records ({} misses)",
                fill.writes, fill.misses
            ));
        }
        for (i, p) in passes.iter().enumerate() {
            match first.get(i) {
                None => first.push(p.digest.clone()),
                Some(d) if *d != p.digest => out
                    .mismatches
                    .push(format!("cycle {cycle} pass {i}: {} then {}", d, p.digest)),
                Some(_) => {}
            }
        }
        if measured {
            fills.push(fill.setup + fill.verify);
            out.note_rss(fills.len());
            for p in &passes[1..] {
                out.times.setup.push(p.setup);
                // A restart that re-proves an overridden spec also syncs its
                // record to disk: it is reported apart, so disk latency does
                // not set the warm-restart figures.
                if p.misses > 0 {
                    miss_restarts.push(p.setup + p.verify);
                    continue;
                }
                out.times.op.push(p.setup + p.verify);
                for call in &p.calls {
                    out.times.req.push(*call);
                }
            }
        } else if tracing {
            traced_fills += 1.0;
            fill_work.inserts += fill.work.inserts;
            fill_work.insert_s += fill.work.insert_s;
            for p in &passes[1..] {
                if p.misses == 0 {
                    traced_restarts.push(p.setup + p.verify);
                }
                traced_hits += p.hits as f64;
                traced_misses += p.misses as f64;
                traced.lookups += p.work.lookups;
                traced.lookup_s += p.work.lookup_s;
            }
        }
        // The first boundary follows cycle 0, which is not measured.
        out.boundary();
        cycle += 1;
    }
    let store = describe_store(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    out.op_name = "warm restart: fresh session builds to every verdict served from disk \
                   (restarts that re-prove an override excluded)";
    out.unit_name = "restart";
    out.work_unit = "cycle";
    out.notes.push(format!(
        "{} cycles of 1 fill + {RESTARTS} restarts over {targets} targets; overrides at restarts {:?}",
        cycle - 1,
        plan.iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|v| (i, v)))
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "named fill_p50_ms = {:.4} ms measured (p75 {:.4} ms, {} fills); restarts that re-prove \
         an override and write it back: p50 {:.4} ms ({} restarts); store directory: {store}",
        fills.median() * 1e3,
        fills.percentile(75.0) * 1e3,
        fills.len(),
        miss_restarts.median() * 1e3,
        miss_restarts.len(),
    ));

    if tr.enabled() {
        // Every traced restart, including those that re-prove an override.
        let restarts = (traced_fills * RESTARTS as f64).max(1.0);
        let mut layers = Layers::default();
        crate::engine_layers(tr, restarts, &mut layers);
        sessions::setup_layers(tr, restarts + traced_fills, &mut layers);
        layers.set("proof-cache.lookup_s", ratio(traced.lookup_s, restarts));
        layers.set(
            "proof-cache.lookups",
            ratio(traced.lookups as f64, restarts),
        );
        layers.set(
            "proof-cache.hit_ratio",
            ratio(traced_hits, traced_hits + traced_misses),
        );
        layers.set("proof-cache.bytes", ratio(bytes, traced_fills));
        layers.set(
            "proof-cache.insert_s",
            ratio(fill_work.insert_s, traced_fills),
        );
        layers.set(
            "proof-cache.inserts",
            ratio(fill_work.inserts as f64, traced_fills),
        );
        layers.set(
            "trace.overhead_frac",
            traced_restarts.median() / out.times.op.median() - 1.0,
        );
        out.layers = layers;
    }
    out
}
