//! Cross-process stable fingerprints of program items — the one item
//! fingerprint of the pipeline.
//!
//! Every fingerprint hashes the item's *structure*: constructor tags plus
//! interned **names** (via `Symbol::as_str`), never `Symbol`/`TermId`
//! numeric identity, which depends on interning order. Combined with the
//! fixed-key [`StableHasher`], two processes loading structurally identical
//! items always agree on every fingerprint here. Cosmetic fields such as
//! `Proc::source_lines` are skipped.
//!
//! The same values serve both consumers: proof-cache records on disk, and
//! the `gillian serve` dependency tracker, which compares them to decide
//! which proofs an edit invalidates. A tracker read-set therefore *is* a
//! record read-set.

use crate::hash::StableHasher;
use gillian_engine::gil::{Cmd, DepKind, LogicCmd, Proc, Prog};
use gillian_engine::{Asrt, Lemma, Pred, Spec};
use gillian_solver::{Expr, Symbol};
use std::hash::{Hash, Hasher};

/// Stable fingerprint of whatever currently sits behind `(kind, name)` in
/// `prog`. Absent items get a stable per-kind sentinel — a lookup miss is
/// still a dependency, and the sentinel turning into a real fingerprint is
/// exactly how "a spec was added for a previously-unspecified callee"
/// invalidates cached readers.
///
/// Uses direct map access (never the recording lookups) so that computing
/// fingerprints cannot pollute an open dependency-recording window.
pub fn stable_fingerprint_key(prog: &Prog, kind: DepKind, name: Symbol) -> u64 {
    match kind {
        DepKind::Proc => match prog.procs.get(&name) {
            Some(p) => stable_proc(p),
            None => absent(kind),
        },
        DepKind::Pred => match prog.preds.get(&name) {
            Some(p) => stable_pred(p),
            None => absent(kind),
        },
        DepKind::Spec => match prog.specs.get(&name) {
            Some(s) => stable_spec(s),
            None => absent(kind),
        },
        DepKind::Lemma => match prog.lemmas.get(&name) {
            Some(l) => stable_lemma(l),
            None => absent(kind),
        },
        DepKind::ProcSig => match prog.procs.get(&name) {
            Some(p) => stable_proc_sig(p),
            None => absent(kind),
        },
    }
}

/// Stable fingerprint of a verification *target*: the combination of the
/// proc, spec and lemma currently registered under the target's name.
/// Covers both function targets (proc + spec) and lemma targets uniformly;
/// absent slots contribute their per-kind sentinel.
pub fn stable_target_fingerprint(prog: &Prog, name: &str) -> u64 {
    let sym = Symbol::new(name);
    let mut h = StableHasher::new();
    0xB0u8.hash(&mut h);
    h.write_u64(stable_fingerprint_key(prog, DepKind::Proc, sym));
    h.write_u64(stable_fingerprint_key(prog, DepKind::Spec, sym));
    h.write_u64(stable_fingerprint_key(prog, DepKind::Lemma, sym));
    h.finish()
}

fn absent(kind: DepKind) -> u64 {
    let mut h = StableHasher::new();
    "absent".hash(&mut h);
    kind.label().hash(&mut h);
    h.finish()
}

fn symbol(h: &mut StableHasher, s: &Symbol) {
    s.as_str().hash(h);
}

fn symbols(h: &mut StableHasher, ss: &[Symbol]) {
    h.write_u64(ss.len() as u64);
    for s in ss {
        symbol(h, s);
    }
}

pub fn stable_spec(spec: &Spec) -> u64 {
    let mut h = StableHasher::new();
    0xA0u8.hash(&mut h);
    symbol(&mut h, &spec.name);
    spec.trusted.hash(&mut h);
    asrt(&mut h, &spec.pre);
    h.write_u64(spec.posts.len() as u64);
    for p in &spec.posts {
        asrt(&mut h, p);
    }
    h.finish()
}

pub fn stable_pred(pred: &Pred) -> u64 {
    let mut h = StableHasher::new();
    0xA1u8.hash(&mut h);
    symbol(&mut h, &pred.name);
    symbols(&mut h, &pred.params);
    h.write_u64(pred.num_ins as u64);
    pred.is_abstract.hash(&mut h);
    pred.unfold_on_branch.hash(&mut h);
    h.write_u64(pred.definitions.len() as u64);
    for d in &pred.definitions {
        asrt(&mut h, d);
    }
    h.finish()
}

pub fn stable_lemma(lemma: &Lemma) -> u64 {
    let mut h = StableHasher::new();
    0xA2u8.hash(&mut h);
    symbol(&mut h, &lemma.name);
    symbols(&mut h, &lemma.params);
    lemma.trusted.hash(&mut h);
    asrt(&mut h, &lemma.hyp);
    h.write_u64(lemma.concls.len() as u64);
    for c in &lemma.concls {
        asrt(&mut h, c);
    }
    match &lemma.proof {
        None => h.write_u8(0),
        Some(cmds) => {
            h.write_u8(1);
            h.write_u64(cmds.len() as u64);
            for c in cmds {
                logic_cmd(&mut h, c);
            }
        }
    }
    h.finish()
}

pub fn stable_proc(proc: &Proc) -> u64 {
    let mut h = StableHasher::new();
    0xA3u8.hash(&mut h);
    symbol(&mut h, &proc.name);
    symbols(&mut h, &proc.params);
    h.write_u64(proc.body.len() as u64);
    for c in &proc.body {
        cmd(&mut h, c);
    }
    h.finish()
}

/// Signature only (name + parameter list) — what a spec-call site actually
/// reads. Body edits leave it unchanged.
pub fn stable_proc_sig(proc: &Proc) -> u64 {
    let mut h = StableHasher::new();
    0xA4u8.hash(&mut h);
    symbol(&mut h, &proc.name);
    symbols(&mut h, &proc.params);
    h.finish()
}

fn expr(h: &mut StableHasher, e: &Expr) {
    e.stable_hash_into(h);
}

fn exprs(h: &mut StableHasher, es: &[Expr]) {
    h.write_u64(es.len() as u64);
    for e in es {
        expr(h, e);
    }
}

fn asrt(h: &mut StableHasher, a: &Asrt) {
    match a {
        Asrt::Emp => h.write_u8(0),
        Asrt::Star(items) => {
            h.write_u8(1);
            h.write_u64(items.len() as u64);
            for item in items {
                asrt(h, item);
            }
        }
        Asrt::Pure(e) => {
            h.write_u8(2);
            expr(h, e);
        }
        Asrt::Core { name, ins, outs } => {
            h.write_u8(3);
            symbol(h, name);
            exprs(h, ins);
            exprs(h, outs);
        }
        Asrt::Pred { name, args } => {
            h.write_u8(4);
            symbol(h, name);
            exprs(h, args);
        }
        Asrt::Guarded { name, lft, args } => {
            h.write_u8(5);
            symbol(h, name);
            expr(h, lft);
            exprs(h, args);
        }
        Asrt::Observation(e) => {
            h.write_u8(6);
            expr(h, e);
        }
    }
}

fn logic_cmd(h: &mut StableHasher, c: &LogicCmd) {
    match c {
        LogicCmd::Fold(name, args) => {
            h.write_u8(0);
            symbol(h, name);
            exprs(h, args);
        }
        LogicCmd::Unfold(name, args) => {
            h.write_u8(1);
            symbol(h, name);
            exprs(h, args);
        }
        LogicCmd::UnfoldGuarded(name, args) => {
            h.write_u8(2);
            symbol(h, name);
            exprs(h, args);
        }
        LogicCmd::FoldGuarded(name, args) => {
            h.write_u8(3);
            symbol(h, name);
            exprs(h, args);
        }
        LogicCmd::ApplyLemma(name, args) => {
            h.write_u8(4);
            symbol(h, name);
            exprs(h, args);
        }
        LogicCmd::Assert(a) => {
            h.write_u8(5);
            asrt(h, a);
        }
        LogicCmd::Assume(e) => {
            h.write_u8(6);
            expr(h, e);
        }
        LogicCmd::Produce(a) => {
            h.write_u8(7);
            asrt(h, a);
        }
        LogicCmd::Consume(a) => {
            h.write_u8(8);
            asrt(h, a);
        }
        LogicCmd::Tactic(name, args) => {
            h.write_u8(9);
            symbol(h, name);
            exprs(h, args);
        }
    }
}

fn cmd(h: &mut StableHasher, c: &Cmd) {
    match c {
        Cmd::Assign(x, e) => {
            h.write_u8(0);
            symbol(h, x);
            expr(h, e);
        }
        Cmd::Action { lhs, name, args } => {
            h.write_u8(1);
            symbol(h, lhs);
            symbol(h, name);
            exprs(h, args);
        }
        Cmd::Goto(t) => {
            h.write_u8(2);
            h.write_u64(*t as u64);
        }
        Cmd::GotoIf {
            guard,
            then_target,
            else_target,
        } => {
            h.write_u8(3);
            expr(h, guard);
            h.write_u64(*then_target as u64);
            h.write_u64(*else_target as u64);
        }
        Cmd::Call { lhs, proc, args } => {
            h.write_u8(4);
            symbol(h, lhs);
            symbol(h, proc);
            exprs(h, args);
        }
        Cmd::Logic(l) => {
            h.write_u8(5);
            logic_cmd(h, l);
        }
        Cmd::Return(e) => {
            h.write_u8(6);
            expr(h, e);
        }
        Cmd::Fail(msg) => {
            h.write_u8(7);
            msg.hash(h);
        }
        Cmd::Skip => h.write_u8(8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(delta: i128) -> Spec {
        Spec::new(
            "f",
            Asrt::pure(Expr::le(Expr::lvar("x"), Expr::Int(1000))),
            Asrt::pure(Expr::eq(
                Expr::lvar("ret"),
                Expr::add(Expr::lvar("x"), Expr::Int(delta)),
            )),
        )
    }

    #[test]
    fn identical_content_same_fingerprint() {
        assert_eq!(stable_spec(&spec(1)), stable_spec(&spec(1)));
    }

    #[test]
    fn different_content_different_fingerprint() {
        assert_ne!(stable_spec(&spec(1)), stable_spec(&spec(2)));
        assert_ne!(stable_spec(&spec(1)), stable_spec(&spec(1).trusted()));
    }

    /// The cross-process contract, pinned: these u64s must never change for
    /// the lifetime of the cache format version. If an intentional change
    /// to the traversal or the hasher alters them, bump
    /// `CACHE_FORMAT_VERSION` and update the constants in the same commit.
    #[test]
    fn golden_item_fingerprints_are_pinned() {
        assert_eq!(stable_spec(&spec(1)), 0x75951109361f34d9);
        let pred = Pred::new(
            "even",
            &["x"],
            1,
            vec![Asrt::pure(Expr::eq(
                Expr::lvar("x"),
                Expr::mul(Expr::Int(2), Expr::lvar("k")),
            ))],
        );
        assert_eq!(stable_pred(&pred), 0x7df568c6022d5e9b);
        let proc = Proc::new("f", &["x"], vec![Cmd::Return(Expr::pvar("x"))]);
        assert_eq!(stable_proc(&proc), 0x863ce426f42d1741);
        assert_eq!(stable_proc_sig(&proc), 0xbfa80fc26f1b6526);
        let lemma = Lemma::new("l", &["x"], Asrt::Emp, Asrt::Emp);
        assert_eq!(stable_lemma(&lemma), 0xc46ac0f687ded4e7);
        // The per-kind sentinels of absent items: a recorded miss is part of
        // every read-set, on disk and in the daemon's dependency tracker.
        assert_eq!(absent(DepKind::Proc), 0x006e9c3121da53d7);
        assert_eq!(absent(DepKind::Pred), 0xa46d6af96207fc02);
        assert_eq!(absent(DepKind::Spec), 0x2701b32be4786abc);
        assert_eq!(absent(DepKind::Lemma), 0xd4d43993540f885a);
        assert_eq!(absent(DepKind::ProcSig), 0xb963ab2fe4e54709);
    }

    #[test]
    fn proc_source_lines_are_cosmetic() {
        let mut a = Proc::new("f", &["x"], vec![Cmd::Return(Expr::pvar("x"))]);
        let b = a.clone();
        a.source_lines = 99;
        assert_eq!(stable_proc(&a), stable_proc(&b));
    }

    #[test]
    fn absent_keys_are_stable_and_kind_distinct() {
        let prog = Prog::new();
        let name = Symbol::new("ghost");
        let a = stable_fingerprint_key(&prog, DepKind::Spec, name);
        let b = stable_fingerprint_key(&prog, DepKind::Spec, name);
        assert_eq!(a, b);
        assert_ne!(a, stable_fingerprint_key(&prog, DepKind::Proc, name));
    }

    #[test]
    fn adding_an_item_changes_its_key_fingerprint() {
        let mut prog = Prog::new();
        let name = Symbol::new("f");
        let before = stable_fingerprint_key(&prog, DepKind::Spec, name);
        prog.add_spec(spec(1));
        let after = stable_fingerprint_key(&prog, DepKind::Spec, name);
        assert_ne!(before, after);
        // The target fingerprint sees it too.
        let empty = Prog::new();
        assert_ne!(
            stable_target_fingerprint(&prog, "f"),
            stable_target_fingerprint(&empty, "f")
        );
    }

    #[test]
    fn sig_fingerprint_ignores_body_edits() {
        let a = Proc::new("f", &["x"], vec![Cmd::Return(Expr::pvar("x"))]);
        let b = Proc::new(
            "f",
            &["x"],
            vec![Cmd::Return(Expr::add(Expr::pvar("x"), Expr::Int(1)))],
        );
        assert_eq!(stable_proc_sig(&a), stable_proc_sig(&b));
        assert_ne!(stable_proc(&a), stable_proc(&b));
    }

    #[test]
    fn interning_order_does_not_matter() {
        // Build the same spec twice with unrelated symbols interned in
        // between; numeric Symbol ids differ, stable hashes must not.
        let a = stable_spec(&spec(7));
        for i in 0..100 {
            Symbol::new(&format!("noise_{i}"));
        }
        let b = stable_spec(&spec(7));
        assert_eq!(a, b);
    }
}
