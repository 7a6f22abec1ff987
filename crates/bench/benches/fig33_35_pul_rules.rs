//! Figures 33–35: benefit of the PUL reduction rules O1, O3 and I5
//! (Section 6.8) when propagating overlapping update sequences to
//! view Q1 over a 100 KB document.
//!
//! For each rule, a base update runs alongside a second update whose
//! targets overlap the base's by 20 % … 100 %; the sequence is
//! propagated once as-is and once after reduction (optimization time
//! included). Expected shape: optimization wins, and more as the
//! overlap percentage grows.

use std::time::Instant;
use xivm_bench::{figure_header, host, ms, repetitions, row};
use xivm_core::{MaintenanceEngine, SnowcapStrategy};
use xivm_pulopt::reduce;
use xivm_update::{compute_pul, Pul, UpdateStatement};
use xivm_xmark::sizes::small_size;
use xivm_xmark::{generate_sized, view_pattern};
use xivm_xml::Document;

const PERCENTAGES: [usize; 5] = [20, 40, 60, 80, 100];

fn main() {
    let size = small_size();
    let doc = generate_sized(size.bytes);
    let reps = repetitions();
    for rule in ["O1", "O3", "I5"] {
        let figure = match rule {
            "O1" => "Figure 33",
            "O3" => "Figure 34",
            _ => "Figure 35",
        };
        figure_header(figure, &format!("optimisation {rule}, view Q1, {} document", size.label));
        row(&[
            "overlap_pct".to_owned(),
            "optimise_ms".to_owned(),
            "no_optimise_ms".to_owned(),
            "ops_before".to_owned(),
            "ops_after".to_owned(),
        ]);
        for pct in PERCENTAGES {
            let pul = build_sequence(&doc, rule, pct);
            let (opt, ops_after) = run(&doc, &pul, true, reps);
            let (plain, _) = run(&doc, &pul, false, reps);
            row(&[
                format!("{pct}%"),
                format!("{opt:.3}"),
                format!("{plain:.3}"),
                pul.len().to_string(),
                ops_after.to_string(),
            ]);
        }
    }
}

/// Builds the overlapping atomic-operation sequence for one rule.
fn build_sequence(doc: &Document, rule: &str, pct: usize) -> Pul {
    let persons = UpdateStatement::delete("/site/people/person").unwrap();
    let person_pul = compute_pul(doc, &persons);
    let n_overlap = person_pul.len() * pct / 100;
    match rule {
        "O1" => {
            // insert under X% of the persons, then delete all persons:
            // O1 drops every insertion whose target a later deletion
            // removes — unoptimized propagation pays for the doomed
            // insertions first.
            let ins = UpdateStatement::insert(
                "/site/people/person",
                "<name>doomed<name>a</name><name>b</name></name>",
            )
            .unwrap();
            let ins_pul = compute_pul(doc, &ins);
            let mut ops: Vec<_> = ins_pul.ops[..n_overlap].to_vec();
            ops.extend(person_pul.ops.iter().cloned());
            Pul::new(ops)
        }
        "O3" => {
            // insert under X% of the person *names* (descendants),
            // then delete all persons: O3 drops the insertions because
            // an ancestor is deleted later.
            let ins = UpdateStatement::insert(
                "/site/people/person/name",
                "<name>doomed<name>a</name><name>b</name></name>",
            )
            .unwrap();
            let ins_pul = compute_pul(doc, &ins);
            let take = ins_pul.len() * pct / 100;
            let mut ops: Vec<_> = ins_pul.ops[..take].to_vec();
            ops.extend(person_pul.ops.iter().cloned());
            Pul::new(ops)
        }
        "I5" => {
            // two insertions on the same person targets
            let ins1 =
                UpdateStatement::insert("/site/people/person", "<name>first<name>a</name></name>")
                    .unwrap();
            let ins2 =
                UpdateStatement::insert("/site/people/person", "<name>second<name>b</name></name>")
                    .unwrap();
            let p1 = compute_pul(doc, &ins1);
            let p2 = compute_pul(doc, &ins2);
            let mut ops = p1.ops;
            ops.extend(p2.ops[..n_overlap].iter().cloned());
            Pul::new(ops)
        }
        other => panic!("unknown rule {other}"),
    }
}

/// Propagates the sequence to a fresh Q1 view through the product's
/// step (a one-view host), optionally reducing it first (reduction time
/// included). Returns (avg ms, ops after).
fn run(doc: &Document, pul: &Pul, optimize: bool, reps: usize) -> (f64, usize) {
    let pattern = view_pattern("Q1");
    let mut total = 0.0;
    let mut ops_after = pul.len();
    for _ in 0..reps {
        let mut d = doc.clone();
        let engine = MaintenanceEngine::new(&d, pattern.clone(), SnowcapStrategy::MinimalChain);
        let mut host = host(engine);
        let start = Instant::now();
        let effective = if optimize {
            let (reduced, trace) = reduce(pul);
            ops_after = trace.ops_after;
            reduced
        } else {
            pul.clone()
        };
        let reports = host.propagate_pul(&mut d, &effective).expect("propagation succeeds");
        total += ms(start.elapsed());
        std::hint::black_box(reports[0].1.tuples_added);
    }
    (total / reps as f64, ops_after)
}
