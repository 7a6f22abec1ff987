//! End-to-end walkthroughs of the paper's running examples, checked
//! numerically against the [`Database`] façade.

use xivm::pattern::compile::view_tuples;
use xivm::prelude::*;

fn single_view(doc: &str, pattern: &str) -> Database {
    Database::builder().document(doc).view("v", pattern).build().unwrap()
}

fn report_of(db: &Database, commit: &Commit) -> UpdateReport {
    commit.report(db.view("v").unwrap()).clone()
}

/// Figure 2 / Figure 11: the sample document, and Example 4.1's
/// deletion of //c//b from the view //a//b.
#[test]
fn example_4_1() {
    let mut db = single_view("<a><c><b/></c><f><b/></f></a>", "//a{id}//b{id}");
    let v = db.view("v").unwrap();
    assert_eq!(db.store(v).len(), 2);
    let commit = db.apply("delete //c//b").unwrap();
    let report = report_of(&db, &commit);
    assert_eq!(report.tuples_removed, 1, "the tuple (a1, a1.c1.b1) must go");
    assert_eq!(db.store(v).len(), 1);
}

/// Figure 12 + Example 4.5: the 8-tuple view //a[//c]//b reduced to
/// tuples 1, 2 and 4 by deleting //a/f/c.
#[test]
fn example_4_5() {
    let mut db =
        single_view("<a><c><b/><b/></c><f><c><b/></c><b/></f></a>", "//a{id}[//c{id}]//b{id}");
    let v = db.view("v").unwrap();
    assert_eq!(db.store(v).len(), 8, "Figure 12 lists 8 tuples");
    let commit = db.apply("delete /a/f/c").unwrap();
    let report = report_of(&db, &commit);
    assert_eq!(report.derivations_removed, 5);
    assert_eq!(db.store(v).len(), 3, "tuples 1, 2 and 4 remain");
    // Proposition 4.2 leaves 4 terms; Δ⁻_a = ∅ leaves 3.
    assert_eq!(report.delete_prune.before, 4);
    assert_eq!(report.delete_prune.after_delta_emptiness, 3);
}

/// Example 4.8: derivation counts on //a[//b] under successive
/// deletions.
#[test]
fn example_4_8() {
    let mut db = single_view("<a><c><b/></c><f><b/></f></a>", "//a{id}[//b]");
    let v = db.view("v").unwrap();
    let key = db.cursor(v).next().unwrap().0.clone();
    let count = |db: &Database| db.store(v).get(&key).map(|(_, count)| count);
    assert_eq!(count(&db), Some(2), "two b-witnesses");

    db.apply("delete //c//b").unwrap();
    assert_eq!(count(&db), Some(1), "count drops to 1, tuple stays");

    db.apply("delete //f//b").unwrap();
    assert_eq!(count(&db), None, "count reaches 0, tuple removed");
}

/// Example 3.1 / 3.2: inserting xml1 into a document, only the three
/// surviving terms contribute; the view gains the right tuples.
#[test]
fn examples_3_1_and_3_2() {
    let mut db = single_view("<root><a><b><t/></b></a></root>", "//a{id}//b{id}//c{id}");
    let v = db.view("v").unwrap();
    assert_eq!(db.store(v).len(), 0);
    // u1 inserts xml1 = <a><b/><b><c/></b></a> under //t
    let commit = db.apply("insert <a><b/><b><c/></b></a> into //t").unwrap();
    let report = report_of(&db, &commit);
    assert_eq!(report.insert_prune.before, 3, "3 of 7 terms survive Prop 3.3");
    // new embeddings: outer a and b with new c, plus all-new chains
    let pattern = db.pattern(v).clone();
    let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
    assert!(db.store(v).same_content_as(&expected));
    assert!(!db.store(v).is_empty());
}

/// Example 3.14: an insertion that only modifies stored content.
#[test]
fn example_3_14() {
    let mut db = single_view("<a><b><c><d/></c></b></a>", "/a{id}/b{id}//c{id,cont}");
    let v = db.view("v").unwrap();
    let commit = db.apply("insert <extra>some value</extra> into //d").unwrap();
    let report = report_of(&db, &commit);
    assert_eq!(report.tuples_added, 0, "no Δ⁺ relation affects the view");
    assert_eq!(report.tuples_modified, 1, "but c.cont changed");
    let cont = db.cursor(v).next().unwrap().0.field(2).cont.clone().unwrap();
    assert!(cont.contains("some value"));
}

/// The Figure 3 sample view parses to the Figure 4 pattern and
/// evaluates with the documented semantics.
#[test]
fn figures_3_and_4() {
    let pattern = xivm::pattern::view::parse_view(
        "for $p in doc(\"confs\")//confs//paper, $a in $p/affiliation \
         return <result> <pid>{id($p)}</pid> <aid>{id($a)}</aid> \
         <acont>{$a}</acont> </result>",
    )
    .unwrap();
    assert_eq!(pattern.to_text(), "//confs//paper{id}/affiliation{id,cont}");
    let db = Database::builder()
        .document(
            "<confs><conf><paper><affiliation>X</affiliation></paper>\
             <paper><affiliation>Y</affiliation><affiliation>Z</affiliation></paper></conf></confs>",
        )
        .view("papers", pattern)
        .build()
        .unwrap();
    let v = db.view("papers").unwrap();
    let tuples: Vec<_> = db.cursor(v).collect();
    assert_eq!(tuples.len(), 3, "one row per (paper, affiliation) pair");
    assert_eq!(tuples[0].0.field(1).cont.as_deref(), Some("<affiliation>X</affiliation>"));
}

/// Figures 6 and 7: snowcap sets of the two lattice examples.
#[test]
fn figures_6_and_7_snowcaps() {
    use xivm::core::snowcap::enumerate_snowcaps;
    let v1 = parse_pattern("//a[//b//c]//d").unwrap();
    assert_eq!(enumerate_snowcaps(&v1).len(), 6);
    let v2 = parse_pattern("//a[//b][//c]//d").unwrap();
    assert_eq!(enumerate_snowcaps(&v2).len(), 8);
}

/// Section 5 / Example 5.1-shaped reduction feeding the engine: a
/// transaction must leave the view exactly as the original statement
/// sequence, while propagating strictly fewer atomic operations than
/// the naive expansion.
#[test]
fn batched_transaction_preserves_view_and_shrinks_the_pul() {
    let src = "<r><x><w/></x><y><b/></y><z/></r>";
    let script = [
        "insert <b/> into //w",
        "delete //x",
        "insert <b>1</b> into //z",
        "insert <b>2</b> into //z",
    ];

    // plain sequential application
    let mut plain = single_view(src, "//r{id}//b{id}");
    for s in script {
        plain.apply(s).unwrap();
    }

    // one batched transaction through the PUL optimizer
    let mut batched = single_view(src, "//r{id}//b{id}");
    let mut tx = batched.transaction();
    for s in script {
        tx = tx.statement(s);
    }
    let report = tx.commit().unwrap();
    assert_eq!(report.statements, 4);
    assert!(
        report.optimized_ops < report.naive_ops,
        "the optimizer must shrink the batch: {} -> {}",
        report.naive_ops,
        report.optimized_ops
    );
    assert!(
        report.optimized_ops < report.statements,
        "the reduced PUL must be smaller than the naive statement count"
    );

    assert_eq!(plain.serialize(), batched.serialize(), "documents agree");
    let (pv, bv) = (plain.view("v").unwrap(), batched.view("v").unwrap());
    // Compare across the two databases by label *names*: raw LabelIds
    // are private to each document's interner, and the optimizer may
    // reorder (or drop) the operations that intern them.
    let render = |db: &Database, h: xivm::ViewHandle| -> Vec<String> {
        db.cursor(h)
            .map(|(t, c)| {
                let ids: Vec<String> = t
                    .fields()
                    .iter()
                    .map(|f| f.id.display_with(|l| db.document().label_name(l).to_owned()))
                    .collect();
                format!("({})x{c}", ids.join(","))
            })
            .collect()
    };
    assert_eq!(render(&plain, pv), render(&batched, bv), "views agree");
    // and both agree with recomputation
    let pattern = batched.pattern(bv).clone();
    let fresh = ViewStore::from_counted(&pattern, view_tuples(batched.document(), &pattern));
    assert!(batched.store(bv).same_content_as(&fresh));
}

/// Example 5.2's conflicting pair must be rejected when a batch is
/// declared order-independent.
#[test]
fn independent_batches_reject_example_5_2_conflicts() {
    let mut db = single_view("<r><x><y/></x><z/></r>", "//r{id}//b{id}");
    let err = db
        .transaction()
        .independent()
        .statement("delete //x")
        .statement("insert <b/> into //x")
        .commit()
        .unwrap_err();
    assert!(matches!(err, Error::Conflict(_)));
    // the rejected batch left no trace
    assert_eq!(db.serialize(), "<r><x><y/></x><z/></r>");
}
