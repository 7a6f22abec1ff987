//! The paper's cost claim as counts: maintaining a view costs in
//! proportion to the update's Δ, not to the document.
//!
//! Every Appendix A path, narrowed to one target by an `[@id=…]` step
//! (as `X1_L_PRED` and the benchmark's point streams are), is inserted
//! and then deleted under the seven catalog views through [`Database`],
//! on XMark documents of 16, 64 and 256 KB. Per commit, each counted
//! layer's work ([`Commit::work`]) divided by the Δ tuples — the nodes
//! the update inserted or deleted — stays within [`PER_DELTA_TUPLE`],
//! the constant `ARCHITECTURE.md` states:
//!
//! * the apply: the list settle's searches, comparisons and sweep reads,
//!   and what it copied or released for images;
//! * the views: store and snowcap rows examined one by one, and the
//!   bindings their terms emitted.
//!
//! Nothing reads an image here, so no commit takes or copies one, and no
//! catalog update flips a value predicate, so no view recomputes: the
//! recomputation arm is O(document) by design, and counted by nothing.
//!
//! The catalog's targets differ from size to size, and so do their Δs.
//! One fixed point update — a person inserted, then deleted by its
//! `@id` — does the same work at every size, comparisons aside.

use xivm::core::{Commit, Database};
use xivm::pattern::xpath::{eval_path, parse_xpath};
use xivm::xmark::{all_updates, generate_sized, view_pattern, VIEW_NAMES};
use xivm::xml::{Document, NodeId, Work};

/// The bound per Δ tuple, for each layer (`ARCHITECTURE.md`, "What a
/// commit costs").
const PER_DELTA_TUPLE: u64 = 16;

/// The elements of the auction document that carry an `@id`.
const KEYED: [&str; 3] = ["person", "item", "open_auction"];

/// The steps of `path`, cut at the slashes outside predicates.
fn steps(path: &str) -> Vec<&str> {
    let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, c) in path.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            '/' if depth == 0 => {
                out.push(&path[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&path[start..]);
    out
}

/// `path` narrowed to one of its targets — the middle one in document
/// order — by an `[@id=…]` step on the last keyed element it names: the
/// target's own, or the ancestor's it lies under. `None` when the path
/// selects nothing.
fn narrowed(doc: &Document, path: &str) -> Option<String> {
    let targets = eval_path(doc, &parse_xpath(path).unwrap());
    let target = *targets.get(targets.len() / 2)?;
    let mut steps: Vec<String> = steps(path).into_iter().map(str::to_owned).collect();
    let name = |step: &str| step.split('[').next().unwrap_or("").to_owned();
    let at = steps.iter().rposition(|s| KEYED.contains(&name(s).as_str())).expect("a keyed step");
    let keyed = name(&steps[at]);
    let mut up = std::iter::successors(Some(target), |&n| doc.parent_of(n));
    let owner = up.find(|&n| doc.label_name(doc.node(n).label) == keyed).unwrap();
    let id = |&a: &NodeId| doc.label_name(doc.node(a).label) == "@id";
    let attribute = doc.children_of(owner).iter().find(|a| id(a)).expect("a keyed element");
    steps[at].push_str(&format!("[@id=\"{}\"]", doc.value(*attribute)));
    Some(steps.join("/"))
}

/// The apply's counts, and the views'.
fn layers(work: &Work) -> [(&'static str, u64); 2] {
    let Work { searches, comparisons, sweep_reads, chunks, lists, interners, released, .. } = work;
    let apply = searches + comparisons + sweep_reads + chunks + lists + interners + released;
    [("apply", apply + work.images), ("views", work.rows + work.tuples)]
}

/// One commit of `stmt` and the Δ tuples it made: the nodes it inserted
/// or deleted.
fn commit(db: &mut Database, stmt: &str) -> (Commit, u64) {
    let live = db.document().live_count();
    let commit = db.apply(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    (commit, db.document().live_count().abs_diff(live) as u64)
}

/// The document sizes, in bytes.
const SIZES: [usize; 3] = [16 << 10, 64 << 10, 256 << 10];

/// An XMark document of about `bytes` under the seven catalog views.
fn catalog(bytes: usize) -> Database {
    let builder = Database::builder().document(generate_sized(bytes));
    VIEW_NAMES.into_iter().fold(builder, |b, v| b.view(v, view_pattern(v))).build().unwrap()
}

#[test]
fn every_layer_works_in_proportion_to_the_delta_at_every_document_size() {
    for bytes in SIZES {
        let mut db = catalog(bytes);
        let mut paths = 0;
        for u in all_updates() {
            let Some(path) = narrowed(db.document(), u.path) else { continue };
            paths += 1;
            let insert = format!("insert {} into {path}", u.insert_xml);
            for stmt in [insert, format!("delete {path}")] {
                let (commit, delta) = commit(&mut db, &stmt);
                assert!(delta > 0, "{stmt}");
                let work = commit.work();
                let copies = (work.images, work.chunks, work.lists, work.interners);
                assert_eq!(copies, (0, 0, 0, 0), "{stmt}: nobody reads an image");
                assert!(commit.iter().all(|(_, r)| !r.recomputed), "{stmt}: no flip");
                for (layer, count) in layers(&work) {
                    assert!(
                        count <= PER_DELTA_TUPLE * delta,
                        "{bytes} bytes, {stmt}: {layer} {count} for {delta} Δ tuples ({work:?})"
                    );
                }
            }
        }
        // B1_O selects nothing, and on 16 KB the deletions before them
        // leave X3_A, X4_O, X5_AO and A8_AO no target either.
        assert!(paths >= 16, "{bytes} bytes: {paths} catalog paths select a target");
    }
}

/// The "not the document" half, directly: one person inserted into
/// `/site/people` and deleted again by its `@id` does the same work at
/// every size — searches, probes, rows, bindings and exits alike — but
/// for the comparisons, which each search makes in proportion to the
/// log of its list. The deletion finds its person by one value-index
/// probe.
#[test]
fn a_point_update_does_the_same_work_at_every_document_size() {
    let person = "<person id=\"bench7\"><name>Ann Diaz</name>\
                  <emailaddress>mailto:bench7@example.org</emailaddress></person>";
    let script = [
        format!("insert {person} into /site/people"),
        "delete /site/people/person[@id=\"bench7\"]".to_owned(),
    ];
    let mut at_16_kb: Option<Vec<Work>> = None;
    for bytes in SIZES {
        let mut db = catalog(bytes);
        let mut work = |stmt: &String| Work { comparisons: 0, ..commit(&mut db, stmt).0.work() };
        let works: Vec<Work> = script.iter().map(&mut work).collect();
        assert_eq!(works.iter().map(|w| w.probes).collect::<Vec<_>>(), [0, 1], "{bytes} bytes");
        let first = at_16_kb.get_or_insert_with(|| works.clone());
        assert_eq!(&works, first, "{bytes} bytes: the work must not depend on the document");
    }
}
