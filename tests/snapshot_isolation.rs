//! Snapshot-isolation properties for the MVCC layer.
//!
//! Two contracts pin `Database::snapshot()`:
//!
//! 1. **Replay equivalence** — the snapshot taken at sequence number
//!    *k* is bit-identical to replaying the Σ deltas of commits
//!    `1..=k` onto the seed stores (the same oracle as
//!    `deltas_replay_to_store` in `tests/property.rs`, pointed at the
//!    frozen image instead of the live store).
//! 2. **Isolation** — reads through a snapshot (document, stores) are
//!    unaffected by any number of commits applied afterwards, sealed
//!    one by one or pipelined; and a reader *thread* holding a
//!    snapshot observes no torn or blocking state across ≥ 100
//!    concurrent commits.

use proptest::prelude::*;
use xivm::prelude::*;

// ---------------------------------------------------------------------
// Workload generation (the soak/property alphabets, kept local so the
// suites can evolve separately)
// ---------------------------------------------------------------------

fn arb_tree(depth: u32) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("<b/>".to_owned()),
        Just("<c/>".to_owned()),
        Just("<d>5</d>".to_owned()),
        Just("x".to_owned()),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")],
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, kids)| {
                if kids.is_empty() {
                    format!("<{tag}/>")
                } else {
                    format!("<{tag}>{}</{tag}>", kids.join(""))
                }
            })
    })
}

fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_tree(3), 1..5).prop_map(|kids| format!("<r>{}</r>", kids.join("")))
}

const PATTERNS: [&str; 6] = [
    "//a{id}//b{id}",
    "//a{id}[//c{id}]//b{id}",
    "//a{id}//b{id}//c{id}",
    "//r{id}//d{id,val}",
    "//a{id}[//d[val=\"5\"]]//b{id}",
    "//a{id,cont}[//b]",
];

const TARGETS: [&str; 4] = ["//a", "//b", "//a//c", "//d"];
const FORESTS: [&str; 4] = ["<b/>", "<a><b/><c/></a>", "<c><b/></c>", "<d>5</d>"];

type ScriptStep = (usize, usize, bool);

fn script_statement(&(t, f, is_insert): &ScriptStep) -> String {
    if is_insert {
        format!("insert {} into {}", FORESTS[f], TARGETS[t])
    } else {
        format!("delete {}", TARGETS[t])
    }
}

fn build_db(doc_xml: &str, view_idxs: &[usize]) -> Database {
    let mut b = Database::builder().document(doc_xml);
    for (i, &p) in view_idxs.iter().enumerate() {
        b = b.view(format!("v{i}"), PATTERNS[p]);
    }
    b.build().expect("snapshot-isolation database builds")
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (1) Replay equivalence: the snapshot at seq k equals the seed
    /// stores plus the replayed Σ deltas of commits 1..=k — for every
    /// k of the script, checked against snapshots captured as the
    /// commits landed.
    #[test]
    fn snapshot_at_seq_k_equals_seed_plus_deltas(
        doc_xml in arb_doc(),
        view_idxs in prop::collection::vec(0usize..PATTERNS.len(), 1..4),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..6
        ),
    ) {
        let mut db = build_db(&doc_xml, &view_idxs);
        // Seed: replicas of every store before the first commit.
        let mut replicas: Vec<ViewStore> =
            db.handles().into_iter().map(|h| db.store(h).clone()).collect();
        let subs: Vec<Subscription> =
            db.handles().into_iter().map(|h| db.subscribe(h)).collect();

        let seed = db.snapshot();
        prop_assert_eq!(seed.seq(), 0, "the seed snapshot is at seq 0");

        // One snapshot per commit, captured as the commits land.
        let mut snapshots: Vec<DatabaseSnapshot> = Vec::with_capacity(script.len());
        for step in &script {
            db.apply(script_statement(step).as_str()).unwrap();
            snapshots.push(db.snapshot());
        }

        // Replay: advance the replicas delta by delta; after commit k
        // they must equal snapshot k exactly.
        let streams: Vec<Vec<DeltaEvent>> = subs.iter().map(|s| db.drain(s)).collect();
        for (k, snap) in snapshots.iter().enumerate() {
            prop_assert_eq!(snap.seq(), k as u64 + 1, "snapshots stamp their commit seq");
            for (v, h) in db.handles().into_iter().enumerate() {
                let event = &streams[v][k];
                prop_assert_eq!(event.seq, k as u64 + 1);
                event.delta.replay(&mut replicas[v]);
                prop_assert!(
                    snap.store(h).identical_to(&replicas[v]),
                    "snapshot at seq {} of view {} != seed + Σ deltas 1..={}",
                    snap.seq(), db.name(h), snap.seq()
                );
            }
        }
        for sub in subs {
            db.unsubscribe(sub);
        }
    }

    /// (2) Isolation: a snapshot taken mid-stream reads identically
    /// before and after the rest of the script commits — whether the
    /// suffix lands one by one or pipelined.
    #[test]
    fn snapshot_reads_are_unaffected_by_later_commits(
        doc_xml in arb_doc(),
        view_idxs in prop::collection::vec(0usize..PATTERNS.len(), 1..4),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            2..7
        ),
        split in 0usize..6,
        pipelined in prop::bool::ANY,
    ) {
        let split = split.min(script.len() - 1);
        let mut db = build_db(&doc_xml, &view_idxs);
        for step in &script[..split] {
            db.apply(script_statement(step).as_str()).unwrap();
        }

        // Freeze, and record what the frozen image reads now.
        let snap = db.snapshot();
        let doc_before = snap.serialize();
        let stores_before: Vec<ViewStore> =
            db.handles().into_iter().map(|h| snap.store(h).clone()).collect();

        // Land the suffix on the live database.
        let suffix: Vec<String> = script[split..].iter().map(script_statement).collect();
        if pipelined {
            db.apply_pipelined(suffix.iter().map(String::as_str)).unwrap();
        } else {
            for s in &suffix {
                db.apply(s.as_str()).unwrap();
            }
        }
        prop_assert_eq!(db.last_seq(), script.len() as u64);

        // The snapshot still reads exactly the frozen state.
        prop_assert_eq!(snap.seq(), split as u64, "seq is immutable");
        prop_assert_eq!(snap.serialize(), doc_before, "document reads are frozen");
        for (v, h) in db.handles().into_iter().enumerate() {
            prop_assert!(
                snap.store(h).identical_to(&stores_before[v]),
                "store reads of view {} drifted under later commits",
                db.name(h)
            );
        }
    }
}

/// (2b) The acceptance bar for the MVCC layer: a reader *thread*
/// holding a snapshot observes no torn or blocking state while the
/// writer lands ≥ 100 commits concurrently (plain and pipelined).
/// Every read of the frozen image — document text, store contents,
/// XPath — must keep returning exactly the captured state.
#[test]
fn snapshot_reader_survives_100_concurrent_commits() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let doc = "<r><a><c><b/><b/></c><f><c><b/></c><b/></f></a><a><d>5</d><b/></a></r>";
    let mut db = build_db(doc, &[0, 1, 2, 3]);
    db.apply("insert <b/> into //c").unwrap();

    let snap = db.snapshot();
    let frozen_doc = snap.serialize();
    let frozen_counts: Vec<(String, usize, u64)> = (0..snap.len())
        .map(|i| {
            let h = snap.view(&format!("v{i}")).unwrap();
            (format!("v{i}"), snap.store(h).len(), snap.store(h).total_derivations())
        })
        .collect();
    let frozen_hits = snap.xpath("//b").unwrap().len();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        let frozen_doc = frozen_doc.clone();
        let frozen_counts = frozen_counts.clone();
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                assert_eq!(snap.seq(), 1, "seq is immutable");
                assert_eq!(snap.serialize(), frozen_doc, "torn document read");
                for (name, len, derivations) in &frozen_counts {
                    let h = snap.view(name).unwrap();
                    assert_eq!(snap.store(h).len(), *len, "torn store read on {name}");
                    assert_eq!(snap.store(h).total_derivations(), *derivations);
                    assert_eq!(snap.cursor(h).len(), *len);
                }
                assert_eq!(snap.xpath("//b").unwrap().len(), frozen_hits, "torn XPath read");
                reads += 1;
            }
            (snap, reads)
        })
    };

    // ≥ 100 concurrent commits while the reader hammers the snapshot:
    // 60 plain applies + 4 pipelined windows of 10.
    for _ in 0..30 {
        db.apply("insert <b/> into //c").unwrap();
        db.apply("delete //c//b").unwrap();
    }
    for _ in 0..4 {
        let batch: Vec<&str> = std::iter::repeat_n("insert <c><b/></c> into //a", 5)
            .chain(std::iter::repeat_n("delete //a//c", 5))
            .collect();
        db.apply_pipelined(batch).unwrap();
    }
    assert!(db.last_seq() >= 101, "the writer really landed 100+ commits");

    stop.store(true, Ordering::Relaxed);
    let (snap, reads) = reader.join().expect("reader thread never panics (no torn reads)");
    assert!(reads > 0, "the reader actually read during the commits");
    // And the snapshot still reads the frozen state afterwards.
    assert_eq!(snap.serialize(), frozen_doc);
    assert_ne!(db.last_seq(), snap.seq());
}

/// Snapshot ergonomics pinned: name/handle round-trips, view_names,
/// unknown-view errors, XPath parse errors and the binary image all
/// work on the frozen image exactly as on the live database.
#[test]
fn snapshot_surface_matches_database() {
    let doc = "<r><a><c><b/></c></a><a><b/></a></r>";
    let mut db = build_db(doc, &[0, 1]);
    db.apply("insert <b/> into //c").unwrap();
    let snap = db.snapshot();

    assert_eq!(snap.len(), db.len());
    assert!(!snap.is_empty());
    assert_eq!(snap.view_names(), db.view_names());
    for h in db.handles() {
        assert_eq!(snap.name(h), db.name(h));
        let again = snap.view(snap.name(h)).unwrap();
        assert_eq!(snap.name(again), db.name(h));
        // the binary image of the frozen store decodes to the same store
        let decoded = xivm::core::snapshot::decode_store(&snap.encode_view(h)).unwrap();
        assert!(decoded.identical_to(snap.store(h)));
    }
    assert!(matches!(snap.view("nope"), Err(Error::UnknownView(_))));
    assert!(snap.xpath("//b{").is_err(), "XPath parse errors surface as Error");
    assert_eq!(snap.document().live_count(), db.document().live_count());
}

/// A keyed XPath is answered from the attribute-value index, and the
/// index is part of the frozen image: a snapshot taken before a commit
/// that deletes `person[@id=…]` still finds the person by that path
/// and does not see a person inserted later; the live database — and a
/// snapshot taken after — see the opposite.
#[test]
fn snapshot_answers_keyed_xpath_from_its_own_frozen_index() {
    let doc = xivm::xmark::generate_sized(40 * 1024);
    let mut db =
        Database::builder().document(doc).view("q1", "//person{id}//name{id,val}").build().unwrap();
    let gone = "/site/people/person[@id=\"person2\"]";
    let late = "/site/people/person[@id=\"late\"]/name";
    let before = db.snapshot();
    db.apply(format!("delete {gone}").as_str()).unwrap();
    db.apply("insert <person id=\"late\"><name>x</name></person> into /site/people").unwrap();
    let after = db.snapshot();

    assert_eq!(before.xpath(gone).unwrap().len(), 1);
    assert!(before.xpath(late).unwrap().is_empty());
    assert!(after.xpath(gone).unwrap().is_empty());
    assert_eq!(after.xpath(late).unwrap().len(), 1);
    let live = |path: &str| {
        let parsed = xivm::pattern::xpath::parse_xpath(path).unwrap();
        xivm::pattern::xpath::eval_path(db.document(), &parsed).len()
    };
    assert_eq!((live(gone), live(late)), (0, 1));
    for image in [before.document(), after.document(), db.document()] {
        image.check_invariants().unwrap();
    }
}
