//! Churn soak: a point-update stream in which every insert has a
//! compensating delete keeps the node arena to the live document,
//! however long it runs.
//!
//! The stream opens insert/delete pairs on an XMark document several
//! arena chunks large — a person under `/site/people`, every third an
//! item under `/site/regions/namerica` — and closes each `OPEN` pairs
//! later, until the nodes it created total `CHURN` times the seed's.
//! Every slot it allocates dies again, so every arena chunk it fills
//! must be freed. It runs once through `Database::apply` and once
//! through `Database::apply_async`, each time with a deferred view and
//! a snapshot held across part of it, and checks at every checkpoint:
//!
//! - the chunks not released stay within `SLACK` of the seed's;
//! - every immediate view is identical to its recomputation (the
//!   deferred one once refreshed);
//! - `Document::check_invariants` holds;
//!
//! and at the end that the held snapshot still serializes to its own
//! state, and the closed stream to the seed, byte for byte, in the
//! seed's chunks and one tail.

use xivm::pattern::compile::view_tuples;
use xivm::prelude::*;
use xivm::xmark::{generate_sized, view_pattern};

/// The seed: several arena chunks of XMark.
const SEED_BYTES: usize = 32 * 1024;
/// Nodes created over the stream, in multiples of the seed's.
const CHURN: usize = 20;
/// Pairs open at a time.
const OPEN: usize = 4;
/// Commits between checkpoints.
const CHECK_EVERY: usize = 250;
/// Chunks the open pairs and the tail may hold beyond the seed's.
const SLACK: usize = 3;

/// Pair `k`'s statements and how many nodes its insert creates.
fn pair(k: usize) -> (String, String, usize) {
    if k % 3 == 2 {
        let insert = format!(
            "insert <item id=\"churn{k}\"><location>Internal</location><quantity>1</quantity>\
             <name>lot {k}</name><description><parlist>as new</parlist></description></item> \
             into /site/regions/namerica"
        );
        let delete = format!("delete /site/regions/namerica/item[@id=\"churn{k}\"]");
        (insert, delete, 11)
    } else {
        let homepage = if k % 2 == 1 { "<homepage>http://example.org/</homepage>" } else { "" };
        let insert = format!(
            "insert <person id=\"churn{k}\"><name>Ann {k}</name>\
             <emailaddress>mailto:churn{k}@example.org</emailaddress>{homepage}<watches/>\
             </person> into /site/people"
        );
        let delete = format!("delete /site/people/person[@id=\"churn{k}\"]");
        (insert, delete, if homepage.is_empty() { 7 } else { 9 })
    }
}

/// The stream: pair `k` opens, and pair `k - OPEN` closes, until the
/// inserts have created `nodes` nodes; then the open pairs close.
fn stream(nodes: usize) -> Vec<String> {
    let (mut out, mut open, mut created) = (Vec::new(), std::collections::VecDeque::new(), 0);
    for k in 0.. {
        if created >= nodes {
            break;
        }
        let (insert, delete, made) = pair(k);
        out.push(insert);
        open.push_back(delete);
        created += made;
        if open.len() > OPEN {
            out.extend(open.pop_front());
        }
    }
    out.extend(open);
    out
}

fn assert_views_equal_recomputation(db: &Database, at: &str) {
    for h in db.handles() {
        if db.maintenance(h) == MaintenanceMode::Deferred && db.deferred_commits(h) > 0 {
            continue;
        }
        let pattern = db.pattern(h).clone();
        let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
        assert!(
            db.store(h).identical_to(&expected),
            "{at}: view {} diverged:\n{}",
            db.name(h),
            db.store(h).diff_description(&expected)
        );
    }
}

#[derive(Clone, Copy, Debug)]
enum Front {
    Apply,
    Async,
}

fn churn(front: Front) {
    let seed_doc = generate_sized(SEED_BYTES);
    let seed_chunks = seed_doc.chunk_count();
    assert!(seed_chunks >= 3, "a multi-chunk seed: {seed_chunks}");
    let statements = stream(CHURN * seed_doc.live_count());
    let mut db = Database::builder()
        .document(seed_doc)
        .view("Q1", view_pattern("Q1"))
        .view("Q6", view_pattern("Q6"))
        .view("Q13", view_pattern("Q13"))
        .view("Q17", view_pattern("Q17"))
        .view_deferred("late", view_pattern("Q1"))
        .build()
        .unwrap();
    let late = db.view("late").unwrap();
    let seed = db.serialize();
    let (quarter, half) = (statements.len() / 4, statements.len() / 2);
    let mut held = None;
    for (i, statement) in statements.iter().enumerate() {
        match front {
            Front::Apply => drop(db.apply(statement.as_str()).unwrap()),
            Front::Async => drop(db.apply_async([statement.as_str()]).unwrap()),
        }
        let done = i + 1;
        if done % CHECK_EVERY != 0 && done != quarter && done != half {
            continue;
        }
        if let Front::Async = front {
            db.flush().unwrap();
        }
        let at = format!("{front:?}, commit {done} of {}", statements.len());
        let doc = db.document();
        doc.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
        let kept = doc.chunk_count() - doc.released_chunks();
        assert!(
            kept <= seed_chunks + SLACK,
            "{at}: {kept} chunks kept, the seed has {seed_chunks}"
        );
        assert_views_equal_recomputation(&db, &at);
        if done == quarter {
            let snapshot = db.snapshot();
            held = Some((snapshot.serialize(), snapshot));
        }
        if done == half {
            db.refresh(late).unwrap().expect("a batch was open since the start");
            assert_views_equal_recomputation(&db, &at);
        }
    }
    db.flush().unwrap();
    let (then, snapshot) = held.expect("the snapshot was taken");
    assert_eq!(snapshot.serialize(), then, "{front:?}: the held snapshot kept its state");
    snapshot.document().check_invariants().unwrap();
    drop(snapshot);
    db.refresh(late).unwrap();
    assert_views_equal_recomputation(&db, &format!("{front:?}, closed"));
    assert_eq!(db.serialize(), seed, "{front:?}: the closed stream is the seed");
    let doc = db.document();
    let kept = doc.chunk_count() - doc.released_chunks();
    assert!(kept <= seed_chunks + 1, "{front:?}: closed with {kept} chunks, the seed's and a tail");
}

#[test]
fn churn_through_apply_keeps_the_arena_to_the_live_document() {
    churn(Front::Apply);
}

#[test]
fn churn_through_apply_async_keeps_the_arena_to_the_live_document() {
    churn(Front::Async);
}
