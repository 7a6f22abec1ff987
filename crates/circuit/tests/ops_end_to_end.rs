//! End-to-end operator coverage: every operator kind over a live
//! [`Database`], checked bit-identical to full recomputation after
//! every commit — including barriers, snapshots, batches of commits
//! synced at once and detach. The randomized `circuit_equals_recompute` property
//! suite lives in the umbrella crate (`tests/circuit.rs`); these are
//! the deterministic legs.

use xivm_circuit::{Circuit, CircuitExt, Datum, Node, Row};
use xivm_core::{Database, Error};
use xivm_xmark::{generate_sized, updates_for_view, view_pattern, VIEW_NAMES};

/// Every node of the circuit must match its from-scratch evaluation.
fn assert_matches_recompute(circuit: &Circuit, db: &Database, context: &str) {
    let oracle = circuit.recompute(db);
    for node in circuit.nodes() {
        let got = circuit.store(node);
        let want = &oracle[node.index()];
        assert!(
            got.same_content_as(want),
            "{context}: node n{} ({}) diverged from recomputation:\n{}",
            node.index(),
            circuit.label(node),
            got.diff_description(want),
        );
    }
}

fn shop_database() -> Result<Database, Error> {
    Database::builder()
        .document(
            "<shop>\
               <order><sku>tea</sku><qty>2</qty></order>\
               <order><sku>coffee</sku><qty>5</qty></order>\
               <audit/>\
             </shop>",
        )
        .view("orders", "//order{id,cont}")
        .view("skus", "//order{id}/sku{id,val}")
        .view("qtys", "//order{id}/qty{id,val}")
        .build()
}

fn qty_of(r: &Row) -> i64 {
    r.datum(1).as_str().and_then(|s| s.parse().ok()).unwrap_or(0)
}

struct ShopCircuit {
    circuit: Circuit,
    pairs: Node,
    per_sku_count: Node,
    per_sku_sum: Node,
    min_qty: Node,
    max_qty: Node,
    total_orders: Node,
}

/// source → filter → join → project, fanned into count / sum / min /
/// max — every operator kind on one DAG.
fn shop_circuit(db: &mut Database) -> Result<ShopCircuit, Error> {
    let mut b = db.circuit();
    let orders = b.source("orders")?;
    let skus = b.source("skus")?;
    let qtys = b.source("qtys")?;
    let keep = b.filter(skus, |r| r.datum(2).as_str() != Some("spam"));
    // rows: [order, sku, sku_text] ⋈ [order, qty, qty_text] on order
    let joined = b.join(keep, qtys, |r| r.project(&[0]), |r| r.project(&[0]));
    // rows: [sku_text, qty_text]
    let pairs = b.project(joined, vec![2, 5]);
    let per_sku_count = b.count(pairs, |r| r.project(&[0]));
    let per_sku_sum = b.sum(pairs, |r| r.project(&[0]), qty_of);
    let min_qty = b.min(pairs, |_| Row::empty(), qty_of);
    let max_qty = b.max(pairs, |r| r.project(&[0]), qty_of);
    let total_orders = b.count(orders, |_| Row::empty());
    Ok(ShopCircuit {
        circuit: b.build(),
        pairs,
        per_sku_count,
        per_sku_sum,
        min_qty,
        max_qty,
        total_orders,
    })
}

#[test]
fn every_operator_tracks_recompute_commit_by_commit() -> Result<(), Error> {
    let mut db = shop_database()?;
    let ShopCircuit {
        mut circuit,
        pairs,
        per_sku_count,
        per_sku_sum,
        min_qty,
        max_qty,
        total_orders,
    } = shop_circuit(&mut db)?;

    // The build seeds every node from the current stores.
    assert_eq!(circuit.synced(), 0);
    assert_matches_recompute(&circuit, &db, "after seed");
    assert_eq!(circuit.store(total_orders).weight_of(&Row::empty().with(Datum::Int(2))), 1);
    assert_eq!(
        circuit
            .store(per_sku_sum)
            .weight_of(&Row::new(vec![Datum::Str("tea".into()), Datum::Int(2)])),
        1
    );
    assert!(circuit.describe().contains("join"));

    let script = [
        // New order: every aggregate shifts.
        "insert <order><sku>mate</sku><qty>3</qty></order> into /shop",
        // Filtered out upstream: pairs must not change.
        "insert <order><sku>spam</sku><qty>9</qty></order> into /shop",
        // Touches only the `orders` view's cont (a modify-weight-0
        // delta) — membership nowhere changes.
        "insert <note/> into //order[sku = \"tea\"]",
        // Replaces a joined-side node: sum and max move.
        "replace //order[sku = \"coffee\"]/qty with <qty>7</qty>",
        "delete //order[sku = \"spam\"]",
        // Retracts the global minimum (tea, qty 2): forces the
        // re-scan fallback.
        "delete //order[sku = \"tea\"]",
        // Empties everything: groups must all drop.
        "delete //order",
    ];
    let mut pairs_before_spam = None;
    for (i, stmt) in script.iter().enumerate() {
        let commit = db.apply(*stmt)?;
        let synced = circuit.sync(&mut db);
        assert_eq!(synced, commit.seq, "sync reaches the last commit");
        assert_eq!(circuit.synced(), db.last_seq());
        assert_matches_recompute(&circuit, &db, &format!("after `{stmt}`"));
        match i {
            0 => {
                assert_eq!(
                    circuit
                        .store(per_sku_count)
                        .weight_of(&Row::new(vec![Datum::Str("mate".into()), Datum::Int(1)])),
                    1
                );
                pairs_before_spam = Some(circuit.rows(pairs).to_vec());
            }
            1 => {
                assert_eq!(
                    Some(circuit.rows(pairs).to_vec()),
                    pairs_before_spam,
                    "spam is filtered out before the join"
                );
            }
            3 => {
                assert_eq!(
                    circuit
                        .store(max_qty)
                        .weight_of(&Row::new(vec![Datum::Str("coffee".into()), Datum::Int(7)])),
                    1
                );
            }
            5 => {
                assert_eq!(
                    circuit.store(min_qty).weight_of(&Row::empty().with(Datum::Int(3))),
                    1,
                    "after tea (qty 2) leaves, mate (qty 3) is the minimum"
                );
                assert!(
                    circuit.rescans(min_qty).unwrap() > 0,
                    "retracting the minimum pays the re-scan fallback"
                );
            }
            6 => {
                assert!(circuit.store(pairs).is_empty());
                assert!(circuit.store(per_sku_sum).is_empty());
                assert!(circuit.store(min_qty).is_empty());
                assert!(circuit.store(max_qty).is_empty());
            }
            _ => {}
        }
    }
    assert_eq!(circuit.rescans(pairs), None, "only min/max pay re-scans");
    circuit.detach(&mut db);
    Ok(())
}

#[test]
fn sync_to_is_a_commit_barrier_aligned_with_snapshots() -> Result<(), Error> {
    let mut db = shop_database()?;
    let mut b = db.circuit();
    let skus = b.source("skus")?;
    let per_sku = b.count(skus, |r| r.project(&[2]));
    let _ = per_sku;
    let mut circuit = b.build();

    db.apply("insert <order><sku>mate</sku><qty>3</qty></order> into /shop")?;
    db.apply("delete //order[sku = \"coffee\"]")?;
    let snap = db.snapshot();
    db.apply("insert <order><sku>cocoa</sku><qty>1</qty></order> into /shop")?;
    assert_eq!(snap.seq(), 2);
    assert_eq!(db.last_seq(), 3);

    // Barrier at the snapshot's boundary: derived stores and frozen
    // base views line up.
    assert_eq!(circuit.sync_to(&mut db, snap.seq()), 2);
    let oracle = circuit.recompute_at(&snap);
    for node in circuit.nodes() {
        assert!(
            circuit.store(node).same_content_as(&oracle[node.index()]),
            "node n{} diverged at the snapshot boundary:\n{}",
            node.index(),
            circuit.store(node).diff_description(&oracle[node.index()]),
        );
    }

    // A barrier never moves backwards…
    assert_eq!(circuit.sync_to(&mut db, 0), 2);
    // …and clamps to the last sealed commit.
    assert_eq!(circuit.sync_to(&mut db, u64::MAX), 3);
    assert_matches_recompute(&circuit, &db, "after catching up");
    circuit.detach(&mut db);
    Ok(())
}

#[test]
fn batched_commits_replay_identically() -> Result<(), Error> {
    let mut db = Database::builder()
        .document(
            "<shop>\
               <order><sku>tea</sku><qty>2</qty></order>\
               <order><sku>coffee</sku><qty>5</qty></order>\
               <audit/>\
             </shop>",
        )
        .view("orders", "//order{id,cont}")
        .view("skus", "//order{id}/sku{id,val}")
        .view("qtys", "//order{id}/qty{id,val}")
        .build()?;
    let ShopCircuit { mut circuit, .. } = shop_circuit(&mut db)?;

    for stmt in [
        "insert <order><sku>mate</sku><qty>3</qty></order> into /shop",
        "insert <order><sku>cocoa</sku><qty>8</qty></order> into /shop",
        "replace //order[sku = \"tea\"]/qty with <qty>6</qty>",
        "delete //order[sku = \"coffee\"]",
        "insert <note/> into //order[sku = \"mate\"]",
    ] {
        db.apply(stmt)?;
    }
    assert_eq!(db.last_seq(), 5);

    // Stepping the barrier one commit at a time replays the committed
    // stream in order; the final state matches recomputation.
    for seq in 1..=db.last_seq() {
        assert_eq!(circuit.sync_to(&mut db, seq), seq);
    }
    assert_matches_recompute(&circuit, &db, "after the batched stream");
    circuit.detach(&mut db);
    Ok(())
}

#[test]
fn detach_releases_the_subscriptions() -> Result<(), Error> {
    let mut db = shop_database()?;
    let before = db.subscriptions();
    let ShopCircuit { circuit, .. } = shop_circuit(&mut db)?;
    assert_eq!(db.subscriptions(), before + 3, "one subscription per source");
    circuit.detach(&mut db);
    assert_eq!(db.subscriptions(), before);
    // The database keeps working without the circuit.
    db.apply("delete //order[sku = \"tea\"]")?;
    Ok(())
}

#[test]
fn xmark_catalog_filter_join_aggregate() -> Result<(), Error> {
    let doc = generate_sized(40 * 1024);
    let mut b = Database::builder().document(doc);
    for v in VIEW_NAMES {
        b = b.view(v, view_pattern(v));
    }
    let mut db = b.build()?;

    let mut cb = db.circuit();
    let q1 = cb.source("Q1")?;
    let q4 = cb.source("Q4")?;
    let shallow = cb.filter(q1, |r| r.datum(0).as_id().map(|id| id.depth() <= 3).unwrap_or(false));
    let joined = cb.join(shallow, q4, |r| r.project(&[0]), |r| r.project(&[0]));
    let _by_root = cb.count(joined, |r| r.project(&[0]));
    let _global = cb.count(q4, |_| Row::empty());
    let mut circuit = cb.build();
    assert_matches_recompute(&circuit, &db, "after catalog seed");

    // One insert + one delete per catalog view: every source sees
    // real delta traffic, checked at every commit.
    for view in VIEW_NAMES {
        if let Some(u) = updates_for_view(view).first() {
            for stmt in [u.insert_stmt(), u.delete_stmt()] {
                let commit = db.apply(&stmt)?;
                circuit.sync(&mut db);
                assert_matches_recompute(
                    &circuit,
                    &db,
                    &format!("catalog commit {} ({view})", commit.seq),
                );
            }
        }
    }
    circuit.detach(&mut db);
    Ok(())
}
