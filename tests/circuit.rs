//! Differential property suite for delta circuits: random documents ×
//! view sets × statement streams × random operator DAGs, with every
//! node's [`DerivedStore`] checked bit-identical to full recomputation
//! after **every** commit — the `circuit_equals_recompute` invariant.
//!
//! Two legs per case, soak.rs-style:
//!
//! - **sequential**: statements applied one by one, the
//!   circuit synced and checked
//!   against [`Circuit::recompute`] at each commit; the per-commit
//!   sorted node states are recorded as the reference trace.
//! - **pipelined**: the same workload through
//!   [`Database::apply_pipelined`] as one window, the circuit stepped one
//!   commit at a time with [`Circuit::sync_to`] — every intermediate
//!   barrier must reproduce the recorded sequential state exactly.
//!
//! Operator DAGs are drawn as integer tuples interpreted against
//! deterministic catalogs of predicates / key extractors / value
//! functions, so a failing case shrinks to a minimal circuit. A
//! deterministic XMark leg runs the paper's 7-view catalog through a
//! Filter → Join → Aggregate pipeline on a database built with no
//! knob set.

use proptest::prelude::*;
use xivm::circuit::Node;
use xivm::prelude::*;
use xivm::xmark::{generate_sized, updates_for_view, view_pattern, VIEW_NAMES};

// ---------------------------------------------------------------------
// Workload generation (same small alphabets as tests/soak.rs; the val
// / cont annotations matter here — they become Str datums the operator
// catalogs can look at)
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

const PATTERNS: [&str; 5] = [
    "//a{id}//b{id}",
    "//a{id}[//c{id}]//b{id}",
    "//r{id}//d{id,val}",
    "//a{id,cont}[//b]",
    "//a{id}//b{id}//c{id}",
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

// ---------------------------------------------------------------------
// Operator catalogs: deterministic closures indexed by drawn integers,
// so DAG shapes shrink and failures replay. Every function is total
// over rows of any arity.
// ---------------------------------------------------------------------

fn predicate(sel: usize) -> impl Fn(&Row) -> bool + Send + Sync + 'static {
    move |r: &Row| match sel % 4 {
        0 => true,
        1 => r.arity() % 2 == 0,
        2 => r.datums().iter().any(|d| matches!(d, Datum::Str(_))),
        _ => r.datums().iter().filter(|d| d.as_id().is_some()).count() <= 2,
    }
}

fn row_fn(sel: usize) -> impl Fn(&Row) -> Row + Send + Sync + 'static {
    move |r: &Row| match sel % 4 {
        0 => r.clone(),
        1 => Row::new(vec![r.datums().first().cloned().unwrap_or(Datum::Null)]),
        2 => r.with(Datum::Int(r.arity() as i64)),
        _ => {
            let mut datums: Vec<Datum> = r.datums().to_vec();
            datums.reverse();
            Row::new(datums)
        }
    }
}

fn key_fn(sel: usize) -> impl Fn(&Row) -> Row + Send + Sync + 'static {
    move |r: &Row| match sel % 3 {
        0 => Row::empty(),
        1 => Row::new(vec![r.datums().first().cloned().unwrap_or(Datum::Null)]),
        _ => Row::new(vec![Datum::Int(r.arity() as i64)]),
    }
}

fn value_fn(sel: usize) -> impl Fn(&Row) -> i64 + Send + Sync + 'static {
    move |r: &Row| match sel % 4 {
        0 => r.arity() as i64,
        1 => r.datums().iter().find_map(|d| d.as_str()).map(|s| s.len() as i64).unwrap_or(0),
        2 => r.datums().iter().filter(|d| d.as_id().is_some()).count() as i64,
        _ => r.datums().first().and_then(|d| d.as_id()).map(|id| id.depth() as i64).unwrap_or(0),
    }
}

/// One drawn operator: `(kind, input, input2, selector)`. Inputs pick
/// among every node created so far (sources included), so DAGs fan
/// out, fan in and stack aggregates over aggregates.
type OpDraw = (usize, usize, usize, usize);

fn build_db(doc_xml: &str, view_idxs: &[usize]) -> Database {
    let mut b = Database::builder().document(doc_xml);
    for (i, &p) in view_idxs.iter().enumerate() {
        b = b.view(format!("v{i}"), PATTERNS[p]);
    }
    b.build().expect("circuit-suite database builds")
}

/// Interprets the drawn plan into a circuit over `n_views` sources.
/// Identical draws yield identical circuits — the sequential and
/// pipelined legs call this with the same plan.
fn build_circuit(db: &mut Database, n_views: usize, plan: &[OpDraw]) -> Circuit {
    let mut b = db.circuit();
    let mut nodes: Vec<Node> = Vec::new();
    for i in 0..n_views {
        nodes.push(b.source(&format!("v{i}")).expect("source view exists"));
    }
    for &(kind, in1, in2, sel) in plan {
        let a = nodes[in1 % nodes.len()];
        let c = nodes[in2 % nodes.len()];
        let node = match kind % 7 {
            0 => b.filter(a, predicate(sel)),
            1 => b.map(a, row_fn(sel)),
            2 => b.join(a, c, key_fn(sel), key_fn(sel)),
            3 => b.count(a, key_fn(sel)),
            4 => b.sum(a, key_fn(sel), value_fn(sel)),
            5 => b.min(a, key_fn(sel), value_fn(sel)),
            _ => b.max(a, key_fn(sel), value_fn(sel)),
        };
        nodes.push(node);
    }
    b.build()
}

/// The invariant: every node's incrementally maintained store equals
/// its from-scratch evaluation over the current base views.
fn check_against_recompute(
    circuit: &Circuit,
    db: &Database,
    context: &str,
) -> Result<(), TestCaseError> {
    let oracle = circuit.recompute(db);
    for node in circuit.nodes() {
        prop_assert!(
            circuit.store(node).same_content_as(&oracle[node.index()]),
            "{}: node n{} ({}) diverged from recomputation:\n{}circuit:\n{}",
            context,
            node.index(),
            circuit.label(node),
            circuit.store(node).diff_description(&oracle[node.index()]),
            circuit.describe(),
        );
    }
    Ok(())
}

/// Sorted per-node states — the cross-leg comparison currency.
fn node_states(circuit: &Circuit) -> Vec<Vec<(Row, i64)>> {
    circuit.nodes().into_iter().map(|n| circuit.rows(n)).collect()
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `circuit_equals_recompute`: after every commit, every derived
    /// store equals full recomputation — applied one by one, and
    /// through pipelined batches where every intermediate `sync_to` barrier must reproduce the
    /// sequential trace.
    #[test]
    fn circuit_equals_recompute(
        doc_xml in arb_doc(),
        view_idxs in prop::collection::vec(0usize..PATTERNS.len(), 1..4),
        plan in prop::collection::vec(
            (0usize..7, 0usize..32, 0usize..32, 0usize..32),
            1..7
        ),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..6
        ),
    ) {
        // Sequential leg: sync + check at every commit, recording the
        // per-commit node states as the reference trace.
        let mut db = build_db(&doc_xml, &view_idxs);
        let mut circuit = build_circuit(&mut db, view_idxs.len(), &plan);
        check_against_recompute(&circuit, &db, "after seed")?;

        let statements: Vec<String> = script.iter().map(script_statement).collect();
        let mut trace: Vec<Vec<Vec<(Row, i64)>>> = Vec::with_capacity(statements.len());
        for stmt in &statements {
            db.apply(stmt.as_str()).expect("statement applies");
            let synced = circuit.sync(&mut db);
            prop_assert_eq!(synced, db.last_seq(), "sync reaches the last commit");
            check_against_recompute(&circuit, &db, &format!("after `{stmt}`"))?;
            trace.push(node_states(&circuit));
        }
        circuit.detach(&mut db);

        // Pipelined leg: same workload in one window; stepping the
        // barrier one commit at a time must replay the trace.
        let mut piped = build_db(&doc_xml, &view_idxs);
        let mut pcircuit = build_circuit(&mut piped, view_idxs.len(), &plan);
        piped
            .apply_pipelined(statements.iter().map(String::as_str))
            .expect("pipelined batch applies");
        for (i, want) in trace.iter().enumerate() {
            let seq = (i + 1) as u64;
            prop_assert_eq!(pcircuit.sync_to(&mut piped, seq), seq);
            let got = node_states(&pcircuit);
            prop_assert_eq!(
                &got,
                want,
                "pipelined barrier at seq {} diverged from the sequential trace",
                seq
            );
        }
        check_against_recompute(&pcircuit, &piped, "pipelined leg, fully synced")?;
        pcircuit.detach(&mut piped);
    }

    /// Snapshot pairing under random workloads: a circuit synced to a
    /// snapshot's seq agrees with recomputation against that frozen
    /// snapshot, regardless of how many commits land after it.
    #[test]
    fn barrier_at_snapshot_seq_matches_frozen_recompute(
        doc_xml in arb_doc(),
        view_idxs in prop::collection::vec(0usize..PATTERNS.len(), 1..3),
        plan in prop::collection::vec(
            (0usize..7, 0usize..32, 0usize..32, 0usize..32),
            1..5
        ),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            2..6
        ),
        cut in 1usize..4,
    ) {
        let mut db = build_db(&doc_xml, &view_idxs);
        let mut circuit = build_circuit(&mut db, view_idxs.len(), &plan);
        let statements: Vec<String> = script.iter().map(script_statement).collect();
        let cut = cut.min(statements.len());
        for stmt in &statements[..cut] {
            db.apply(stmt.as_str()).expect("statement applies");
        }
        let snap = db.snapshot();
        for stmt in &statements[cut..] {
            db.apply(stmt.as_str()).expect("statement applies");
        }

        prop_assert_eq!(circuit.sync_to(&mut db, snap.seq()), snap.seq());
        let oracle = circuit.recompute_at(&snap);
        for node in circuit.nodes() {
            prop_assert!(
                circuit.store(node).same_content_as(&oracle[node.index()]),
                "node n{} ({}) diverged at snapshot seq {}:\n{}",
                node.index(),
                circuit.label(node),
                snap.seq(),
                circuit.store(node).diff_description(&oracle[node.index()])
            );
        }
        // Catching up to the live head must agree with live recompute.
        circuit.sync(&mut db);
        check_against_recompute(&circuit, &db, "after catching up past the snapshot")?;
        circuit.detach(&mut db);
    }
}

// ---------------------------------------------------------------------
// Deterministic XMark leg
// ---------------------------------------------------------------------

fn xmark_doc_bytes() -> usize {
    std::env::var("XIVM_TEST_DOC_BYTES").ok().and_then(|v| v.parse().ok()).unwrap_or(40 * 1024)
}

/// The paper's 7-view XMark catalog through a Filter → Join →
/// Aggregate pipeline, on a database built with no knob set. Every
/// catalog view sees insert *and* delete traffic; every commit is
/// checked against recomputation.
#[test]
fn xmark_catalog_pipeline_equals_recompute() {
    let mut b = Database::builder().document(generate_sized(xmark_doc_bytes()));
    for v in VIEW_NAMES {
        b = b.view(v, view_pattern(v));
    }
    let mut db = b.build().expect("XMark catalog builds");

    let mut cb = db.circuit();
    let sources: Vec<Node> =
        VIEW_NAMES.iter().map(|v| cb.source(v).expect("catalog view")).collect();
    // Filter: shallow matches only (root-anchored structural IDs).
    let shallow = cb.filter(sources[0], |r| {
        r.datums().first().and_then(|d| d.as_id()).map(|id| id.depth() <= 3).unwrap_or(false)
    });
    // Join: pair them with another catalog view on the root column.
    let joined = cb.join(
        shallow,
        sources[3],
        |r| Row::new(vec![r.datums().first().cloned().unwrap_or(Datum::Null)]),
        |r| Row::new(vec![r.datums().first().cloned().unwrap_or(Datum::Null)]),
    );
    // Aggregates: count per join key, a global count, and an extremum
    // over match depth on every remaining source.
    let by_key =
        cb.count(joined, |r| Row::new(vec![r.datums().first().cloned().unwrap_or(Datum::Null)]));
    let global = cb.count(joined, |_| Row::empty());
    let depth_of = |r: &Row| {
        r.datums().first().and_then(|d| d.as_id()).map(|id| id.depth() as i64).unwrap_or(0)
    };
    let deepest: Vec<Node> =
        sources.iter().map(|&s| cb.max(s, |_| Row::empty(), depth_of)).collect();
    let mut circuit = cb.build();
    assert!(circuit.describe().contains("join"));

    let oracle = circuit.recompute(&db);
    for node in circuit.nodes() {
        assert!(
            circuit.store(node).same_content_as(&oracle[node.index()]),
            "seeded node n{} ({}) diverged:\n{}",
            node.index(),
            circuit.label(node),
            circuit.store(node).diff_description(&oracle[node.index()])
        );
    }
    let _ = (&by_key, &global, &deepest);

    // One insert + one delete per catalog view, checked per commit.
    for view in VIEW_NAMES {
        if let Some(u) = updates_for_view(view).first() {
            for stmt in [u.insert_stmt(), u.delete_stmt()] {
                let commit = db.apply(&stmt).expect("catalog update applies");
                assert_eq!(circuit.sync(&mut db), commit.seq);
                let oracle = circuit.recompute(&db);
                for node in circuit.nodes() {
                    assert!(
                        circuit.store(node).same_content_as(&oracle[node.index()]),
                        "commit {} ({view}): node n{} ({}) diverged:\n{}",
                        commit.seq,
                        node.index(),
                        circuit.label(node),
                        circuit.store(node).diff_description(&oracle[node.index()])
                    );
                }
            }
        }
    }
    circuit.detach(&mut db);
}

/// The `derived_views` circuit shape (project → count → join → sum over
/// the open-auction subtree), plus a `max` over the per-auction bid
/// counts so the re-scan odometer has a node to read. One commit of
/// `K` auction inserts feeds it the same 3·`K` delta rows and costs no
/// extremum re-scan whether the document — and with it every source
/// store — is 40 KB or 4× that: circuit work follows |Δ|, as a count.
#[test]
fn circuit_work_is_flat_across_document_sizes() {
    const K: usize = 8;
    // (source store rows, delta rows entering the circuit)
    let measure = |bytes: usize| {
        let mut db = Database::builder()
            .document(generate_sized(bytes))
            .view("sellers", "/site/open_auctions/open_auction{id}/seller/@person{id,val}")
            .view("bidders", "/site/open_auctions/open_auction{id}/bidder{id}")
            .build()
            .expect("auction database builds");
        let mut b = db.circuit();
        let sellers = b.source("sellers").expect("sellers view");
        let bidders = b.source("bidders").expect("bidders view");
        let seller_of = b.project(sellers, vec![0, 2]);
        let bids_per_auction = b.count(bidders, |r| r.project(&[0]));
        let joined = b.join(seller_of, bids_per_auction, |r| r.project(&[0]), |r| r.project(&[0]));
        b.sum(joined, |r| r.project(&[1]), |r| r.datum(3).as_int().unwrap_or(0));
        let most_bids =
            b.max(bids_per_auction, |_| Row::empty(), |r| r.datum(1).as_int().unwrap_or(0));
        let mut circuit = b.build();
        let store_rows = circuit.store(sellers).len() + circuit.store(bidders).len();

        let mut tx = db.transaction();
        for i in 0..K {
            tx = tx.statement(format!(
                "insert <open_auction id=\"flat{i}\"><seller person=\"person0\"/>\
                 <bidder><increase>1.50</increase></bidder>\
                 <bidder><increase>4.50</increase></bidder>\
                 </open_auction> into /site/open_auctions"
            ));
        }
        let commit = tx.commit().expect("insert batch commits");
        let delta_rows: usize = db.handles().iter().map(|&h| commit.delta(h).len()).sum();
        assert_eq!(circuit.sync(&mut db), commit.seq);
        assert_eq!(
            circuit.rescans(most_bids),
            Some(0),
            "{bytes} B: an insert-only commit retracts no extremum"
        );
        circuit.detach(&mut db);
        (store_rows, delta_rows)
    };
    let (small_store, small_delta) = measure(40 * 1024);
    let (large_store, large_delta) = measure(160 * 1024);
    assert_eq!(small_delta, 3 * K, "one seller row and two bidder rows per auction");
    assert_eq!(large_delta, small_delta, "delta rows do not depend on the document");
    assert!(large_store >= 3 * small_store, "stores {small_store} → {large_store} did grow");
}
