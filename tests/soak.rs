//! Differential soak harness for the commit front-ends.
//!
//! Two executions of the same workload — **sequential** (statements
//! applied one by one) and **async-service** (the statements submitted
//! through `Database::apply_async`, whose service seals each drained
//! queue — a *window* — submission by submission under one recovery
//! image — grouped into submissions of 0, 1 or 4 statements, so empty
//! and multi-statement commits share windows with single ones — with
//! randomized `flush()` / `wait()` / synchronous-read /
//! synchronous-commit interleavings and bounded `Block` subscriptions
//! drained from consumer threads) — must be observationally
//! indistinguishable: identical documents, identical
//! view stores, pairwise [`Commit::same_outcome`] commits (sequence
//! numbers, statement/optimizer counters, per-view counters and
//! bit-identical deltas) and identical, gapless subscription
//! [`DeltaEvent`] streams on every view. Every execution additionally
//! proves the **snapshot-read** leg: a [`Database::snapshot`] taken
//! after the last commit must read (document and every store)
//! identically to the live database.
//!
//! Random documents × view sets × statement streams are generated by
//! the proptest shim, so a failing case records its raw draw sequence
//! and the shim's greedy shrinker minimizes it
//! (`PROPTEST_MAX_SHRINK_ITERS` bounds the budget). Deterministic
//! sweeps additionally cover every window length a fixed stream can be
//! cut into — each window held together by [`fault::SEAL_DELAY`] — and
//! every subscription capacity × submission shape × interleaving.

use proptest::prelude::*;
use xivm::pattern::compile::view_tuples;
use xivm::prelude::*;
use xivm_core::fault;

// ---------------------------------------------------------------------
// Workload generation (same small alphabets as tests/property.rs so
// patterns hit; kept local so the two suites can evolve separately)
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

/// Statement counts an async submission is drawn from: mostly single
/// statements, with empty and four-statement commits mixed in.
const SHAPES: [usize; 5] = [0, 1, 1, 1, 4];

/// Groups the script into submissions — one commit each: submission
/// *k* takes the next `SHAPES[shapes[k]]` statements (as many as are
/// left), and whatever the shapes do not cover follows one statement
/// per submission. No shapes = the plain one-commit-per-statement
/// workload.
fn submissions(script: &[ScriptStep], shapes: &[usize]) -> Vec<Vec<String>> {
    let mut rest = script.iter().map(script_statement);
    let mut groups: Vec<Vec<String>> =
        shapes.iter().map(|&s| rest.by_ref().take(SHAPES[s]).collect()).collect();
    groups.extend(rest.map(|s| vec![s]));
    groups
}

// ---------------------------------------------------------------------
// The differential run
// ---------------------------------------------------------------------

/// Everything one execution of the workload observably produced.
struct Observation {
    serialized: String,
    commits: Vec<Commit>,
    /// One drained event stream per view, declaration order.
    streams: Vec<Vec<DeltaEvent>>,
    /// A frozen image taken right after the last commit — the
    /// snapshot-read leg of the differential.
    snapshot: DatabaseSnapshot,
    db: Database,
}

fn build_db(doc_xml: &str, view_idxs: &[usize]) -> Database {
    let mut b = Database::builder().document(doc_xml);
    for (i, &p) in view_idxs.iter().enumerate() {
        b = b.view(format!("v{i}"), PATTERNS[p]);
    }
    b.build().expect("soak database builds")
}

/// Runs the script, one commit per statement — `window: None` applies
/// statements one by one, `Some(d)` submits them to the async service
/// in windows of up to `d` submissions. Every view carries a
/// subscription from before the first commit.
fn run_workload(
    doc_xml: &str,
    view_idxs: &[usize],
    script: &[ScriptStep],
    window: Option<usize>,
) -> Observation {
    run_submissions(doc_xml, view_idxs, &submissions(script, &[]), window)
}

/// [`run_workload`] over explicit submissions, one commit each: a
/// one-statement submission goes through `apply`, any other through a
/// sequential `transaction()` — the synchronous reference for the
/// async leg's grouping — or, under a `window`, through `apply_async`.
fn run_submissions(
    doc_xml: &str,
    view_idxs: &[usize],
    groups: &[Vec<String>],
    window: Option<usize>,
) -> Observation {
    drive(build_db(doc_xml, view_idxs), groups, window)
}

/// One submission as one synchronous commit: a single statement
/// through `apply`, anything else through a sequential
/// `transaction()`.
fn commit_sync(db: &mut Database, group: &[String]) -> Commit {
    match group {
        [s] => db.apply(s.as_str()).expect("statement applies"),
        many => many
            .iter()
            .fold(db.transaction(), |tx, s| tx.statement(s.as_str()))
            .commit()
            .expect("transaction commits"),
    }
}

/// The drive behind [`run_submissions`], over a database
/// the caller built (the env-default test hands in one whose
/// subscription capacity comes from the environment).
fn drive(mut db: Database, groups: &[Vec<String>], window: Option<usize>) -> Observation {
    let (commits, streams) = if let Some(window) = window {
        // Each window is held off by `fault::SEAL_DELAY` until all of
        // its submissions are queued, and this thread drains only once
        // every window sealed: these subscriptions must be explicitly
        // unbounded (a tight `XIVM_SUB_CAPACITY` default would stall
        // the service against a consumer that is not reading yet).
        let _shaping = fault::exclusive();
        let subs: Vec<Subscription> = db
            .handles()
            .into_iter()
            .map(|h| db.subscribe_with(h, None, SlowConsumerPolicy::Block))
            .collect();
        let mut tickets = Vec::with_capacity(groups.len());
        for chunk in groups.chunks(window) {
            fault::arm(fault::SEAL_DELAY);
            for group in chunk {
                tickets.push(db.apply_async(group.iter().map(String::as_str)).expect("submits"));
            }
            db.flush().expect("window seals");
        }
        let commits = tickets.iter().map(|t| t.wait().expect("async commit seals")).collect();
        let streams = subs.iter().map(|sub| db.drain(sub)).collect();
        for sub in subs {
            db.unsubscribe(sub);
        }
        (commits, streams)
    } else {
        // Env-default subscriptions, drained after every commit: the
        // reference leg must keep making progress even when
        // `XIVM_SUB_CAPACITY=1` bounds every queue (the CI async
        // matrix does exactly that).
        let subs: Vec<Subscription> = db.handles().into_iter().map(|h| db.subscribe(h)).collect();
        let mut streams: Vec<Vec<DeltaEvent>> = (0..subs.len()).map(|_| Vec::new()).collect();
        let mut commits = Vec::with_capacity(groups.len());
        for group in groups {
            commits.push(commit_sync(&mut db, group));
            for (sub, stream) in subs.iter().zip(streams.iter_mut()) {
                stream.extend(db.drain(sub));
            }
        }
        for sub in subs {
            db.unsubscribe(sub);
        }
        (commits, streams)
    };
    Observation { serialized: db.serialize(), commits, streams, snapshot: db.snapshot(), db }
}

/// Runs the submissions through the async commit service: one
/// `apply_async` call per submission (empty, single- and
/// multi-statement ones land in the same windows), with a
/// per-submission interleave action, cycled (`1` = `flush()` right
/// after submitting, `2` = `wait()` on the fresh ticket, `3` = a
/// synchronous read right after submitting — the owner takes the core
/// back mid-stream without a flush — `4` = commit this submission
/// *synchronously* through `apply` / `transaction()` between two async
/// bursts, anything else = keep submitting) so random cases cover
/// everything from fire-and-forget to fully synchronous pacing, and
/// every hand-off of the database core between the owner and the
/// service. Sequence numbers must run on across both kinds of commit:
/// each ticket and each synchronous commit continues from whatever was
/// promised last. Every view carries a bounded (or unbounded,
/// `capacity == None`) [`SlowConsumerPolicy::Block`] subscription
/// drained by its own consumer thread — at capacity 1 the service
/// cannot seal commit *k+1* before a consumer took commit *k*, so a
/// passing run proves backpressure never deadlocks the commit path.
/// The `Commit`s come from the tickets, in submission order, and each
/// must carry exactly the sequence number its ticket promised.
fn run_workload_async(
    doc_xml: &str,
    view_idxs: &[usize],
    groups: &[Vec<String>],
    capacity: Option<usize>,
    interleave: &[u8],
) -> Observation {
    let mut db = build_db(doc_xml, view_idxs);
    let expected = groups.len();
    let consumers: Vec<std::thread::JoinHandle<(Vec<DeltaEvent>, Subscription)>> = db
        .handles()
        .into_iter()
        .map(|h| {
            let sub = db.subscribe_with(h, capacity, SlowConsumerPolicy::Block);
            std::thread::spawn(move || {
                let mut events: Vec<DeltaEvent> = Vec::new();
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                while events.len() < expected {
                    for ev in sub.drain() {
                        match ev {
                            FeedEvent::Delta(d) => events.push(d),
                            FeedEvent::Lagged(lag) => {
                                panic!("Block feed can never lag (missed {:?})", lag.missed_range)
                            }
                        }
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "consumer starved at {}/{} events",
                        events.len(),
                        expected
                    );
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                (events, sub)
            })
        })
        .collect();

    /// One submission's commit: still a promise, or already sealed
    /// because it went in synchronously (action 4).
    enum Sealing {
        Promised(Ticket),
        Sealed(Commit),
    }
    let mut sealing: Vec<Sealing> = Vec::with_capacity(expected);
    let mut promised = 0u64;
    for (group, &action) in groups.iter().zip(interleave.iter().cycle()) {
        if action == 4 {
            let commit = commit_sync(&mut db, group);
            assert_eq!(commit.seq, promised + 1, "a synchronous commit continues the tickets");
            promised = commit.seq;
            sealing.push(Sealing::Sealed(commit));
            continue;
        }
        let ticket = db.apply_async(group.iter().map(String::as_str)).expect("async submit");
        assert_eq!(ticket.seq, promised + 1, "tickets continue from the last promised seq");
        promised = ticket.seq;
        match action {
            1 => db.flush().expect("mid-stream flush"),
            2 => drop(ticket.wait().expect("mid-stream wait")),
            3 => {
                assert_eq!(db.last_seq(), promised, "a read sees everything submitted sealed");
                for h in db.handles() {
                    let _ = db.store(h).len();
                }
            }
            _ => {}
        }
        sealing.push(Sealing::Promised(ticket));
    }
    db.flush().expect("final flush");
    let commits: Vec<Commit> = sealing
        .into_iter()
        .map(|s| match s {
            Sealing::Sealed(commit) => commit,
            Sealing::Promised(t) => {
                let commit = t.wait().expect("async commit seals");
                assert_eq!(commit.seq, t.seq, "Commit::seq is exactly Ticket::seq");
                commit
            }
        })
        .collect();
    let mut streams = Vec::new();
    for consumer in consumers {
        let (events, sub) = consumer.join().expect("consumer thread");
        streams.push(events);
        db.unsubscribe(sub);
    }
    Observation { serialized: db.serialize(), commits, streams, snapshot: db.snapshot(), db }
}

/// The differential assertion: `got` must be observationally
/// identical to `reference`.
fn assert_equivalent(
    reference: &Observation,
    got: &Observation,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&reference.serialized, &got.serialized, "{}: documents diverged", label);
    prop_assert_eq!(
        reference.commits.len(),
        got.commits.len(),
        "{}: commit counts diverged",
        label
    );
    for (a, b) in reference.commits.iter().zip(&got.commits) {
        prop_assert!(
            a.same_outcome(b),
            "{}: commit {} diverged (statements {} vs {}, touched {:?} vs {:?})",
            label,
            a.seq,
            a.statements,
            b.statements,
            a.touched(),
            b.touched()
        );
    }
    prop_assert_eq!(reference.streams.len(), got.streams.len());
    for (v, (a, b)) in reference.streams.iter().zip(&got.streams).enumerate() {
        prop_assert_eq!(a.len(), b.len(), "{}: view {} stream lengths diverged", label, v);
        for (ea, eb) in a.iter().zip(b) {
            prop_assert_eq!(ea.seq, eb.seq, "{}: view {} event sequence diverged", label, v);
            prop_assert_eq!(
                &*ea.delta,
                &*eb.delta,
                "{}: view {} delta for commit {} diverged",
                label,
                v,
                ea.seq
            );
        }
    }
    for (a, b) in reference.db.handles().into_iter().zip(got.db.handles()) {
        prop_assert!(
            reference.db.store(a).identical_to(got.db.store(b)),
            "{}: view {} stores diverged",
            label,
            reference.db.name(a)
        );
    }
    // The snapshot-read leg: the frozen image must agree with the live
    // database it was taken from (and hence, transitively, with the
    // reference) on seq, document and every store.
    prop_assert_eq!(
        got.snapshot.seq(),
        got.db.last_seq(),
        "{}: snapshot seq must stamp the last sealed commit",
        label
    );
    prop_assert_eq!(
        got.snapshot.serialize(),
        got.db.serialize(),
        "{}: snapshot document diverged from the live one",
        label
    );
    for h in got.db.handles() {
        prop_assert!(
            got.snapshot.store(h).identical_to(got.db.store(h)),
            "{}: snapshot store {} diverged from the live one",
            label,
            got.db.name(h)
        );
    }
    Ok(())
}

/// Oracle: every view equals its from-scratch evaluation, and the
/// drained streams are gapless with replayable deltas.
fn assert_sound(obs: &Observation, commits: usize) -> Result<(), TestCaseError> {
    for h in obs.db.handles() {
        let pattern = obs.db.pattern(h).clone();
        let expected = ViewStore::from_counted(&pattern, view_tuples(obs.db.document(), &pattern));
        prop_assert!(
            obs.db.store(h).identical_to(&expected),
            "view {} diverged from recomputation",
            obs.db.name(h)
        );
    }
    for stream in &obs.streams {
        let seqs: Vec<u64> = stream.iter().map(|e| e.seq).collect();
        prop_assert_eq!(seqs, (1..=commits as u64).collect::<Vec<u64>>(), "gapless stream");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The async-service leg of the soak: the same workload submitted
    /// through `apply_async` — random subscription capacities (1, 4 or
    /// unbounded), submission shapes (0, 1 or 4 statements) and
    /// per-submission `flush()` / `wait()` / synchronous-read /
    /// synchronous-commit interleavings — must be observationally identical to the
    /// sequential reference applying the same grouping through
    /// `apply` / `transaction()`, consumer threads and backpressure
    /// included.
    #[test]
    fn async_service_agrees_with_sequential(
        doc_xml in arb_doc(),
        view_idxs in prop::collection::vec(0usize..PATTERNS.len(), 1..4),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            1..7
        ),
        capacity_sel in 0usize..3,
        interleave in prop::collection::vec(0u8..5, 7..8),
        shapes in prop::collection::vec(0usize..SHAPES.len(), 0..7),
    ) {
        let capacity = [Some(1), Some(4), None][capacity_sel];
        let groups = submissions(&script, &shapes);
        let reference = run_submissions(&doc_xml, &view_idxs, &groups, None);
        assert_sound(&reference, groups.len())?;
        let serviced = run_workload_async(&doc_xml, &view_idxs, &groups, capacity, &interleave);
        assert_equivalent(&reference, &serviced, &format!("async cap={capacity:?}"))?;
    }
}

/// Deterministic depth sweep: every window length a fixed six-statement
/// stream can be cut into — six async windows of one up to one window
/// of all six — over a workload whose statements produce multi-group
/// *and* single-group (conflicting) Figure 15 partitions.
#[test]
fn full_depth_sweep() {
    let doc = "<r><a><c><b/><b/></c><f><c><b/></c><b/></f></a><a><d>5</d><b/></a></r>";
    let views = [0usize, 1, 3, 5];
    let script: Vec<ScriptStep> = vec![
        (0, 1, true),  // insert <a><b/><c/></a> into //a
        (2, 0, false), // delete //a//c
        (1, 2, true),  // insert <c><b/></c> into //b
        (3, 3, false), // delete //d
        (0, 3, true),  // insert <d>5</d> into //a
        (1, 0, false), // delete //b
    ];
    let reference = run_workload(doc, &views, &script, None);
    assert_sound(&reference, script.len()).unwrap();
    for depth in 1..=script.len() {
        let windowed = run_workload(doc, &views, &script, Some(depth));
        assert_equivalent(&reference, &windowed, &format!("sweep windows d={depth}")).unwrap();
    }
}

/// Deterministic async grid: every subscription capacity in
/// {1, 4, unbounded} × four submission groupings (all single; a
/// four-statement and an empty commit in the middle, at the head, at
/// the tail of the stream) × two interleavings — one mixing
/// fire-and-forget, a mid-stream wait, a mid-stream synchronous read,
/// a mid-stream flush and a synchronous commit between two bursts, and
/// pure fire-and-forget, which hands the service the stream in as few
/// drained queues as it can — over the same fixed workload as
/// [`full_depth_sweep`]. Bit-identical to the sequential reference of
/// the same grouping everywhere.
#[test]
fn full_async_grid_agrees_with_sequential() {
    let doc = "<r><a><c><b/><b/></c><f><c><b/></c><b/></f></a><a><d>5</d><b/></a></r>";
    let views = [0usize, 1, 3, 5];
    let script: Vec<ScriptStep> =
        vec![(0, 1, true), (2, 0, false), (1, 2, true), (3, 3, false), (0, 3, true), (1, 0, false)];
    let interleavings: [&[u8]; 2] = [&[0, 2, 3, 1, 4, 0], &[0]];
    let capacities = [Some(1), Some(4), None];
    // Indices into SHAPES: [] = six single commits; the others mix a
    // four-statement and an empty commit into the first four
    // submissions.
    let shapes: [&[usize]; 4] = [&[], &[1, 4, 0, 1], &[4, 0, 1, 1], &[1, 1, 0, 4]];
    for (s, shape) in shapes.iter().enumerate() {
        let groups = submissions(&script, shape);
        let reference = run_submissions(doc, &views, &groups, None);
        assert_sound(&reference, groups.len()).unwrap();
        for capacity in capacities {
            for (i, interleave) in interleavings.iter().enumerate() {
                let serviced = run_workload_async(doc, &views, &groups, capacity, interleave);
                let label = format!("async grid shape {s} cap={capacity:?} interleaving {i}");
                assert_equivalent(&reference, &serviced, &label).unwrap();
            }
        }
    }
}

/// Submitting a workload whose every statement expands to a multi-op
/// PUL touching all views' labels (an `ins↘` on each of three `//b`,
/// then a `del` of each of two `//a`) through the async service must be
/// exactly equivalent to the sequential order, in windows of one
/// statement and of both.
#[test]
fn multi_op_statements_pipeline_equals_sequential() {
    let doc = "<r><a><c><b/><b/></c></a><a><b/><c/></a></r>";
    let views = [0usize, 1, 2];
    let script = [(1, 2, true), (0, 0, false)];
    let reference = run_workload(doc, &views, &script, None);
    for depth in 1..=2 {
        let windowed = run_workload(doc, &views, &script, Some(depth));
        assert_equivalent(&reference, &windowed, &format!("multi-op d={depth}")).unwrap();
    }
}

/// A database built with no knob set — its subscription capacity
/// picked up from `XIVM_SUB_CAPACITY`, the variable the CI async
/// matrix sets — must still be observationally identical to the
/// sequential reference, applied one by one and as one async window.
#[test]
fn env_configured_databases_agree_with_sequential() {
    let doc = "<r><a><c><b/><b/></c><f><c><b/></c><b/></f></a><a><d>5</d></a></r>";
    let views = [0usize, 1, 2, 4];
    let script: Vec<ScriptStep> =
        vec![(1, 2, true), (0, 0, false), (3, 3, true), (2, 1, false), (0, 2, true)];
    let reference = run_workload(doc, &views, &script, None);
    assert_sound(&reference, script.len()).unwrap();

    // same workload through env-default databases, applied one by one
    // (env-default subscriptions, drained after every commit) and as
    // one async window (explicitly unbounded ones) — `drive` keeps
    // both legs moving under a tight `XIVM_SUB_CAPACITY`
    let groups = submissions(&script, &[]);
    for window in [None, Some(script.len())] {
        let db = {
            let mut b = Database::builder().document(doc);
            for (i, &p) in views.iter().enumerate() {
                b = b.view(format!("v{i}"), PATTERNS[p]);
            }
            b.build().unwrap()
        };
        let got = drive(db, &groups, window);
        assert_equivalent(&reference, &got, &format!("env-default window={window:?}")).unwrap();
    }
}

/// The hand-off across threads: a `Database` with tickets still in
/// flight is *moved* into another thread, and the first synchronous
/// read there takes the core back from the service — documents, stores,
/// commits and feeds equal the sequential reference. The auto traits
/// this relies on are asserted at compile time.
#[test]
fn database_moves_across_threads_with_tickets_in_flight() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<DatabaseSnapshot>();
    assert_send::<Ticket>();
    assert_send::<Subscription>();

    let doc = "<r><a><c><b/><b/></c><f><c><b/></c><b/></f></a><a><d>5</d><b/></a></r>";
    let views = [0usize, 1, 3, 5];
    let script: Vec<ScriptStep> =
        vec![(0, 1, true), (2, 0, false), (1, 2, true), (3, 3, false), (0, 3, true), (1, 0, false)];
    let reference = run_workload(doc, &views, &script, None);

    let mut db = build_db(doc, &views);
    let subs: Vec<Subscription> = db
        .handles()
        .into_iter()
        .map(|h| db.subscribe_with(h, None, SlowConsumerPolicy::Block))
        .collect();
    let tickets: Vec<Ticket> =
        script.iter().map(|step| db.apply_async([script_statement(step)]).unwrap()).collect();
    let reader = std::thread::spawn(move || {
        let serialized = db.serialize();
        let streams = subs.iter().map(|sub| db.drain(sub)).collect();
        for sub in subs {
            db.unsubscribe(sub);
        }
        Observation { serialized, commits: Vec::new(), streams, snapshot: db.snapshot(), db }
    });
    let commits = tickets.iter().map(|t| t.wait().expect("async commit seals")).collect();
    let got = Observation { commits, ..reader.join().expect("reader thread") };
    assert_equivalent(&reference, &got, "moved across threads").unwrap();
}

// ---------------------------------------------------------------------
// Replication crash/reconnect soak + deferred-refresh soak
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Replication soak: a replica is killed and resumed at random
    /// points while commits keep flowing — every resume must land
    /// byte-identical, whether the gap replays from the retained
    /// window or falls back to a full snapshot (small retained
    /// windows force both paths across cases).
    #[test]
    fn replica_survives_random_crashes_and_reconnects(
        doc_xml in arb_doc(),
        pattern_idx in 0usize..PATTERNS.len(),
        script in prop::collection::vec(
            (0usize..TARGETS.len(), 0usize..FORESTS.len(), prop::bool::ANY),
            6..14
        ),
        kill_mask in prop::collection::vec(prop::bool::ANY, 14..15),
        retain in 1usize..6,
    ) {
        let mut db = Database::builder()
            .document(doc_xml.as_str())
            .view("v", PATTERNS[pattern_idx])
            .build()
            .unwrap();
        let h = db.view("v").unwrap();
        let mut server = FeedServer::bind("127.0.0.1:0", &mut db, h, retain).unwrap();
        let mut replica = ReplicaClient::connect(server.local_addr(), "v").unwrap();
        replica.sync_to(0).unwrap();

        let mut dead = false;
        for (k, step) in script.iter().enumerate() {
            db.apply(script_statement(step).as_str()).unwrap();
            server.pump(&db);
            if kill_mask[k] {
                // Crash mid-stream; commits keep flowing into the gap.
                if !dead {
                    replica.kill();
                    dead = true;
                }
                continue;
            }
            if dead {
                replica.reconnect().unwrap();
                dead = false;
            }
            replica.sync_to(db.last_seq()).unwrap();
            prop_assert!(
                replica.identical_to(db.store(h)),
                "resume at seq {} diverged",
                db.last_seq()
            );
        }
        if dead {
            replica.reconnect().unwrap();
        }
        replica.sync_to(db.last_seq()).unwrap();
        prop_assert!(replica.identical_to(db.store(h)), "final replica state diverged");
        prop_assert_eq!(replica.seq(), db.last_seq());
        server.close(&mut db);
    }
}

/// Deferred-refresh soak: the same fixed workload with the deferred
/// view refreshed every few commits, across every commit front-end
/// (sequential `apply`, `apply_async` through the service thread,
/// one-statement
/// sequential and independent `transaction()`s), must land every
/// front-end on the immediate-maintenance reference bit-identically —
/// and on the from-scratch recomputation oracle. The front-ends must
/// also agree with each other on everything the seal leaves behind:
/// `deferred_commits` before every refresh and both views' event
/// streams.
#[test]
fn deferred_refresh_soak_across_sealing_modes() {
    const DOC: &str = "<r><a><b/><c/></a><a><d>5</d></a></r>";
    let script: Vec<ScriptStep> =
        (0..24).map(|i| (i % TARGETS.len(), i % FORESTS.len(), i % 3 != 0)).collect();
    let statements: Vec<String> = script.iter().map(script_statement).collect();

    let mut reference = Database::builder()
        .document(DOC)
        .view("v", PATTERNS[1])
        .view("w", PATTERNS[0])
        .build()
        .unwrap();
    for s in &statements {
        reference.apply(s.as_str()).unwrap();
    }
    let ref_v = reference.view("v").unwrap();
    let ref_w = reference.view("w").unwrap();

    /// A `DeltaEvent` by value: seq, folded range, delta.
    type Event = (u64, Option<std::ops::RangeInclusive<u64>>, ViewDelta);
    /// What one front-end left behind, beyond the stores.
    #[derive(Debug, PartialEq)]
    struct Sealed {
        deferred_commits: Vec<u64>,
        /// One stream per view.
        events: Vec<Vec<Event>>,
    }

    let mut agreed: Option<Sealed> = None;
    for mode in ["apply", "async", "tx", "tx_independent"] {
        let mut db = Database::builder()
            .document(DOC)
            .view_deferred("v", PATTERNS[1])
            .view("w", PATTERNS[0])
            .build()
            .unwrap();
        let v = db.view("v").unwrap();
        // Explicitly unbounded: a whole chunk seals before this
        // thread drains.
        let subs: Vec<Subscription> = db
            .handles()
            .into_iter()
            .map(|h| db.subscribe_with(h, None, SlowConsumerPolicy::Block))
            .collect();
        let mut sealed = Sealed { deferred_commits: Vec::new(), events: Vec::new() };
        for chunk in statements.chunks(5) {
            let texts = chunk.iter().map(String::as_str);
            let commits: Vec<Commit> = match mode {
                "apply" => texts.map(|s| db.apply(s).unwrap()).collect(),
                "async" => {
                    let tickets: Vec<Ticket> =
                        texts.map(|s| db.apply_async([s]).unwrap()).collect();
                    db.flush().unwrap();
                    tickets.iter().map(|t| t.wait().unwrap()).collect()
                }
                "tx" => texts.map(|s| db.transaction().statement(s).commit().unwrap()).collect(),
                _ => texts
                    .map(|s| db.transaction().independent().statement(s).commit().unwrap())
                    .collect(),
            };
            assert_eq!(commits.len(), chunk.len(), "{mode}: one commit per statement");
            sealed.deferred_commits.push(db.deferred_commits(v));
            db.refresh(v).unwrap();
        }
        db.refresh_all().unwrap();
        assert_eq!(db.deferred_commits(v), 0, "{mode}: nothing left pending");
        for sub in subs {
            let events = db.drain(&sub);
            sealed
                .events
                .push(events.into_iter().map(|e| (e.seq, e.folded, (*e.delta).clone())).collect());
            db.unsubscribe(sub);
        }

        let pattern = db.pattern(v).clone();
        let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
        assert!(db.store(v).identical_to(&expected), "{mode}: diverged from recomputation");
        assert!(db.store(v).identical_to(reference.store(ref_v)), "{mode}: deferred != immediate");
        let w = db.view("w").unwrap();
        assert!(
            db.store(w).identical_to(reference.store(ref_w)),
            "{mode}: immediate view diverged"
        );
        match &agreed {
            None => agreed = Some(sealed),
            Some(first) => assert_eq!(first, &sealed, "{mode}: front-ends disagree"),
        }
    }
}
