//! Fault-injection harness for the async commit service.
//!
//! Arms the one-shot failpoints in `xivm_core::fault` (compiled in via
//! the `fault-inject` feature) and proves the containment guarantees
//! `crates/core/src/service.rs` documents:
//!
//! * a panicking window drains cleanly — the service survives, later
//!   submissions seal, and `Database` drop still joins everything;
//! * a panic at step *k* of a window ([`fault::arm_at`] lets a point
//!   pass its first reaches) keeps the steps before *k*: recovery
//!   replays their PULs onto the window's image, in the shapes they
//!   had and under the label interner they were applied with;
//! * the failure surfaces on the failing ticket's `wait()` as
//!   [`Error::Panic`], on everything queued behind it as
//!   [`Error::Aborted`], and exactly once on `flush()`;
//! * after the failure the database equals a *sequential replay of the
//!   committed prefix* — same serialized document, same stores, same
//!   commit counter — checked against a fresh database;
//! * subscription feeds stay gapless: consumers see exactly the sealed
//!   commits, in order, with consecutive sequence numbers;
//! * `commit_barrier(seq)` returns as commit `seq` seals, not when its
//!   window ends;
//! * [`fault::SEAL_DELAY`] shows submission returning well before the
//!   seal completes (the latency decoupling the benchmark's
//!   `core.service.submit_us` measures);
//! * when the recovery itself panics ([`fault::RECOVER_PANIC`]) the
//!   service is poisoned: every ticket resolves, `flush()` and later
//!   submissions return the panic, and a synchronous access panics
//!   with its message — nothing hangs.
//!
//! Every test holds [`fault::exclusive`] for its whole body: the armed
//! set is process-global and the test runner is multi-threaded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use xivm::pattern::compile::view_tuples;
use xivm::prelude::*;
use xivm_core::fault;

/// The doctest document: two views with overlapping matches so every
/// insert below touches both stores.
const DOC: &str = "<a><c><b/><b/></c><f><c><b/></c><b/></f></a>";
const VIEWS: [(&str, &str); 2] = [("acb", "//a{id}[//c{id}]//b{id}"), ("cb", "//c{id}//b{id}")];

/// Always-valid statements for async batches (an insert cannot fail,
/// so the only failures in these tests are the injected ones).
fn stmt(i: usize) -> String {
    if i % 2 == 0 {
        "insert <b/> into /a/c".to_owned()
    } else {
        "insert <c><b/></c> into /a/f".to_owned()
    }
}

fn build_db() -> Database {
    let mut b = Database::builder().document(DOC);
    for (name, pattern) in VIEWS {
        b = b.view(name, pattern);
    }
    b.build().expect("fixture database")
}

/// Every store equals a from-scratch recount of its pattern against
/// the current document (the same oracle the soak harness uses).
fn assert_consistent(db: &Database, context: &str) {
    for (name, _) in VIEWS {
        let h = db.view(name).expect("known view");
        let pattern = db.pattern(h).clone();
        let expected = ViewStore::from_counted(&pattern, view_tuples(db.document(), &pattern));
        assert!(
            db.store(h).identical_to(&expected),
            "{context}: view {name} diverged from recount oracle"
        );
    }
}

/// The database must equal a fresh one sequentially replaying exactly
/// the statements whose commits sealed.
fn assert_equals_replay(db: &Database, sealed_stmts: &[String], context: &str) {
    let mut replay = build_db();
    for s in sealed_stmts {
        replay.apply(s.as_str()).expect("replay statement");
    }
    assert_eq!(db.last_seq(), replay.last_seq(), "{context}: commit counter");
    assert_eq!(db.serialize(), replay.serialize(), "{context}: document");
    for (name, _) in VIEWS {
        let h = db.view(name).expect("known view");
        let rh = replay.view(name).expect("known view");
        assert!(
            db.store(h).same_content_as(replay.store(rh)),
            "{context}: view {name} differs from sequential replay"
        );
    }
}

/// Drains a feed and asserts its delta events are gapless, returning
/// the sequence numbers seen.
fn drained_seqs(sub: &Subscription) -> Vec<u64> {
    let seqs: Vec<u64> = sub
        .drain()
        .into_iter()
        .map(|ev| match ev {
            FeedEvent::Delta(d) => d.seq,
            FeedEvent::Lagged(lag) => {
                panic!("unexpected lag marker (missed {:?})", lag.missed_range)
            }
        })
        .collect();
    for pair in seqs.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "feed has a sequence gap: {seqs:?}");
    }
    seqs
}

/// A panic in `prepare` during an async window: the first queued
/// ticket carries `Error::Panic`, everything behind it aborts, and the
/// database rolls back to the last sealed commit.
#[test]
fn prepare_panic_fails_window_and_database_recovers() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = build_db();
    let h = db.view("acb").expect("view");
    let feed = db.subscribe(h);
    let base: Vec<String> = (0..2).map(stmt).collect();
    // Drain after every commit: under the CI async matrix
    // (XIVM_SUB_CAPACITY=1) the feed is a capacity-1 Block queue, so
    // an undrained event would stall the next commit's fan-out.
    let mut feed_seqs = Vec::new();
    for s in &base {
        db.apply(s.as_str()).expect("base commit");
        feed_seqs.extend(drained_seqs(&feed));
    }

    // SEAL_DELAY makes the schedule deterministic: the 40ms sleep
    // before the service drains its queue lets every apply_async call
    // enqueue, so all four tickets are one window when the armed
    // prepare panics, and none can slip into a clean later batch.
    fault::arm(fault::PREPARE_PANIC | fault::SEAL_DELAY);
    let tickets: Vec<Ticket> = (0..4).map(|i| db.apply_async([stmt(i)]).expect("submit")).collect();

    let flushed = db.flush();
    match &flushed {
        Err(Error::Panic(msg)) => {
            assert!(msg.contains("injected fault: panic in prepare"), "panic message: {msg}")
        }
        other => panic!("flush should surface the injected panic, got {other:?}"),
    }
    assert!(db.flush().is_ok(), "flush reports each failure exactly once");

    // The window seals step by step: a panic at step k keeps the
    // steps before k sealed, and recovery replays exactly those. The
    // first prepare is step 0's, so nothing sealed: the first
    // submission carries the panic and everything behind it aborted.
    let first = tickets[0].wait();
    assert!(matches!(first, Err(Error::Panic(_))), "first ticket: {first:?}");
    assert_eq!(
        tickets[0].wait().map(|c| c.seq).unwrap_err().to_string(),
        first.map(|c| c.seq).unwrap_err().to_string(),
        "wait() is idempotent"
    );
    assert!(tickets[0].try_result().is_some(), "resolved tickets answer try_result");
    for t in &tickets[1..] {
        assert!(matches!(t.wait(), Err(Error::Aborted)), "queued-behind tickets abort");
    }

    // Rollback: only the two base commits exist, bit-identical to a
    // sequential replay, and the feed saw exactly them (the failed
    // window fanned out nothing).
    assert_equals_replay(&db, &base, "after prepare panic");
    assert_consistent(&db, "after prepare panic");
    feed_seqs.extend(drained_seqs(&feed));
    assert_eq!(feed_seqs, vec![1, 2]);

    // The service survived: both the sync and async paths keep working
    // and the feed continues gaplessly.
    let c3 = db.apply(stmt(2).as_str()).expect("sync after failure");
    assert_eq!(c3.seq, 3);
    let mut tail = drained_seqs(&feed);
    let t4 = db.apply_async([stmt(3)]).expect("async after failure");
    let c4 = t4.wait().expect("async seals after failure");
    assert_eq!(c4.seq, 4);
    tail.extend(drained_seqs(&feed));
    assert_eq!(tail, vec![3, 4]);
    assert_consistent(&db, "after post-failure commits");

    fault::disarm_all();
}

/// A panic in `finish` after earlier async commits sealed: the sealed
/// prefix survives exactly, the failed seq is reclaimed by the next
/// submission, and `commit_barrier` reports the failed seq as never
/// reached.
#[test]
fn finish_panic_preserves_sealed_prefix() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = build_db();
    let h = db.view("cb").expect("view");
    let feed = db.subscribe(h);
    db.apply(stmt(0).as_str()).expect("base commit");
    // Drained after every seal so a capacity-1 env default
    // (XIVM_SUB_CAPACITY=1, Block) cannot stall the next one.
    let mut feed_seqs = drained_seqs(&feed);

    let ta = db.apply_async([stmt(1)]).expect("submit A");
    db.flush().expect("A seals cleanly");
    assert_eq!(ta.wait().expect("A sealed").seq, 2);
    feed_seqs.extend(drained_seqs(&feed));

    fault::arm(fault::FINISH_PANIC | fault::SEAL_DELAY);
    let tb = db.apply_async([stmt(2)]).expect("submit B");
    let tc = db.apply_async([stmt(3)]).expect("submit C");
    assert_eq!(tb.seq, 3);
    assert_eq!(tc.seq, 4);

    match tb.wait() {
        Err(Error::Panic(msg)) => {
            assert!(msg.contains("injected fault: panic in finish"), "panic message: {msg}")
        }
        other => panic!("B should carry the injected panic, got {other:?}"),
    }
    assert!(matches!(tc.wait(), Err(Error::Aborted)));
    assert!(matches!(db.flush(), Err(Error::Panic(_))));

    // B's seq was promised but never sealed: the barrier comes back
    // below it instead of waiting forever.
    assert_eq!(db.commit_barrier(tb.seq), 2);

    let sealed: Vec<String> = vec![stmt(0), stmt(1)];
    assert_equals_replay(&db, &sealed, "after finish panic");
    assert_consistent(&db, "after finish panic");
    feed_seqs.extend(drained_seqs(&feed));
    assert_eq!(feed_seqs, vec![1, 2]);

    // Reservations restarted from the sealed prefix: the next
    // submission reclaims B's number and the stream stays gapless.
    let td = db.apply_async([stmt(2)]).expect("resubmit");
    assert_eq!(td.seq, 3, "failed seq is reclaimed, not leaked as a gap");
    assert_eq!(td.wait().expect("resubmission seals").seq, 3);
    assert_eq!(db.commit_barrier(3), 3);
    assert_eq!(drained_seqs(&feed), vec![3]);

    fault::disarm_all();
}

/// A panic inside a multi-statement async submission (the sequential
/// transaction path): the whole transaction rolls back and the same
/// statements succeed once the fault is spent.
#[test]
fn panic_in_async_transaction_rolls_back_whole_batch() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = build_db();
    let base = stmt(0);
    db.apply(base.as_str()).expect("base commit");

    fault::arm(fault::PREPARE_PANIC);
    let t = db.apply_async([stmt(1), stmt(2)]).expect("submit transaction");
    assert!(matches!(t.wait(), Err(Error::Panic(_))));
    assert!(matches!(db.flush(), Err(Error::Panic(_))));

    assert_equals_replay(&db, std::slice::from_ref(&base), "after transaction panic");
    assert_consistent(&db, "after transaction panic");

    // The fault is one-shot: the identical resubmission seals as one
    // commit, equal to a sequential transaction replay.
    let t2 = db.apply_async([stmt(1), stmt(2)]).expect("resubmit transaction");
    let commit = t2.wait().expect("transaction seals");
    assert_eq!(commit.seq, 2);
    let mut replay = build_db();
    replay.apply(base.as_str()).expect("replay base");
    replay
        .transaction()
        .statement(stmt(1).as_str())
        .statement(stmt(2).as_str())
        .commit()
        .expect("replay transaction");
    assert_eq!(db.serialize(), replay.serialize());
    assert_consistent(&db, "after transaction resubmit");

    fault::disarm_all();
}

/// A panic mid-way through one window of *mixed-shape* submissions —
/// one queue shaped [1, 3, 1, 1, 1, 4, 1] whose fifth step panics: the
/// four commits sealed before it survive exactly — recovery rebuilds
/// them by replaying their PULs onto the window's image, in the shapes
/// they had — the rest of the window fails, and the database equals the
/// synchronous replay of the sealed submissions through `apply` /
/// `transaction()`.
#[test]
fn panic_in_mixed_shape_window_preserves_the_sealed_mixed_window() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = build_db();
    let h = db.view("acb").expect("view");
    // Explicitly unbounded: the sealed commits fan out before this
    // thread drains (the CI async matrix defaults to capacity 1).
    let feed = db.subscribe_with(h, None, SlowConsumerPolicy::Block);

    // SEAL_DELAY holds the service before it drains its queue, so the
    // seven submissions are one window. Every step reaches `finish`
    // once per view: the fifth step's first reach is the ninth.
    fault::arm_at(fault::FINISH_PANIC, 4 * VIEWS.len() as u32 + 1);
    fault::arm(fault::SEAL_DELAY);
    let mut next = 0;
    let submissions: Vec<(Vec<String>, Ticket)> = [1, 3, 1, 1, 1, 4, 1]
        .into_iter()
        .map(|n| {
            let stmts: Vec<String> = (next..next + n).map(stmt).collect();
            next += n;
            let ticket = db.apply_async(stmts.iter().map(String::as_str)).expect("submit");
            (stmts, ticket)
        })
        .collect();
    assert!(matches!(db.flush(), Err(Error::Panic(_))));

    let (sealed, failed) = submissions.split_at(4);
    for (k, (stmts, ticket)) in sealed.iter().enumerate() {
        let commit = ticket.wait().expect("the steps before the panic sealed");
        assert_eq!(commit.seq, k as u64 + 1);
        assert_eq!(commit.seq, ticket.seq, "Commit::seq is exactly Ticket::seq");
        assert_eq!(commit.statements, stmts.len());
    }
    match failed[0].1.wait() {
        Err(Error::Panic(msg)) => {
            assert!(msg.contains("injected fault: panic in finish"), "panic message: {msg}")
        }
        other => panic!("the fifth submission should carry the injected panic, got {other:?}"),
    }
    for (_, ticket) in &failed[1..] {
        assert!(matches!(ticket.wait(), Err(Error::Aborted)), "queued-behind tickets abort");
    }

    // The synchronous replay of exactly the first four submissions,
    // each in its own shape.
    let mut replay = build_db();
    for (stmts, _) in sealed {
        match stmts.as_slice() {
            [s] => replay.apply(s.as_str()).expect("replay statement"),
            many => many
                .iter()
                .fold(replay.transaction(), |tx, s| tx.statement(s.as_str()))
                .commit()
                .expect("replay transaction"),
        };
    }
    assert_eq!(db.last_seq(), 4);
    assert_eq!(db.last_seq(), replay.last_seq());
    assert_eq!(db.serialize(), replay.serialize());
    for (name, _) in VIEWS {
        let (h, rh) = (db.view(name).expect("view"), replay.view(name).expect("view"));
        assert!(db.store(h).same_content_as(replay.store(rh)), "view {name} differs from replay");
    }
    assert_consistent(&db, "after mixed-window panic");
    assert_eq!(drained_seqs(&feed), vec![1, 2, 3, 4]);

    fault::disarm_all();
}

/// The sequential transaction of `tests/property.rs` case 1548 seals as
/// step 1 of a window, and step 2 panics. The transaction's third
/// statement is spliced into the first one's forest in front of the
/// `c` the second deletes, so its `del` addresses `c` by label ids the
/// planning copy numbered; the live document adopted that interner
/// before the apply. Recovery replays the sealed PUL onto the window's
/// image, and must do so under the same interner: a replay left to
/// intern the forest's labels itself numbers them the other way round,
/// drops the `del` as a stale ID and brings back the `<c/>` commit 1
/// deleted and published as deleted.
#[test]
fn a_mid_window_panic_replays_a_spliced_delete_under_the_live_labels() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let tx = ["insert <a><b/><c/></a> into //b", "delete //a//c", "insert <d>5</d> into //b"];
    let build = || {
        Database::builder()
            .document("<r><b/></r>")
            .view("ab", "//a{id}//b{id}")
            .view("ac", "//a{id}//c{id}")
            .build()
            .expect("fixture database")
    };
    let mut db = build();
    // One window (SEAL_DELAY holds the drain): the transaction, then a
    // statement whose `finish` panics at the step's first view.
    fault::arm_at(fault::FINISH_PANIC, 3);
    fault::arm(fault::SEAL_DELAY);
    let sealed = db.apply_async(tx).expect("submit transaction");
    let failing = db.apply_async(["insert <e/> into /r"]).expect("submit");
    assert!(matches!(db.flush(), Err(Error::Panic(_))));
    assert_eq!(sealed.wait().expect("step 1 sealed").seq, 1);
    assert!(matches!(failing.wait(), Err(Error::Panic(_))));

    let mut replay = build();
    tx.iter().fold(replay.transaction(), |t, s| t.statement(*s)).commit().expect("replay");
    assert_eq!(replay.serialize(), "<r><b><a><b><d>5</d></b></a><d>5</d></b></r>");
    assert_eq!(db.last_seq(), 1);
    assert_eq!(db.serialize(), replay.serialize(), "the deleted <c/> stays deleted");
    db.document().check_invariants().expect("document invariants");
    for name in ["ab", "ac"] {
        let (h, rh) = (db.view(name).expect("view"), replay.view(name).expect("view"));
        assert!(db.store(h).identical_to(replay.store(rh)), "view {name} differs from replay");
    }

    fault::disarm_all();
}

/// A panicking window drains cleanly even while a capacity-1 `Block`
/// subscription is being drained from another thread: the service
/// never wedges, and the consumer sees exactly the sealed commits with
/// no gaps.
#[test]
fn blocked_consumer_survives_panicking_window() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = build_db();
    let h = db.view("acb").expect("view");
    let feed = db.subscribe_with(h, Some(1), SlowConsumerPolicy::Block);

    // Five commits will seal in total; the consumer drains the
    // capacity-1 queue until it has seen them all.
    let consumer = std::thread::spawn(move || {
        let mut seqs = Vec::new();
        while seqs.len() < 5 {
            for ev in feed.drain() {
                match ev {
                    FeedEvent::Delta(d) => seqs.push(d.seq),
                    FeedEvent::Lagged(lag) => {
                        panic!("Block policy never lags (missed {:?})", lag.missed_range)
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        seqs
    });

    let mut sealed: Vec<String> = Vec::new();
    for i in 0..3 {
        let t = db.apply_async([stmt(i)]).expect("submit");
        sealed.push(stmt(i));
        // flush() waits for the seal, which itself waits on the full
        // queue — progress proves the consumer thread releases the
        // backpressure stall while the service is mid-seal.
        db.flush().expect("clean commit");
        assert_eq!(t.wait().expect("sealed").seq, (i + 1) as u64);
    }

    fault::arm(fault::FINISH_PANIC);
    let failing = db.apply_async([stmt(3)]).expect("submit failing");
    assert!(matches!(failing.wait(), Err(Error::Panic(_))));
    assert!(matches!(db.flush(), Err(Error::Panic(_))));

    for i in 4..6 {
        let t = db.apply_async([stmt(i)]).expect("submit after failure");
        sealed.push(stmt(i));
        assert!(t.wait().is_ok());
    }
    db.flush().expect("clean tail");

    let seen = consumer.join().expect("consumer thread");
    assert_eq!(seen, vec![1, 2, 3, 4, 5], "gapless despite the failed commit in between");
    assert_equals_replay(&db, &sealed, "after blocked-consumer run");
    assert_consistent(&db, "after blocked-consumer run");

    fault::disarm_all();
}

/// `commit_barrier(seq)` returns once commit `seq` seals, not when its
/// window ends: the window's second commit blocks on a full `Block`
/// queue nobody drains for 2 s, and a barrier on its first commit must
/// not wait for that.
#[test]
fn commit_barrier_returns_when_its_commit_seals_not_when_its_window_ends() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = build_db();
    let h = db.view("acb").expect("view");
    // Nothing drains before the helper wakes: commits 1 and 2 fill the
    // queue, commit 3 blocks.
    let feed = db.subscribe_with(h, Some(2), SlowConsumerPolicy::Block);

    // SEAL_DELAY holds the service 40ms before it drains its queue, so
    // the four submissions made 10ms after the first join it: one
    // window, commits 1–5. (However the queue splits, commits 1 and 2
    // never block, so the barrier below is timing-independent.)
    fault::arm(fault::SEAL_DELAY);
    let first = db.apply_async([stmt(0)]).expect("submit");
    std::thread::sleep(Duration::from_millis(10));
    let window: Vec<Ticket> = (1..5).map(|i| db.apply_async([stmt(i)]).expect("submit")).collect();
    assert_eq!(window[0].seq, 2);

    let consumer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(2));
        let mut seqs = Vec::new();
        while seqs.len() < 5 {
            seqs.extend(drained_seqs(&feed));
            std::thread::sleep(Duration::from_millis(1));
        }
        seqs
    });

    let start = Instant::now();
    assert!(db.commit_barrier(2) >= 2, "commit 2 sealed");
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "the barrier waited {waited:?} for commit 3's fan-out"
    );

    db.flush().expect("the window seals once the helper drains");
    assert_eq!(first.wait().expect("sealed").seq, 1);
    for (k, ticket) in window.iter().enumerate() {
        assert_eq!(ticket.wait().expect("sealed").seq, k as u64 + 2);
    }
    assert_eq!(consumer.join().expect("helper thread"), vec![1, 2, 3, 4, 5]);

    fault::disarm_all();
}

/// `SEAL_DELAY` separates submission latency from seal latency:
/// `apply_async` returns while the service still sleeps, and the
/// ticket only resolves once the delayed seal completes.
#[test]
fn submission_returns_before_delayed_seal() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = build_db();
    fault::arm(fault::SEAL_DELAY);

    let start = Instant::now();
    let ticket = db.apply_async([stmt(0)]).expect("submit");
    let submitted = start.elapsed();
    assert!(
        ticket.try_result().is_none() || submitted >= Duration::from_millis(fault::SEAL_DELAY_MS)
    );

    let commit = ticket.wait().expect("delayed seal completes");
    let sealed = start.elapsed();
    assert_eq!(commit.seq, 1);
    assert!(
        sealed >= Duration::from_millis(fault::SEAL_DELAY_MS),
        "seal paid the injected delay ({sealed:?})"
    );
    assert!(
        submitted < Duration::from_millis(fault::SEAL_DELAY_MS),
        "apply_async returned before the seal ({submitted:?})"
    );
    assert_consistent(&db, "after delayed seal");

    fault::disarm_all();
}

/// The unrecoverable case: the window panics in `finish` and then the
/// recovery that should roll it back panics too. There is no
/// consistent core left, so the service is *poisoned* — and the whole
/// point is that every call then fails loudly instead of waiting for
/// a service thread that will never go idle. The scenario runs on a
/// helper thread and the test waits for it with a timeout, so a
/// regression shows up as a failure, not as a hung CI job.
#[test]
fn panic_in_recovery_poisons_the_service_instead_of_hanging() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let (report, observed) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let mut db = build_db();
        db.apply(stmt(0).as_str()).expect("base commit");

        // SEAL_DELAY holds the service before it drains its queue, so
        // all three submissions are accepted before the service dies.
        fault::arm(fault::FINISH_PANIC | fault::RECOVER_PANIC | fault::SEAL_DELAY);
        let tickets: Vec<Ticket> =
            (1..4).map(|i| db.apply_async([stmt(i)]).expect("submit")).collect();
        let results: Vec<Result<Commit, Error>> = tickets.iter().map(Ticket::wait).collect();
        let flushes = [db.flush(), db.flush()];
        let later = db.apply_async([stmt(4)]).map(|t| t.seq);
        let sync = catch_unwind(AssertUnwindSafe(|| db.last_seq()))
            .map_err(|payload| payload.downcast_ref::<String>().cloned().unwrap_or_default());
        // Dropping a poisoned database still joins the service thread.
        drop(db);
        report.send((results, flushes, later, sync)).expect("test still listening");
    });
    let (results, flushes, later, sync) = observed
        .recv_timeout(Duration::from_secs(30))
        .expect("a dead service must fail loudly, not hang");
    scenario.join().expect("scenario thread");

    let msg = match &results[0] {
        Err(Error::Panic(msg)) => msg.clone(),
        other => panic!("the failing ticket should carry the panic, got {other:?}"),
    };
    assert!(msg.contains("injected fault: panic in recover"), "panic message: {msg}");
    for behind in &results[1..] {
        assert!(matches!(behind, Err(Error::Aborted)), "queued-behind tickets abort: {behind:?}");
    }
    // Poisoned is sticky: unlike a recovered failure, it is reported
    // on every flush and refuses every later submission.
    for flushed in flushes {
        assert_eq!(flushed, Err(Error::Panic(msg.clone())));
    }
    assert_eq!(later, Err(Error::Panic(msg.clone())));
    let poisoned = sync.expect_err("a synchronous access to a poisoned database panics");
    assert!(poisoned.contains(&msg), "the access panics with the original message: {poisoned}");

    fault::disarm_all();
}

/// `service::recover` drops the pending deferred batches (the
/// recomputed stores absorbed them), so the commits after a recovered
/// panic — through the service and through `apply` alike, an empty one
/// among them — must seed a new batch with a pre-image of their own:
/// refreshed, the deferred view equals its immediate twin.
#[test]
fn commits_after_a_recovered_panic_seed_a_new_deferred_batch() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = Database::builder()
        .document(DOC)
        .view_deferred(VIEWS[0].0, VIEWS[0].1)
        .view(VIEWS[1].0, VIEWS[1].1)
        .build()
        .expect("fixture database");
    let acb = db.view("acb").expect("view");
    db.apply(stmt(0).as_str()).expect("base commit");
    assert_eq!(db.deferred_commits(acb), 1);

    fault::arm(fault::PREPARE_PANIC);
    let failing = db.apply_async([stmt(1)]).expect("submit failing");
    assert!(matches!(failing.wait(), Err(Error::Panic(_))));
    assert!(matches!(db.flush(), Err(Error::Panic(_))));
    assert_eq!(db.deferred_commits(acb), 0, "recovery absorbed the batch");
    assert_consistent(&db, "after recovery");

    let nothing = "delete //zzz".to_owned();
    let after = [nothing, stmt(2), stmt(3)];
    let tickets: Vec<Ticket> =
        after[..2].iter().map(|s| db.apply_async([s.as_str()]).expect("submit")).collect();
    db.flush().expect("clean tail");
    assert!(tickets.iter().all(|t| t.wait().is_ok()));
    db.apply(after[2].as_str()).expect("synchronous commit");
    assert_eq!(db.deferred_commits(acb), 2, "the empty commit folds nothing");

    db.refresh(acb).expect("refresh").expect("a batch was pending");
    db.document().check_invariants().expect("document invariants");
    assert_consistent(&db, "after the refresh");
    let mut replay = build_db();
    for s in [stmt(0)].iter().chain(&after) {
        replay.apply(s.as_str()).expect("replay statement");
    }
    assert_eq!(db.last_seq(), replay.last_seq() + 1, "the sealed commits and the refresh");
    assert_eq!(db.serialize(), replay.serialize());
    for (name, _) in VIEWS {
        let (h, rh) = (db.view(name).expect("view"), replay.view(name).expect("view"));
        assert!(db.store(h).same_content_as(replay.store(rh)), "view {name} vs replay");
    }

    fault::disarm_all();
}

/// Recovery tells the feeds of a deferred view which commits they can
/// no longer rebuild (a `Lagged` marker: the recomputed store absorbed
/// the batch without a refresh commit), so a circuit over that view
/// re-seeds from a snapshot on its next sync. Every node then equals its
/// recomputation, and the commits after it fold in as usual.
#[test]
fn a_circuit_over_a_deferred_view_reseeds_after_a_recovered_panic() {
    let _guard = fault::exclusive();
    fault::disarm_all();

    let mut db = Database::builder()
        .document(DOC)
        .view_deferred(VIEWS[0].0, VIEWS[0].1)
        .view(VIEWS[1].0, VIEWS[1].1)
        .build()
        .expect("fixture database");
    let acb = db.view("acb").expect("view");
    let witness = db.subscribe_with(acb, None, SlowConsumerPolicy::DropAndMark);
    let mut b = db.circuit();
    let deferred = b.source(VIEWS[0].0).expect("deferred source");
    let immediate = b.source(VIEWS[1].0).expect("immediate source");
    let per_root = b.count(deferred, |r| r.project(&[0]));
    b.join(per_root, immediate, |r| r.project(&[0]), |r| r.project(&[0]));
    let mut circuit = b.build();
    let check = |circuit: &Circuit, db: &Database, context: &str| {
        let oracle = circuit.recompute(db);
        for node in circuit.nodes() {
            assert!(
                circuit.store(node).same_content_as(&oracle[node.index()]),
                "{context}: node n{} ({}) diverged:\n{}",
                node.index(),
                circuit.label(node),
                circuit.store(node).diff_description(&oracle[node.index()])
            );
        }
    };

    db.apply(stmt(0).as_str()).expect("base commit");
    fault::arm(fault::PREPARE_PANIC);
    let failing = db.apply_async([stmt(1)]).expect("submit failing");
    assert!(matches!(failing.wait(), Err(Error::Panic(_))));
    assert!(matches!(db.flush(), Err(Error::Panic(_))));
    fault::disarm_all();
    let lagged = witness.drain().into_iter().any(|ev| matches!(ev, FeedEvent::Lagged(_)));
    assert!(lagged, "recovery marks the deferred view's feeds");

    assert_eq!(circuit.sync(&mut db), db.last_seq());
    check(&circuit, &db, "after the reseed");
    db.apply(stmt(2).as_str()).expect("commit after recovery");
    db.refresh(acb).expect("refresh").expect("a batch was pending");
    assert_eq!(circuit.sync(&mut db), db.last_seq());
    check(&circuit, &db, "after the refresh");
    circuit.detach(&mut db);
}
