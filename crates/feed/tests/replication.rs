//! End-to-end replication over localhost sockets: byte-identity
//! after every commit, resume-after-disconnect through both the
//! retained window and the snapshot fallback, lag recovery, and
//! deferred-view refresh events folding atomically on the replica.

use xivm_core::database::{Database, MaintenanceMode};
use xivm_core::snapshot::encode_store;
use xivm_core::SlowConsumerPolicy;
use xivm_feed::{FeedError, FeedServer, ReplicaClient};

const DOC: &str = "<a><c><b/><b/></c><f><c><b/></c><b/></f></a>";

fn db() -> Database {
    Database::builder()
        .document(DOC)
        .view("ab", "//a{id}//b{id}")
        .view("acb", "//a{id}[//c{id}]//b{id}")
        .build()
        .unwrap()
}

/// A little script of statements that grows and shrinks both views.
fn script(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => "insert <b/> into /a/c".to_owned(),
            1 => "insert <c><b/></c> into /a/f".to_owned(),
            2 => "delete /a/f/c/b".to_owned(),
            _ => "insert <b>x</b> into /a".to_owned(),
        })
        .collect()
}

#[test]
fn replica_is_byte_identical_after_every_commit() {
    let mut db = db();
    let ab = db.view("ab").unwrap();
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, ab, 64).unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "ab").unwrap();

    for stmt in script(12) {
        db.apply(stmt.as_str()).unwrap();
        server.pump(&db);
        replica.sync_to(db.last_seq()).unwrap();
        assert!(replica.identical_to(db.store(ab)), "replica diverged at seq {}", db.last_seq());
        assert_eq!(replica.seq(), db.last_seq());
    }
    server.close(&mut db);
}

#[test]
fn multiple_replicas_converge() {
    let mut db = db();
    let acb = db.view("acb").unwrap();
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, acb, 64).unwrap();
    let mut replicas: Vec<ReplicaClient> =
        (0..3).map(|_| ReplicaClient::connect(server.local_addr(), "acb").unwrap()).collect();

    for stmt in script(8) {
        db.apply(stmt.as_str()).unwrap();
    }
    server.pump(&db);
    for replica in &mut replicas {
        replica.sync_to(db.last_seq()).unwrap();
        assert!(replica.identical_to(db.store(acb)));
    }
}

#[test]
fn kill_and_resume_through_retained_window() {
    let mut db = db();
    let ab = db.view("ab").unwrap();
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, ab, 1024).unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "ab").unwrap();

    db.apply("insert <b/> into /a/c").unwrap();
    server.pump(&db);
    replica.sync_to(db.last_seq()).unwrap();

    // Crash mid-stream: the next commits are broadcast into a dead
    // socket; the server prunes the connection on write failure.
    replica.kill();
    for stmt in script(6) {
        db.apply(stmt.as_str()).unwrap();
        server.pump(&db);
    }
    assert!(replica.sync_to(db.last_seq()).is_err(), "severed socket must error, not hang");

    // Resume with the high-water mark: the gap (6 events) is inside
    // the retained window, so catch-up is replay, not a snapshot.
    replica.reconnect().unwrap();
    replica.sync_to(db.last_seq()).unwrap();
    assert!(replica.identical_to(db.store(ab)));
}

#[test]
fn resume_falls_back_to_snapshot_when_window_is_outrun() {
    let mut db = db();
    let ab = db.view("ab").unwrap();
    // Retain only 2 events: a replica 8 behind cannot be replayed.
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, ab, 2).unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "ab").unwrap();
    replica.sync_to(0).unwrap();
    replica.kill();

    for stmt in script(8) {
        db.apply(stmt.as_str()).unwrap();
        server.pump(&db);
    }
    replica.reconnect().unwrap();
    replica.sync_to(db.last_seq()).unwrap();
    assert!(replica.identical_to(db.store(ab)));
    assert_eq!(replica.seq(), db.last_seq());
}

#[test]
fn cold_resume_reconstructs_from_persisted_state() {
    let mut db = db();
    let ab = db.view("ab").unwrap();
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, ab, 64).unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "ab").unwrap();
    db.apply("insert <b/> into /a/c").unwrap();
    server.pump(&db);
    replica.sync_to(db.last_seq()).unwrap();

    // "Persist" the replica, lose the process, come back later.
    let persisted_store = replica.store().unwrap().clone();
    let persisted_seq = replica.seq();
    drop(replica);
    for stmt in script(4) {
        db.apply(stmt.as_str()).unwrap();
        server.pump(&db);
    }

    let mut revived =
        ReplicaClient::resume(server.local_addr(), "ab", persisted_store, persisted_seq).unwrap();
    revived.sync_to(db.last_seq()).unwrap();
    assert!(revived.identical_to(db.store(ab)));
}

#[test]
fn unknown_view_is_denied() {
    let mut db = db();
    let ab = db.view("ab").unwrap();
    let server = FeedServer::bind("127.0.0.1:0", &mut db, ab, 64).unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "nope").unwrap();
    match replica.sync_to(0) {
        Err(FeedError::Denied(reason)) => assert!(reason.contains("nope"), "{reason}"),
        other => panic!("expected deny, got {other:?}"),
    }
}

#[test]
fn lagged_server_subscription_recovers_replicas_via_snapshot() {
    let mut db = db();
    let ab = db.view("ab").unwrap();
    // The server's own subscription holds 1 event and drops with a
    // marker: pumping after several commits guarantees a lag.
    let mut server = FeedServer::bind_with(
        "127.0.0.1:0",
        &mut db,
        ab,
        64,
        Some(1),
        SlowConsumerPolicy::DropAndMark,
    )
    .unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "ab").unwrap();
    replica.sync_to(0).unwrap();

    for stmt in script(6) {
        db.apply(stmt.as_str()).unwrap();
    }
    server.pump(&db);
    replica.sync_to(db.last_seq()).unwrap();
    assert!(replica.identical_to(db.store(ab)), "lag recovery must converge");
    assert!(replica.reconnects() > 0, "recovery goes through a reconnect");
}

#[test]
fn deferred_view_replicates_through_coalesced_refresh_events() {
    let mut db = Database::builder()
        .document(DOC)
        .view("ab", "//a{id}//b{id}")
        .view_deferred("acb", "//a{id}[//c{id}]//b{id}")
        .build()
        .unwrap();
    let acb = db.view("acb").unwrap();
    assert_eq!(db.maintenance(acb), MaintenanceMode::Deferred);
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, acb, 64).unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "acb").unwrap();

    // Deferred commits leave the store (and thus the replica)
    // untouched; their events carry empty deltas.
    for stmt in script(5) {
        db.apply(stmt.as_str()).unwrap();
        server.pump(&db);
        replica.sync_to(db.last_seq()).unwrap();
        assert!(replica.identical_to(db.store(acb)), "deferred: store must not move");
    }

    // The refresh seals its own commit; its single event folds the
    // whole batch and the replica lands byte-identical.
    let refresh = db.refresh(acb).unwrap().expect("batch pending");
    assert_eq!(refresh.seq, db.last_seq());
    server.pump(&db);
    replica.sync_to(db.last_seq()).unwrap();
    assert!(replica.identical_to(db.store(acb)));

    // And the refreshed store equals an immediate-mode database's.
    let mut immediate = db2_immediate();
    for stmt in script(5) {
        immediate.apply(stmt.as_str()).unwrap();
    }
    let acb2 = immediate.view("acb").unwrap();
    assert_eq!(encode_store(db.store(acb)), encode_store(immediate.store(acb2)));
}

fn db2_immediate() -> Database {
    Database::builder()
        .document(DOC)
        .view("ab", "//a{id}//b{id}")
        .view("acb", "//a{id}[//c{id}]//b{id}")
        .build()
        .unwrap()
}

#[test]
fn async_commits_replicate_identically() {
    let mut db = Database::builder()
        .document(DOC)
        .view("ab", "//a{id}//b{id}")
        .view("acb", "//a{id}[//c{id}]//b{id}")
        .pipeline(4)
        .build()
        .unwrap();
    let ab = db.view("ab").unwrap();
    let mut server = FeedServer::bind("127.0.0.1:0", &mut db, ab, 256).unwrap();
    let mut replica = ReplicaClient::connect(server.local_addr(), "ab").unwrap();

    for stmt in script(10) {
        db.apply_async([stmt.as_str()]).unwrap();
    }
    db.flush().unwrap();
    server.pump(&db);
    replica.sync_to(db.last_seq()).unwrap();
    assert!(replica.identical_to(db.store(ab)));
}
