//! Warehouse scenario: several views over one document, and durable
//! snapshots.
//!
//! Demonstrates the façade over two extensions built on top of the
//! paper's core: many named views maintained in one shared pass per
//! update, and binary view snapshots.
//!
//! ```sh
//! cargo run --release --example warehouse_views
//! ```

use xivm::core::snapshot::{decode_store, encode_store};
use xivm::prelude::*;
use xivm::xmark::{generate_sized, update_by_name, view_pattern};

fn main() -> Result<(), Error> {
    // --- several views, one maintenance pass per update ---------------
    let mut warehouse = Database::builder()
        .document(generate_sized(150 * 1024))
        .view("Q1", view_pattern("Q1"))
        .view("Q2", view_pattern("Q2"))
        .view("Q6", view_pattern("Q6"))
        .view("Q17", view_pattern("Q17"))
        .build()?;
    println!("materialized {} views over one auction document", warehouse.len());

    for u in ["A6_A", "X4_O", "B5_LB"] {
        let commit = warehouse.apply(update_by_name(u).insert_stmt())?;
        let touched: Vec<String> = commit
            .iter()
            .filter(|(_, r)| !r.delta.is_empty())
            .map(|(n, r)| format!("{n}(+{})", r.tuples_added))
            .collect();
        let (_, first) = commit.iter().next().expect("views were maintained");
        println!(
            "  {u:<6} found targets once ({:>7.3} ms), affected: {}",
            first.timings.find_target_nodes.as_secs_f64() * 1e3,
            if touched.is_empty() { "none".to_owned() } else { touched.join(" ") },
        );
    }

    // --- durable snapshots ---------------------------------------------
    let q2 = warehouse.store(warehouse.view("Q2")?);
    let bytes = encode_store(q2);
    let restored = decode_store(&bytes).expect("snapshot decodes");
    assert!(q2.same_content_as(&restored));
    println!(
        "\nsnapshotted Q2: {} tuples in {} bytes ({} bytes/tuple), restored losslessly",
        q2.len(),
        bytes.len(),
        bytes.len() / q2.len().max(1)
    );
    Ok(())
}
