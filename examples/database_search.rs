//! Hybrid database search: the SWDUAL pipeline end to end.
//!
//! Generates a synthetic protein database (a scaled-down UniProt),
//! derives homologous queries from it, and runs the master-slave
//! runtime with CPU workers (SWIPE-style inter-sequence kernel) and
//! simulated Tesla C2050 GPU workers, allocated by the
//! dual-approximation scheduler. Prints the ranked hits, the per-worker
//! accounting and the Gantt chart of the static schedule.
//!
//! Run with: `cargo run --release --example database_search`

use swdual_repro::core::prelude::*;
use swdual_repro::datagen::{queries_from_database, scaled_database, MutationProfile};
use swdual_repro::sched::PlatformSpec as Spec;

fn main() {
    // A 0.2% slice of the synthetic UniProt: ~1075 sequences.
    let database = scaled_database("uniprot", 537_505, 362.0, 0.002, 2014);
    let queries = queries_from_database(&database, 4, 100, 5000, &MutationProfile::homolog(), 2015);
    println!(
        "database: {} sequences, {} residues; {} queries",
        database.len(),
        database.total_residues(),
        queries.len()
    );

    let report = SearchBuilder::new()
        .database(database)
        .expect("generated ids fit the database image")
        .queries(queries)
        .hybrid_workers(2, 2) // 2 CPU + 2 simulated GPU workers
        .top_k(5)
        .run();

    println!("\n--- top hits ---");
    print!("{}", report.render_hits(3));

    println!("--- workers ---");
    print!("{}", report.render_workers());

    if let Some(schedule) = report.schedule() {
        println!("--- dual-approximation schedule (Gantt) ---");
        print!("{}", schedule.gantt(&Spec::new(2, 2), 72));
    }

    println!(
        "\nwall clock: {:.2} s ({:.3} GCUPS real on this host)",
        report.wall_seconds(),
        report.wall_gcups()
    );
    println!(
        "modelled (paper-machine) makespan: {:.2} s ({:.2} GCUPS)",
        report.modelled_makespan(),
        report.modelled_gcups()
    );
}
