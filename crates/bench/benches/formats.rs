//! Database formats: the paper's SQB binary format against FASTA — the
//! §IV design argument, measured in both directions a search uses a
//! database.
//!
//! * **Whole-database load** — what `SearchBuilder::database_sqb` and
//!   `benchmark/`'s `cold_file` pay before the first cell: opening the
//!   checked, borrowed [`SqbImage`] against the streaming owned decode
//!   of the same file ([`SqbFile::read_all`]) against parsing the same
//!   database as FASTA.
//! * **Random access** — 64 records of 2 000: records of an open image
//!   (each residue gathered from its lane of the record's block, since
//!   SQB version 3 stores the kernel's 32-lane streams), owned records
//!   sought in the file, and the full FASTA parse a tool without an
//!   index must make.
//!
//! Outputs of a full run (`cargo bench -p swdual-bench --bench formats`):
//!
//! * `BENCH_formats.json` at the workspace root (or `$SWDUAL_BENCH_DIR`),
//!   stamped with the SQB version it measured.
//! * One `formats` entry appended to the `BENCH_trend.json` ledger
//!   (ns per residue loaded, ns per record picked; lower is better) for
//!   `swdual diff --bench --bench-name formats` to gate on — against the
//!   previous entry, across format versions too.
//!
//! `cargo bench ... -- --test` is the CI smoke mode: every path is
//! checked against the generated set once on a small database, and the
//! timed passes and file writes are skipped.

use std::hint::black_box;
use swdual_bench::ledger::{append_trend, measure, write_report};
use swdual_bio::fasta::{self, ResiduePolicy};
use swdual_bio::sqb::{self, SqbFile};
use swdual_bio::{Alphabet, SqbImage};
use swdual_datagen::{synthetic_database, LengthModel};

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (load_seqs, samples, iters) = if test_mode {
        (200, 1, 1)
    } else {
        (20_000, 11, 5)
    };

    let dir = std::env::temp_dir().join(format!("swdual_formats_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the bench directory");
    let sqb_path = dir.join("db.sqb");
    let fasta_path = dir.join("db.fasta");

    // ---- whole-database load ----
    let db = synthetic_database("fmt", load_seqs, LengthModel::protein_database(360.0), 33);
    sqb::write_file(&db, &sqb_path).expect("write SQB");
    fasta::write_file(&db, &fasta_path).expect("write FASTA");
    let residues = db.total_residues() as f64;
    let file_mb = |path: &std::path::Path| {
        std::fs::metadata(path).expect("bench file exists").len() as f64 / 1e6
    };

    // Correctness first, always (smoke mode is exactly this).
    let image = SqbImage::open(&sqb_path).expect("open image");
    assert_eq!(image.len(), db.len());
    assert!(image
        .records()
        .zip(&db)
        .all(|(r, s)| r.id() == s.id && r.residues() == s.codes()));
    let owned = SqbFile::open(&sqb_path)
        .and_then(|mut f| f.read_all())
        .expect("decode SQB");
    assert_eq!(owned, db);
    let parsed = fasta::read_file(&fasta_path, Alphabet::Protein, ResiduePolicy::Lossy)
        .expect("parse FASTA");
    assert_eq!(parsed.total_residues(), db.total_residues());
    println!("check/formats  ok");
    drop((image, owned, parsed));

    let small = synthetic_database(
        "fmt",
        2000.min(load_seqs),
        LengthModel::protein_database(360.0),
        33,
    );
    let picks: Vec<usize> = (0..64).map(|i| (i * 31) % small.len()).collect();
    let small_sqb = sqb::encode(&small).expect("encode SQB");
    let small_fasta = fasta::to_string(&small);
    let small_image = SqbImage::from_bytes(small_sqb.clone()).expect("open image");
    let expected: usize = picks
        .iter()
        .map(|&i| small.get(i).expect("pick").len())
        .sum();
    let image_views = || -> usize {
        picks
            .iter()
            .map(|&i| {
                let record = small_image.get(i).expect("pick in range");
                black_box(record.id());
                record.residues().len()
            })
            .sum()
    };
    let file_records = || -> usize {
        let mut file = SqbFile::from_seekable(std::io::Cursor::new(&small_sqb)).expect("open SQB");
        picks
            .iter()
            .map(|&i| file.read_sequence(i).expect("pick in range").len())
            .sum()
    };
    let fasta_full_parse = || -> usize {
        // What the paper says tools must do without an index: parse
        // everything to reach specific records.
        let set = fasta::parse(small_fasta.as_bytes(), Alphabet::Protein).expect("parse FASTA");
        picks.iter().map(|&i| set.get(i).expect("pick").len()).sum()
    };
    assert_eq!(image_views(), expected);
    assert_eq!(file_records(), expected);
    assert_eq!(fasta_full_parse(), expected);
    if test_mode {
        std::fs::remove_dir_all(&dir).ok();
        return;
    }

    let image_open_ns = measure(samples, iters, || {
        black_box(SqbImage::open(&sqb_path).expect("open image"));
    });
    let owned_decode_ns = measure(samples, iters, || {
        black_box(
            SqbFile::open(&sqb_path)
                .and_then(|mut f| f.read_all())
                .expect("decode SQB"),
        );
    });
    let fasta_parse_ns = measure(samples, iters, || {
        black_box(
            fasta::read_file(&fasta_path, Alphabet::Protein, ResiduePolicy::Lossy)
                .expect("parse FASTA"),
        );
    });
    let (sqb_mb, fasta_mb) = (file_mb(&sqb_path), file_mb(&fasta_path));
    let mbps = |mb: f64, ns: f64| mb / (ns / 1e9);
    for (name, mb, ns) in [
        ("image_open", sqb_mb, image_open_ns),
        ("sqb_owned_decode", sqb_mb, owned_decode_ns),
        ("fasta_parse", fasta_mb, fasta_parse_ns),
    ] {
        println!(
            "formats/load/{name:<18} {:9.3} ms  {:8.1} MB/s",
            ns / 1e6,
            mbps(mb, ns)
        );
    }

    // ---- random access, 64 of 2000 ----
    let views_ns = measure(samples, 2000, || {
        black_box(image_views());
    });
    let records_ns = measure(samples, 200, || {
        black_box(file_records());
    });
    let full_parse_ns = measure(samples, iters, || {
        black_box(fasta_full_parse());
    });
    let n_picks = picks.len() as f64;
    for (name, ns) in [
        ("image_views", views_ns),
        ("sqb_file_records", records_ns),
        ("fasta_full_parse", full_parse_ns),
    ] {
        println!(
            "formats/random_access/{name:<18} {:10.1} ns per record",
            ns / n_picks
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"formats\",\n  \"sqb_version\": {},\n  \
         \"load\": {{ \"sequences\": {}, \"residues\": {}, \"sqb_mb\": {sqb_mb:.3}, \"fasta_mb\": {fasta_mb:.3},\n    \
         \"image_open_ms\": {:.3}, \"image_open_mbps\": {:.1},\n    \
         \"sqb_owned_decode_ms\": {:.3}, \"sqb_owned_decode_mbps\": {:.1},\n    \
         \"fasta_parse_ms\": {:.3}, \"fasta_parse_mbps\": {:.1} }},\n  \
         \"random_access_64_of_2000\": {{ \"unit\": \"ns_per_record\",\n    \
         \"image_views\": {:.1}, \"sqb_file_records\": {:.1}, \"fasta_full_parse\": {:.1} }}\n}}\n",
        sqb::VERSION,
        db.len(),
        db.total_residues(),
        image_open_ns / 1e6,
        mbps(sqb_mb, image_open_ns),
        owned_decode_ns / 1e6,
        mbps(sqb_mb, owned_decode_ns),
        fasta_parse_ns / 1e6,
        mbps(fasta_mb, fasta_parse_ns),
        views_ns / n_picks,
        records_ns / n_picks,
        full_parse_ns / n_picks,
    );
    write_report("formats", &json);
    append_trend(
        "formats",
        "ns",
        &[
            ("load_image_open_per_residue", image_open_ns / residues),
            (
                "load_sqb_owned_decode_per_residue",
                owned_decode_ns / residues,
            ),
            ("load_fasta_parse_per_residue", fasta_parse_ns / residues),
            ("pick_image_view_per_record", views_ns / n_picks),
            ("pick_sqb_file_per_record", records_ns / n_picks),
            ("pick_fasta_full_parse_per_record", full_parse_ns / n_picks),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}
