//! The paper's binary database format (SQB) in action.
//!
//! §IV: FASTA files cannot be read at arbitrary positions, so SWDUAL
//! introduces a binary format with an index. This example writes a
//! synthetic database as FASTA, converts it to SQB (version 3: records
//! in length order, residues stored as the inter-sequence kernel's
//! 32-lane blocks), and demonstrates both readers: the checked image a
//! search scores in place, and random access on disk — one record
//! without touching the rest, with sizes known before allocation.
//!
//! Run with: `cargo run --release --example format_convert`

use swdual_repro::bio::{fasta, sqb, Alphabet};
use swdual_repro::datagen::{synthetic_database, LengthModel};

fn main() {
    let dir = std::env::temp_dir().join("swdual_format_demo");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let fasta_path = dir.join("db.fasta");
    let sqb_path = dir.join("db.sqb");

    // Generate and write as FASTA.
    let database = synthetic_database("demo", 1000, LengthModel::protein_database(360.0), 42);
    fasta::write_file(&database, &fasta_path).expect("write FASTA");
    let fasta_bytes = std::fs::metadata(&fasta_path).unwrap().len();

    // Convert to SQB ("Convert format" in the paper's Figure 6).
    sqb::write_file(&database, &sqb_path).expect("write SQB");
    let sqb_bytes = std::fs::metadata(&sqb_path).unwrap().len();

    println!(
        "wrote {} sequences: FASTA {} bytes, SQB {} bytes",
        database.len(),
        fasta_bytes,
        sqb_bytes
    );

    // The whole database as the search holds it: one read, one check,
    // nothing decoded. Sizes come from the header and the index; the
    // residues lie in blocks of 128 records of the length order, each
    // the 32-lane stream the kernel scores where it lies.
    let image = sqb::SqbImage::open(&sqb_path).expect("open SQB image");
    let header = image.header();
    println!(
        "SQB header: {} sequences, {} residues, alphabet {:?}",
        header.n_sequences, header.total_residues, header.alphabet
    );
    println!(
        "layout: {} blocks of up to 128 records on 32 lanes, {} columns, padding {:.2} % of residues",
        header.n_blocks(),
        header.columns,
        100.0 * header.padding()
    );
    let longest = image.placements().next().expect("a record");
    println!(
        "longest record: {} residues, originally record {}",
        longest.len, longest.original
    );
    let view = image.get(742).expect("record 742 exists");
    println!(
        "record 742: id {:?}, {} residues, gathered from its lane",
        view.id(),
        view.len()
    );

    // Random access on disk: jump straight to record 742 without
    // reading the rest. "The memory allocation process is simplified due
    // to the fact that all the sequences sizes are known beforehand":
    let mut file = sqb::SqbFile::open(&sqb_path).expect("open SQB");
    let len_before_read = file.residue_len(742).expect("record 742 exists");
    let record = file.read_sequence(742).expect("read record 742");
    println!(
        "record 742 from disk: {} residues (index said {} before reading)",
        record.len(),
        len_before_read
    );
    assert_eq!(record.len() as u32, len_before_read);
    assert_eq!(record.codes(), view.residues());
    println!(
        "first 60 residues: {}",
        &record.text()[..record.len().min(60)]
    );

    // Round-trip sanity: FASTA -> parse -> equals original.
    let back = fasta::read_file(&fasta_path, Alphabet::Protein, fasta::ResiduePolicy::Strict)
        .expect("re-read FASTA");
    assert_eq!(back, database);
    println!("FASTA round-trip verified ({} records)", back.len());

    std::fs::remove_file(&fasta_path).ok();
    std::fs::remove_file(&sqb_path).ok();
}
