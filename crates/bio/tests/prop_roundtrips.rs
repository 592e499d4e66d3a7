//! Property-based tests for the sequence substrate: encoding, FASTA and
//! SQB round-trips must be lossless for arbitrary inputs.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swdual_bio::alphabet::Alphabet;
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{fasta, sqb, Matrix, SqbImage};

/// Strategy: residue text over a given alphabet (canonical letters only).
fn residue_text(alphabet: Alphabet, max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    let residues: Vec<u8> = alphabet.residues().to_vec();
    prop::collection::vec(prop::sample::select(residues), 0..max_len)
}

/// Strategy: a plausible FASTA identifier (no whitespace, nonempty).
fn identifier() -> impl Strategy<Value = String> {
    prop::string::string_regex("[A-Za-z0-9_.|-]{1,20}").unwrap()
}

/// Strategy: a sequence set over the protein alphabet.
fn protein_set(max_seqs: usize, max_len: usize) -> impl Strategy<Value = SequenceSet> {
    prop::collection::vec(
        (identifier(), residue_text(Alphabet::Protein, max_len)),
        0..max_seqs,
    )
    .prop_map(|records| {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, (id, text)) in records.into_iter().enumerate() {
            let seq = Sequence::from_text(format!("{id}_{i}"), Alphabet::Protein, &text).unwrap();
            set.push(seq).unwrap();
        }
        set
    })
}

/// What both readers promise of any input: a typed error, or views that
/// stay inside the image and add up to the header's totals — and the
/// owned decode agrees with the borrowed one record for record.
fn check_reader(bytes: &[u8]) -> Result<(), TestCaseError> {
    let owned = sqb::decode(bytes);
    let Ok(image) = SqbImage::from_bytes(bytes.to_vec()) else {
        // The streaming decode checks names per record, the image per
        // block; neither accepts what the other refuses.
        prop_assert!(owned.is_err());
        return Ok(());
    };
    let header = image.header();
    prop_assert_eq!(header.file_len, bytes.len() as u64);
    prop_assert_eq!(image.records().len() as u64, header.n_sequences);
    let inside = image.as_bytes().as_ptr_range();
    let (mut residues, mut names) = (0u64, 0u64);
    for record in image.records() {
        for part in [record.id().as_bytes(), record.description().as_bytes()] {
            let part = part.as_ptr_range();
            prop_assert!(inside.start <= part.start && part.end <= inside.end);
        }
        let codes = record.residues();
        prop_assert_eq!(codes.len(), record.len());
        prop_assert!(codes.iter().all(|&c| (c as usize) < header.alphabet.size()));
        residues += record.len() as u64;
        names += (record.id().len() + record.description().len()) as u64;
    }
    prop_assert_eq!(residues, header.total_residues);
    prop_assert_eq!(names, header.names_len);
    prop_assert!(
        owned.is_ok(),
        "the image opened, the decode failed: {:?}",
        owned.err()
    );
    let owned = owned.unwrap();
    prop_assert_eq!(owned.len(), image.len());
    for (seq, record) in owned.iter().zip(image.records()) {
        prop_assert_eq!(seq.id.as_str(), record.id());
        prop_assert_eq!(seq.description.as_str(), record.description());
        prop_assert_eq!(seq.codes(), record.residues());
    }
    Ok(())
}

/// Strategy: a protein set whose lengths tie often and run from empty
/// to a few hundred, of `0..max_seqs` records — past one block of 128.
fn tied_set(max_seqs: usize) -> impl Strategy<Value = SequenceSet> {
    let length = (0u8..4, 0usize..300).prop_map(|(kind, n)| match kind {
        0 => 0,
        1 => n % 4,
        2 => 17,
        _ => n,
    });
    prop::collection::vec(length, 0..max_seqs).prop_map(|lengths| {
        let records = lengths.iter().enumerate().map(|(i, &n)| {
            let codes = (0..n).map(|k| ((i * 3 + k) % 24) as u8).collect();
            Sequence::from_codes(format!("r{i}"), Alphabet::Protein, codes)
        });
        SequenceSet::from_sequences(Alphabet::Protein, records.collect()).unwrap()
    })
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(text in residue_text(Alphabet::Protein, 400)) {
        // Exclude '*' ambiguity: '*' is canonical so roundtrip holds anyway.
        let codes = Alphabet::Protein.encode(&text).unwrap();
        let decoded = Alphabet::Protein.decode(&codes);
        prop_assert_eq!(decoded.as_bytes(), &text[..]);
    }

    #[test]
    fn lossy_encode_never_fails_and_stays_in_range(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        for alphabet in [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein] {
            let codes = alphabet.encode_lossy(&bytes);
            prop_assert_eq!(codes.len(), bytes.len());
            prop_assert!(codes.iter().all(|&c| (c as usize) < alphabet.size()));
        }
    }

    #[test]
    fn sqb_roundtrip(set in protein_set(12, 300)) {
        let bytes = sqb::encode(&set).unwrap();
        let back = sqb::decode(&bytes).unwrap();
        prop_assert_eq!(back, set);
    }

    #[test]
    fn sqb_image_roundtrips_every_set(set in protein_set(12, 300)) {
        // Includes the empty set and empty sequences: `protein_set`
        // draws both.
        let image = SqbImage::from_bytes(sqb::encode(&set).unwrap()).unwrap();
        prop_assert_eq!(image.len(), set.len());
        prop_assert_eq!(image.total_residues(), set.total_residues());
        prop_assert_eq!(image.alphabet(), set.alphabet);
        for (record, seq) in image.records().zip(&set) {
            prop_assert_eq!(record.id(), seq.id.as_str());
            prop_assert_eq!(record.description(), seq.description.as_str());
            prop_assert_eq!(record.residues(), seq.codes().to_vec());
        }
        prop_assert_eq!(image, SqbImage::from_set(&set).unwrap());
    }

    #[test]
    fn sqb_random_access_agrees_with_full_decode(set in protein_set(12, 300), seed in any::<u64>()) {
        let bytes = sqb::encode(&set).unwrap();
        let mut file = sqb::SqbFile::from_seekable(std::io::Cursor::new(&bytes)).unwrap();
        let image = SqbImage::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(file.len(), set.len());
        prop_assert_eq!(image.len(), set.len());
        if !set.is_empty() {
            let i = (seed % set.len() as u64) as usize;
            let expected = set.get(i).unwrap();
            prop_assert_eq!(&file.read_sequence(i).unwrap(), expected);
            prop_assert_eq!(file.residue_len(i), Some(expected.len() as u32));
            let record = image.get(i).unwrap();
            prop_assert_eq!(record.id(), expected.id.as_str());
            prop_assert_eq!(record.residues(), expected.codes().to_vec());
        }
        prop_assert!(image.get(set.len()).is_none());
    }

    #[test]
    fn sqb_never_panics_on_corrupt_input(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Arbitrary bytes, also behind a valid magic and version: a
        // typed error or a sound image, never a panic.
        check_reader(&bytes)?;
        let mut prefixed = b"SQB1\x03\x00".to_vec();
        prefixed.extend_from_slice(&bytes);
        check_reader(&prefixed)?;
    }

    #[test]
    fn sqb_write_file_then_read_all_gives_the_records_in_the_order_written(
        set in tied_set(300),
    ) {
        // Empty records, length ties, and 0, 1 or more than one block
        // of records.
        let path = std::env::temp_dir().join(format!(
            "swdual_prop_v3_{}_{}.sqb",
            std::process::id(),
            set.len()
        ));
        sqb::write_file(&set, &path).unwrap();
        let back = sqb::SqbFile::open(&path).unwrap().read_all();
        let image = SqbImage::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.unwrap(), set.clone());
        prop_assert_eq!(image.header().n_blocks(), set.len().div_ceil(128) as u64);
        let lengths: Vec<u32> = image.placements().map(|p| p.len).collect();
        prop_assert!(lengths.windows(2).all(|w| w[0] >= w[1]), "length order");
        for (record, seq) in image.records().zip(&set) {
            prop_assert_eq!(record.residues(), seq.codes().to_vec());
        }
    }

    #[test]
    fn sqb_hostile_index_block_table_and_starts_are_typed_errors(
        set in tied_set(200),
        writes in prop::collection::vec((any::<u64>(), any::<u8>()), 1..6),
    ) {
        // Overwrite bytes of the index and block table only: original
        // indices (duplicated, out of range), starts, widths, lengths.
        let valid = sqb::encode(&set).unwrap();
        let header = *SqbImage::from_bytes(valid.clone()).unwrap().header();
        let tail = (header.file_len - header.index_offset) as usize;
        if tail > 0 {
            let mut bytes = valid.clone();
            for (at, value) in writes {
                bytes[header.index_offset as usize + (at % tail as u64) as usize] = value;
            }
            check_reader(&bytes)?;
        }
    }

    #[test]
    fn sqb_truncated_at_any_block_boundary_is_an_error(set in protein_set(6, 60)) {
        let valid = sqb::encode(&set).unwrap();
        let header = *SqbImage::from_bytes(valid.clone()).unwrap().header();
        let boundaries = [
            0,
            sqb::HEADER_LEN as u64,
            header.names_offset,
            header.index_offset,
            header.blocks_offset,
            header.file_len - 1,
        ];
        for cut in boundaries.into_iter().filter(|&cut| cut < header.file_len) {
            for cut in [cut.saturating_sub(1), cut, (cut + 1).min(header.file_len - 1)] {
                let cut = cut as usize;
                prop_assert!(SqbImage::from_bytes(valid[..cut].to_vec()).is_err(), "cut {}", cut);
                prop_assert!(sqb::decode(&valid[..cut]).is_err(), "cut {}", cut);
            }
        }
    }

    #[test]
    fn sqb_single_bit_flips_are_errors_or_sound_images(
        set in protein_set(6, 60),
        flips in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        let valid = sqb::encode(&set).unwrap();
        for flip in flips {
            let mut bytes = valid.clone();
            let bit = flip % (8 * bytes.len() as u64);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            check_reader(&bytes)?;
        }
    }

    #[test]
    fn fasta_roundtrip(set in protein_set(8, 250)) {
        // FASTA cannot represent empty-id records; ids from `identifier()`
        // are always nonempty. Descriptions default to empty.
        let text = fasta::to_string(&set);
        let back = fasta::parse(text.as_bytes(), Alphabet::Protein).unwrap();
        prop_assert_eq!(back.len(), set.len());
        for (a, b) in back.iter().zip(set.iter()) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(&a.residues, &b.residues);
        }
    }

    #[test]
    fn fasta_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = fasta::parse_with_policy(&bytes, Alphabet::Protein, fasta::ResiduePolicy::Lossy);
        let _ = fasta::parse(&bytes, Alphabet::Dna);
    }

    #[test]
    fn ncbi_matrix_parser_never_panics_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        check_ncbi_matrix(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn ncbi_matrix_parser_never_panics_on_hostile_tables(text in hostile_matrix_text()) {
        check_ncbi_matrix(&text)?;
    }
}

/// Matrix-shaped text from hostile pieces: a header of residue letters
/// and letters outside the alphabet (multi-byte ones too), then ragged
/// rows of scores at and past the ends of `i32`, with comment and junk
/// lines among them.
fn hostile_matrix_text() -> impl Strategy<Value = String> {
    let letters = vec!["A", "R", "N", "W", "*", "X", "B", "a", "J", "?", "é"];
    let letter = prop::sample::select(letters.clone());
    let number = prop::sample::select(vec![
        "0",
        "4",
        "-1",
        "+3",
        "2147483647",
        "-2147483648",
        "2147483648",
        "99999999999",
        "1e3",
        "x",
        "∞",
    ]);
    let header = prop::collection::vec(prop::sample::select(letters), 0..26);
    let row = (0u8..8, letter, prop::collection::vec(number, 0..28)).prop_map(
        |(kind, letter, scores)| match kind {
            0 => format!("# {}", scores.join(" ")),
            1 => scores.join(" "),
            _ => format!("{letter} {}", scores.join(" ")),
        },
    );
    (header, prop::collection::vec(row, 0..26))
        .prop_map(|(header, rows)| format!("  {}\n{}", header.join(" "), rows.join("\n")))
}

/// `text` parses to a matrix or to an error, never a panic.
fn check_ncbi_matrix(text: &str) -> Result<(), TestCaseError> {
    let Ok(matrix) = Matrix::parse_ncbi("hostile", text) else {
        return Ok(());
    };
    let _ = (
        matrix.is_symmetric(),
        matrix.max_score(),
        matrix.min_score(),
    );
    Ok(())
}
