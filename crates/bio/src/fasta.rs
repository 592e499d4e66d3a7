//! Streaming FASTA reader and writer.
//!
//! FASTA (\[17\] in the paper) is a plain-text format: a `>` header line
//! followed by residue lines, records placed one after another. As the
//! paper notes (§IV), this makes it impossible to read a *specific*
//! sequence without scanning the whole file — the motivation for the SQB
//! binary format in [`crate::sqb`]. This module supplies the text side:
//! loading whole files, streaming record-by-record, and writing.

use crate::alphabet::Alphabet;
use crate::error::BioError;
use crate::seq::{Sequence, SequenceSet};
use crate::sqb::SqbImage;
use std::io::{BufRead, Write};

/// How to treat residues outside the target alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResiduePolicy {
    /// Fail with [`BioError::InvalidResidue`].
    #[default]
    Strict,
    /// Replace with the alphabet wildcard (`N`/`X`), like production
    /// search tools do.
    Lossy,
}

/// Streaming FASTA reader over any [`BufRead`], yielding one
/// [`Sequence`] per record without materialising the whole file.
pub struct FastaReader<R: BufRead> {
    input: R,
    alphabet: Alphabet,
    policy: ResiduePolicy,
    /// Header of the record we are about to read (already consumed from
    /// the input), if any.
    pending_header: Option<String>,
    line: String,
    started: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Create a reader producing sequences over `alphabet`.
    pub fn new(input: R, alphabet: Alphabet) -> Self {
        FastaReader {
            input,
            alphabet,
            policy: ResiduePolicy::Strict,
            pending_header: None,
            line: String::new(),
            started: false,
        }
    }

    /// Switch the residue policy (builder style).
    pub fn with_policy(mut self, policy: ResiduePolicy) -> Self {
        self.policy = policy;
        self
    }

    fn parse_header(line: &str) -> (String, String) {
        let body = line.trim_start_matches('>').trim_end();
        match body.split_once(char::is_whitespace) {
            Some((id, desc)) => (id.to_string(), desc.trim().to_string()),
            None => (body.to_string(), String::new()),
        }
    }

    /// Read the next record, or `Ok(None)` at end of input.
    pub fn next_record(&mut self) -> Result<Option<Sequence>, BioError> {
        let header = match self.pending_header.take() {
            Some(h) => h,
            None => {
                // Scan forward to the next header line.
                loop {
                    self.line.clear();
                    if self.input.read_line(&mut self.line)? == 0 {
                        return Ok(None);
                    }
                    let trimmed = self.line.trim_end();
                    if trimmed.is_empty() {
                        continue;
                    }
                    if trimmed.starts_with('>') {
                        self.started = true;
                        break trimmed.to_string();
                    }
                    if trimmed.starts_with(';') {
                        // Old-style FASTA comment line.
                        continue;
                    }
                    if !self.started {
                        return Err(BioError::MalformedFasta(
                            "residue data before first '>' header".into(),
                        ));
                    }
                    unreachable!("residue lines are consumed by the record loop");
                }
            }
        };

        let (id, description) = Self::parse_header(&header);
        let mut text: Vec<u8> = Vec::new();
        loop {
            self.line.clear();
            if self.input.read_line(&mut self.line)? == 0 {
                break;
            }
            let trimmed = self.line.trim_end();
            if trimmed.starts_with('>') {
                self.pending_header = Some(trimmed.to_string());
                break;
            }
            if trimmed.starts_with(';') {
                continue;
            }
            // Residue line; tolerate embedded whitespace.
            text.extend(trimmed.bytes().filter(|b| !b.is_ascii_whitespace()));
        }

        let sequence = match self.policy {
            ResiduePolicy::Strict => {
                let mut s = Sequence::from_text(id, self.alphabet, &text)?;
                s.description = description;
                s
            }
            ResiduePolicy::Lossy => {
                let mut s = Sequence::from_text_lossy(id, self.alphabet, &text);
                s.description = description;
                s
            }
        };
        Ok(Some(sequence))
    }
}

impl<R: BufRead> Iterator for FastaReader<R> {
    type Item = Result<Sequence, BioError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Parse a whole FASTA document from memory into a [`SequenceSet`].
pub fn parse(bytes: &[u8], alphabet: Alphabet) -> Result<SequenceSet, BioError> {
    parse_with_policy(bytes, alphabet, ResiduePolicy::Strict)
}

/// Parse a whole FASTA document with an explicit residue policy.
pub fn parse_with_policy(
    bytes: &[u8],
    alphabet: Alphabet,
    policy: ResiduePolicy,
) -> Result<SequenceSet, BioError> {
    let reader = FastaReader::new(bytes, alphabet).with_policy(policy);
    let mut set = SequenceSet::new(alphabet);
    for record in reader {
        set.push(record?)?;
    }
    Ok(set)
}

/// A streaming reader over a FASTA file on disk.
fn file_reader(
    path: impl AsRef<std::path::Path>,
    alphabet: Alphabet,
    policy: ResiduePolicy,
) -> Result<FastaReader<std::io::BufReader<std::fs::File>>, BioError> {
    let file = std::fs::File::open(path)?;
    Ok(FastaReader::new(std::io::BufReader::new(file), alphabet).with_policy(policy))
}

/// Load a FASTA file from disk.
pub fn read_file(
    path: impl AsRef<std::path::Path>,
    alphabet: Alphabet,
    policy: ResiduePolicy,
) -> Result<SequenceSet, BioError> {
    let mut set = SequenceSet::new(alphabet);
    for record in file_reader(path, alphabet, policy)? {
        set.push(record?)?;
    }
    Ok(set)
}

/// Load a FASTA file from disk as a database image, encoding record by
/// record: the whole set is never held as owned sequences.
pub fn read_image(
    path: impl AsRef<std::path::Path>,
    alphabet: Alphabet,
    policy: ResiduePolicy,
) -> Result<SqbImage, BioError> {
    SqbImage::from_records(alphabet, file_reader(path, alphabet, policy)?)
}

/// Width at which [`write()`] wraps residue lines (the conventional 60).
pub const LINE_WIDTH: usize = 60;

/// Serialise a sequence set as FASTA text.
pub fn write(set: &SequenceSet, out: &mut impl Write) -> Result<(), BioError> {
    for seq in set {
        if seq.description.is_empty() {
            writeln!(out, ">{}", seq.id)?;
        } else {
            writeln!(out, ">{} {}", seq.id, seq.description)?;
        }
        let text = seq.text();
        for chunk in text.as_bytes().chunks(LINE_WIDTH) {
            out.write_all(chunk)?;
            out.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Serialise a sequence set to an in-memory FASTA string.
pub fn to_string(set: &SequenceSet) -> String {
    let mut buf = Vec::new();
    write(set, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("FASTA output is ASCII")
}

/// Write a FASTA file to disk.
pub fn write_file(set: &SequenceSet, path: impl AsRef<std::path::Path>) -> Result<(), BioError> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    write(set, &mut writer)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
>q1 first query
MKVLAT
GGAR
>q2
MK

>q3 trailing
M
";

    #[test]
    fn parses_multiple_records() {
        let set = parse(SAMPLE.as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.get(0).unwrap().id, "q1");
        assert_eq!(set.get(0).unwrap().description, "first query");
        assert_eq!(set.get(0).unwrap().text(), "MKVLATGGAR");
        assert_eq!(set.get(1).unwrap().text(), "MK");
        assert!(set.get(1).unwrap().description.is_empty());
        assert_eq!(set.get(2).unwrap().text(), "M");
    }

    #[test]
    fn multiline_residues_are_joined() {
        let set = parse(b">a\nMKV\nLAT\nGG\n", Alphabet::Protein).unwrap();
        assert_eq!(set.get(0).unwrap().text(), "MKVLATGG");
    }

    #[test]
    fn data_before_header_is_an_error() {
        let err = parse(b"MKVLAT\n>a\nMK\n", Alphabet::Protein).unwrap_err();
        assert!(matches!(err, BioError::MalformedFasta(_)));
    }

    #[test]
    fn comment_lines_are_skipped() {
        let set = parse(b";comment\n>a\n;mid comment\nMKV\n", Alphabet::Protein).unwrap();
        assert_eq!(set.get(0).unwrap().text(), "MKV");
    }

    #[test]
    fn strict_policy_rejects_bad_residue() {
        assert!(parse(b">a\nMK1V\n", Alphabet::Protein).is_err());
    }

    #[test]
    fn lossy_policy_substitutes_wildcard() {
        let set =
            parse_with_policy(b">a\nMK1V\n", Alphabet::Protein, ResiduePolicy::Lossy).unwrap();
        assert_eq!(set.get(0).unwrap().text(), "MKXV");
    }

    #[test]
    fn empty_input_yields_empty_set() {
        let set = parse(b"", Alphabet::Protein).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn empty_record_is_allowed() {
        let set = parse(b">a\n>b\nMK\n", Alphabet::Protein).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.get(0).unwrap().is_empty());
    }

    #[test]
    fn write_wraps_lines_and_roundtrips() {
        let long = "M".repeat(150);
        let mut set = SequenceSet::new(Alphabet::Protein);
        set.push(
            Sequence::from_text("long", Alphabet::Protein, long.as_bytes())
                .unwrap()
                .with_description("a long one"),
        )
        .unwrap();
        let text = to_string(&set);
        // 150 residues at width 60 -> 3 residue lines.
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with(">long a long one\n"));
        let back = parse(text.as_bytes(), Alphabet::Protein).unwrap();
        assert_eq!(back.get(0).unwrap().text(), long);
        assert_eq!(back.get(0).unwrap().description, "a long one");
    }

    #[test]
    fn streaming_reader_counts_records() {
        let mut reader = FastaReader::new(SAMPLE.as_bytes(), Alphabet::Protein);
        let mut n = 0;
        while let Some(r) = reader.next_record().unwrap() {
            assert!(!r.id.is_empty());
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("swdual_fasta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fasta");
        let set = parse(SAMPLE.as_bytes(), Alphabet::Protein).unwrap();
        write_file(&set, &path).unwrap();
        let back = read_file(&path, Alphabet::Protein, ResiduePolicy::Strict).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(&path).ok();
    }
}
