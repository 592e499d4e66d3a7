//! Owned sequence records and sets of records.

use crate::alphabet::Alphabet;
use crate::error::BioError;
use serde::{Deserialize, Serialize};

/// One biological sequence record: identifier, free-text description and
/// the residues *encoded* with [`Alphabet::encode`].
///
/// Encoded storage is deliberate: every downstream consumer (the DP
/// kernels, the GPU simulator, query profiles) wants small-integer
/// residues, and encoding once at load time keeps the inner loops free of
/// byte translation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sequence {
    /// Record identifier (the first token of the FASTA header).
    pub id: String,
    /// Remainder of the FASTA header, may be empty.
    pub description: String,
    /// The alphabet `residues` is encoded in.
    pub alphabet: Alphabet,
    /// Encoded residues (values `< alphabet.size()`).
    pub residues: Vec<u8>,
}

impl Sequence {
    /// Build a sequence from ASCII residue text, strictly rejecting
    /// residues outside `alphabet`.
    pub fn from_text(
        id: impl Into<String>,
        alphabet: Alphabet,
        text: &[u8],
    ) -> Result<Self, BioError> {
        Ok(Sequence {
            id: id.into(),
            description: String::new(),
            alphabet,
            residues: alphabet.encode(text)?,
        })
    }

    /// Build a sequence from ASCII residue text, mapping unknown residues
    /// to the alphabet wildcard.
    pub fn from_text_lossy(id: impl Into<String>, alphabet: Alphabet, text: &[u8]) -> Self {
        Sequence {
            id: id.into(),
            description: String::new(),
            alphabet,
            residues: alphabet.encode_lossy(text),
        }
    }

    /// Build a sequence directly from already-encoded residues.
    ///
    /// # Panics
    /// Panics (in debug builds) if any code is out of range for `alphabet`.
    pub fn from_codes(id: impl Into<String>, alphabet: Alphabet, residues: Vec<u8>) -> Self {
        debug_assert!(
            residues.iter().all(|&c| (c as usize) < alphabet.size()),
            "residue code out of range for {alphabet:?}"
        );
        Sequence {
            id: id.into(),
            description: String::new(),
            alphabet,
            residues,
        }
    }

    /// Attach a description (builder style).
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the sequence holds no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Decode back to ASCII residue text.
    pub fn text(&self) -> String {
        self.alphabet.decode(&self.residues)
    }

    /// The encoded residues as a slice (what the kernels consume).
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.residues
    }
}

/// An ordered collection of sequences sharing one alphabet — a query set
/// or a database in the paper's terminology (§II-C: queries `q1..qm`,
/// database `d1..dn`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequenceSet {
    /// Common alphabet of all member sequences.
    pub alphabet: Alphabet,
    sequences: Vec<Sequence>,
    /// Total residue count, maintained incrementally (databases are large;
    /// the master needs this to size tasks without rescanning).
    total_residues: u64,
}

impl SequenceSet {
    /// Create an empty set over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        SequenceSet {
            alphabet,
            sequences: Vec::new(),
            total_residues: 0,
        }
    }

    /// Create a set from sequences; all must share `alphabet`.
    /// The vector becomes the set's storage as it is.
    pub fn from_sequences(alphabet: Alphabet, sequences: Vec<Sequence>) -> Result<Self, BioError> {
        let mut set = SequenceSet::new(alphabet);
        for s in &sequences {
            set.admit(s)?;
        }
        set.sequences = sequences;
        Ok(set)
    }

    /// Count `sequence` in, or refuse it for its alphabet.
    fn admit(&mut self, sequence: &Sequence) -> Result<(), BioError> {
        if sequence.alphabet != self.alphabet {
            return Err(BioError::MalformedFasta(format!(
                "sequence {:?} has alphabet {:?}, set expects {:?}",
                sequence.id, sequence.alphabet, self.alphabet
            )));
        }
        self.total_residues += sequence.len() as u64;
        Ok(())
    }

    /// Append a sequence. Fails if its alphabet differs from the set's.
    pub fn push(&mut self, sequence: Sequence) -> Result<(), BioError> {
        self.admit(&sequence)?;
        self.sequences.push(sequence);
        Ok(())
    }

    /// Number of sequences in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True when the set holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total number of residues over all member sequences.
    #[inline]
    pub fn total_residues(&self) -> u64 {
        self.total_residues
    }

    /// Access a member by index.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&Sequence> {
        self.sequences.get(index)
    }

    /// Iterate over members in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Sequence> {
        self.sequences.iter()
    }

    /// Borrow all members as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Sequence] {
        &self.sequences
    }

    /// Length of the shortest member, `None` when empty.
    pub fn min_len(&self) -> Option<usize> {
        self.sequences.iter().map(Sequence::len).min()
    }

    /// Length of the longest member, `None` when empty.
    pub fn max_len(&self) -> Option<usize> {
        self.sequences.iter().map(Sequence::len).max()
    }

    /// Mean member length (0.0 when empty).
    pub fn mean_len(&self) -> f64 {
        if self.sequences.is_empty() {
            0.0
        } else {
            self.total_residues as f64 / self.sequences.len() as f64
        }
    }
}

impl<'a> IntoIterator for &'a SequenceSet {
    type Item = &'a Sequence;
    type IntoIter = std::slice::Iter<'a, Sequence>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prot(id: &str, text: &[u8]) -> Sequence {
        Sequence::from_text(id, Alphabet::Protein, text).unwrap()
    }

    #[test]
    fn sequence_roundtrips_text() {
        let s = prot("q1", b"MKVLATGGAR");
        assert_eq!(s.len(), 10);
        assert_eq!(s.text(), "MKVLATGGAR");
        assert!(!s.is_empty());
    }

    #[test]
    fn from_codes_accepts_valid_codes() {
        let s = Sequence::from_codes("x", Alphabet::Dna, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.text(), "ACGTN");
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn from_codes_panics_on_out_of_range_in_debug() {
        let _ = Sequence::from_codes("x", Alphabet::Dna, vec![0, 99]);
    }

    #[test]
    fn set_tracks_total_residues() {
        let mut set = SequenceSet::new(Alphabet::Protein);
        set.push(prot("a", b"MKV")).unwrap();
        set.push(prot("b", b"MKVLA")).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_residues(), 8);
        assert_eq!(set.min_len(), Some(3));
        assert_eq!(set.max_len(), Some(5));
        assert!((set.mean_len() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn set_rejects_mixed_alphabets() {
        let mut set = SequenceSet::new(Alphabet::Protein);
        let dna = Sequence::from_text("d", Alphabet::Dna, b"ACGT").unwrap();
        assert!(set.push(dna).is_err());
    }

    #[test]
    fn empty_set_statistics() {
        let set = SequenceSet::new(Alphabet::Dna);
        assert!(set.is_empty());
        assert_eq!(set.min_len(), None);
        assert_eq!(set.max_len(), None);
        assert_eq!(set.mean_len(), 0.0);
    }

    #[test]
    fn builder_description() {
        let s = prot("id", b"MK").with_description("test protein");
        assert_eq!(s.description, "test protein");
    }
}
