//! Synthetic protein database generation.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Gamma};
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::Alphabet;

/// Robinson & Robinson (1991) background amino-acid frequencies, in the
/// canonical `ARNDCQEGHILKMFPSTWYV` order of the first 20 protein
/// residue codes. These are the frequencies BLAST's scoring statistics
/// assume; sampling residues from them makes synthetic databases score
/// like real ones under BLOSUM62.
pub const ROBINSON_FREQS: [f64; 20] = [
    0.07805, // A
    0.05129, // R
    0.04487, // N
    0.05364, // D
    0.01925, // C
    0.04264, // Q
    0.06295, // E
    0.07377, // G
    0.02199, // H
    0.05142, // I
    0.09019, // L
    0.05744, // K
    0.02243, // M
    0.03856, // F
    0.05203, // P
    0.07120, // S
    0.05841, // T
    0.01330, // W
    0.03216, // Y
    0.06441, // V
];

/// Samples protein residues from the Robinson–Robinson background.
#[derive(Debug, Clone)]
pub struct ProteinSampler {
    /// Cumulative distribution over the 20 standard residues.
    cdf: [f64; 20],
}

impl Default for ProteinSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl ProteinSampler {
    /// Build the sampler (normalises the embedded frequencies).
    pub fn new() -> ProteinSampler {
        let total: f64 = ROBINSON_FREQS.iter().sum();
        let mut cdf = [0.0f64; 20];
        let mut acc = 0.0;
        for (i, &f) in ROBINSON_FREQS.iter().enumerate() {
            acc += f / total;
            cdf[i] = acc;
        }
        cdf[19] = 1.0;
        ProteinSampler { cdf }
    }

    /// Sample one residue code (0..20).
    pub fn sample(&self, rng: &mut impl Rng) -> u8 {
        let u: f64 = rng.gen();
        // 20 entries: linear scan beats binary search at this size.
        for (code, &c) in self.cdf.iter().enumerate() {
            if u <= c {
                return code as u8;
            }
        }
        19
    }

    /// Sample a whole sequence of `len` residues.
    pub fn sample_sequence(&self, len: usize, rng: &mut impl Rng) -> Vec<u8> {
        (0..len).map(|_| self.sample(rng)).collect()
    }
}

/// Sequence-length model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthModel {
    /// Gamma-distributed lengths (protein databases are well fit by a
    /// gamma with shape ≈ 2–3), truncated to `[min, max]`.
    Gamma {
        /// Mean length.
        mean: f64,
        /// Shape parameter (larger = tighter around the mean).
        shape: f64,
        /// Minimum length after truncation.
        min: usize,
        /// Maximum length after truncation.
        max: usize,
    },
    /// Uniform lengths in `[min, max]`.
    Uniform {
        /// Minimum length.
        min: usize,
        /// Maximum length.
        max: usize,
    },
    /// Every sequence exactly this long.
    Fixed(usize),
}

impl LengthModel {
    /// The length model used for all synthetic paper databases: gamma
    /// with shape 2.5 (UniProt's empirical length histogram shape),
    /// truncated to the extremes the paper quotes for UniProt (4 and
    /// 35213).
    pub fn protein_database(mean: f64) -> LengthModel {
        LengthModel::Gamma {
            mean,
            shape: 2.5,
            min: 4,
            max: 35_213,
        }
    }

    /// Draw one length.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        match *self {
            LengthModel::Gamma {
                mean,
                shape,
                min,
                max,
            } => {
                let scale = mean / shape;
                let gamma = Gamma::new(shape, scale).expect("valid gamma parameters");
                let v = gamma.sample(rng).round() as i64;
                (v.clamp(min as i64, max as i64)) as usize
            }
            LengthModel::Uniform { min, max } => rng.gen_range(min..=max),
            LengthModel::Fixed(len) => len,
        }
    }
}

/// Generate a synthetic protein database of `n_sequences` with the
/// given length model, deterministically from `seed`.
pub fn synthetic_database(
    name_prefix: &str,
    n_sequences: usize,
    lengths: LengthModel,
    seed: u64,
) -> SequenceSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ProteinSampler::new();
    let mut set = SequenceSet::new(Alphabet::Protein);
    for i in 0..n_sequences {
        let len = lengths.sample(&mut rng);
        let residues = sampler.sample_sequence(len, &mut rng);
        let seq = Sequence::from_codes(format!("{name_prefix}_{i}"), Alphabet::Protein, residues)
            .with_description(format!("synthetic protein {i} len {len}"));
        set.push(seq).expect("alphabet matches");
    }
    set
}

/// Generate a scaled-down version of one of the paper's databases: the
/// same mean length, `scale` times the sequence count (so reduced-scale
/// *executions* stay faithful to the workload shape). `sequences` and
/// `mean_len` come from the Table III / Table IV derivation in
/// `swdual_bench::paper`.
pub fn scaled_database(
    name: &str,
    sequences: u64,
    mean_len: f64,
    scale: f64,
    seed: u64,
) -> SequenceSet {
    assert!(scale > 0.0 && scale <= 1.0, "scale in (0, 1]");
    let n = ((sequences as f64 * scale).round() as usize).max(1);
    synthetic_database(name, n, LengthModel::protein_database(mean_len), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_bio::stats::{Composition, LengthStats};

    #[test]
    fn sampler_respects_background_frequencies() {
        let sampler = ProteinSampler::new();
        let mut rng = StdRng::seed_from_u64(42);
        let sample = sampler.sample_sequence(200_000, &mut rng);
        let seq = Sequence::from_codes("s", Alphabet::Protein, sample);
        let comp = Composition::of_sequence(&seq);
        for (code, &expected) in ROBINSON_FREQS.iter().enumerate() {
            let observed = comp.frequency(code as u8);
            assert!(
                (observed - expected).abs() < 0.01,
                "residue {code}: observed {observed}, expected {expected}"
            );
        }
        // No ambiguity codes are ever sampled.
        for code in 20..24 {
            assert_eq!(comp.counts[code], 0);
        }
    }

    #[test]
    fn gamma_lengths_center_on_mean() {
        let model = LengthModel::protein_database(360.0);
        let mut rng = StdRng::seed_from_u64(7);
        let lengths: Vec<usize> = (0..20_000).map(|_| model.sample(&mut rng)).collect();
        let mean = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        assert!((mean - 360.0).abs() < 15.0, "mean {mean}");
        assert!(lengths.iter().all(|&l| (4..=35_213).contains(&l)));
        // Gamma is right-skewed: some sequences well beyond the mean.
        assert!(*lengths.iter().max().unwrap() > 1000);
    }

    #[test]
    fn uniform_and_fixed_models() {
        let mut rng = StdRng::seed_from_u64(1);
        let u = LengthModel::Uniform { min: 10, max: 20 };
        for _ in 0..100 {
            let l = u.sample(&mut rng);
            assert!((10..=20).contains(&l));
        }
        assert_eq!(LengthModel::Fixed(7).sample(&mut rng), 7);
    }

    #[test]
    fn database_generation_is_deterministic() {
        let a = synthetic_database("db", 50, LengthModel::Fixed(30), 99);
        let b = synthetic_database("db", 50, LengthModel::Fixed(30), 99);
        assert_eq!(a, b);
        let c = synthetic_database("db", 50, LengthModel::Fixed(30), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn scaled_database_preserves_mean_length() {
        let set = scaled_database("dog", 25_160, 589.0, 0.02, 5);
        assert_eq!(set.len(), 503); // 2% of 25160
        let stats = LengthStats::of_set(&set).unwrap();
        assert!(
            (stats.mean - 589.0).abs() / 589.0 < 0.15,
            "mean length {}",
            stats.mean
        );
    }

    #[test]
    #[should_panic]
    fn scale_above_one_panics() {
        let _ = scaled_database("x", 100, 300.0, 1.5, 0);
    }

    #[test]
    fn ids_are_unique_and_prefixed() {
        let set = synthetic_database("uni", 20, LengthModel::Fixed(10), 3);
        let mut ids: Vec<&str> = set.iter().map(|s| s.id.as_str()).collect();
        assert!(ids.iter().all(|id| id.starts_with("uni_")));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }
}
