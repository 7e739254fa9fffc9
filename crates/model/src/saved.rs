//! Persistable trained models.
//!
//! A [`SavedModel`] is the offline artifact of a training run: the weight
//! vector (stored sparsely — trained models on index-compressed data are
//! themselves mostly zero off the observed support) plus enough metadata
//! to reproduce and sanity-check the run. The format is versioned,
//! two-space-indented JSON (one array element per line) so files stay
//! diff-able and greppable; it is written by hand and read back through
//! the workspace's one JSON codec, [`isasgd_obs::json`].

use isasgd_obs::json::{self, escape_json, JsonValue};
use std::io::{Read, Write};
use std::path::Path;

/// Format version written into every file; bumped on breaking changes.
pub const FORMAT_VERSION: u32 = 1;

/// A trained linear model with provenance metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedModel {
    /// Format version (see [`FORMAT_VERSION`]).
    pub version: u32,
    /// Model dimensionality `d` (including zero coordinates).
    pub dim: usize,
    /// Algorithm that produced the model (e.g. "IS-ASGD").
    pub algorithm: String,
    /// Dataset identifier the model was trained on.
    pub dataset: String,
    /// Step size λ used.
    pub step_size: f64,
    /// Epochs trained.
    pub epochs: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Indices of non-zero weights, strictly increasing.
    pub indices: Vec<u32>,
    /// Values matching `indices`.
    pub values: Vec<f64>,
}

/// Errors from model IO.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying filesystem/stream failure.
    Io(std::io::Error),
    /// Malformed JSON or wrong schema.
    Parse(String),
    /// Structurally invalid content (mismatched arrays, bad version…).
    Invalid(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model io: {e}"),
            ModelIoError::Parse(e) => write!(f, "model parse: {e}"),
            ModelIoError::Invalid(e) => write!(f, "invalid model: {e}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

impl SavedModel {
    /// Builds a saved model from a dense weight vector, dropping zeros
    /// and non-finite junk coordinates is an error.
    pub fn from_dense(
        weights: &[f64],
        algorithm: &str,
        dataset: &str,
        step_size: f64,
        epochs: usize,
        seed: u64,
    ) -> Result<SavedModel, ModelIoError> {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() {
                return Err(ModelIoError::Invalid(format!(
                    "non-finite weight {w} at coordinate {i}"
                )));
            }
            if w != 0.0 {
                indices.push(i as u32);
                values.push(w);
            }
        }
        Ok(SavedModel {
            version: FORMAT_VERSION,
            dim: weights.len(),
            algorithm: algorithm.to_string(),
            dataset: dataset.to_string(),
            step_size,
            epochs,
            seed,
            indices,
            values,
        })
    }

    /// Reconstructs the dense weight vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            w[i as usize] = v;
        }
        w
    }

    /// Number of stored (non-zero) weights.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The margin `wᵀx` of a sparse example against this model, without
    /// densifying.
    pub fn margin(&self, indices: &[u32], values: &[f64]) -> f64 {
        // Merge-join over two sorted index lists.
        let mut acc = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < indices.len() {
            match self.indices[a].cmp(&indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] * values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Validates structural invariants (sorted unique indices in range,
    /// finite values, matching lengths, known version).
    pub fn validate(&self) -> Result<(), ModelIoError> {
        if self.version != FORMAT_VERSION {
            return Err(ModelIoError::Invalid(format!(
                "unsupported version {} (expected {FORMAT_VERSION})",
                self.version
            )));
        }
        if self.indices.len() != self.values.len() {
            return Err(ModelIoError::Invalid(format!(
                "{} indices vs {} values",
                self.indices.len(),
                self.values.len()
            )));
        }
        for w in self.indices.windows(2) {
            if w[0] >= w[1] {
                return Err(ModelIoError::Invalid(format!(
                    "indices not strictly increasing at {}..{}",
                    w[0], w[1]
                )));
            }
        }
        if let Some(&last) = self.indices.last() {
            if last as usize >= self.dim {
                return Err(ModelIoError::Invalid(format!(
                    "index {last} out of range for dim {}",
                    self.dim
                )));
            }
        }
        if let Some(bad) = self.values.iter().find(|v| !v.is_finite()) {
            return Err(ModelIoError::Invalid(format!("non-finite value {bad}")));
        }
        Ok(())
    }

    /// Serializes to pretty JSON, streamed straight into `w`.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), ModelIoError> {
        write!(
            w,
            "{{\n  \"version\": {},\n  \"dim\": {},\n  \"algorithm\": \"{}\",\n  \
             \"dataset\": \"{}\",\n  \"step_size\": ",
            self.version,
            self.dim,
            escape_json(&self.algorithm),
            escape_json(&self.dataset),
        )?;
        write_f64(&mut w, self.step_size)?;
        write!(
            w,
            ",\n  \"epochs\": {},\n  \"seed\": {},\n  \"indices\": ",
            self.epochs, self.seed
        )?;
        write_array(&mut w, &self.indices, |w, i| write!(w, "{i}"))?;
        w.write_all(b",\n  \"values\": ")?;
        write_array(&mut w, &self.values, |w, &x| write_f64(w, x))?;
        w.write_all(b"\n}")?;
        w.flush()?;
        Ok(())
    }

    /// Parses and validates from a reader.
    pub fn read_from<R: Read>(mut r: R) -> Result<SavedModel, ModelIoError> {
        let mut buf = String::new();
        r.read_to_string(&mut buf)?;
        let doc = json::parse(&buf).map_err(ModelIoError::Parse)?;
        let m = SavedModel::from_json(&doc).map_err(ModelIoError::Parse)?;
        m.validate()?;
        Ok(m)
    }

    /// Rebuilds a model from a parsed document; a missing or mistyped
    /// field is an error. Unknown fields are ignored.
    fn from_json(doc: &JsonValue) -> Result<SavedModel, String> {
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("missing field `{name}`"))
        };
        let string = |name: &str| {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field `{name}`: expected a string"))
        };
        let float = |v: &JsonValue, name: &str| {
            v.as_f64()
                .ok_or_else(|| format!("field `{name}`: expected a number"))
        };
        let array = |name: &str| {
            field(name)?
                .as_array()
                .ok_or_else(|| format!("field `{name}`: expected an array"))
        };
        Ok(SavedModel {
            version: uint(field("version")?, "version")?,
            dim: uint(field("dim")?, "dim")?,
            algorithm: string("algorithm")?,
            dataset: string("dataset")?,
            step_size: float(field("step_size")?, "step_size")?,
            epochs: uint(field("epochs")?, "epochs")?,
            seed: uint(field("seed")?, "seed")?,
            indices: array("indices")?
                .iter()
                .map(|v| uint(v, "indices"))
                .collect::<Result<_, _>>()?,
            values: array("values")?
                .iter()
                .map(|v| float(v, "values"))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Saves to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), ModelIoError> {
        let f = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(f))
    }

    /// Loads from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<SavedModel, ModelIoError> {
        let f = std::fs::File::open(path)?;
        SavedModel::read_from(std::io::BufReader::new(f))
    }
}

/// An unsigned integer field that must fit `T` exactly.
fn uint<T: TryFrom<u64>>(v: &JsonValue, name: &str) -> Result<T, String> {
    v.as_u64()
        .and_then(|u| T::try_from(u).ok())
        .ok_or_else(|| format!("field `{name}`: expected an unsigned integer in range"))
}

/// A JSON number in Rust's shortest round-trip decimal form, or `null`
/// when not finite.
fn write_f64<W: Write>(w: &mut W, x: f64) -> std::io::Result<()> {
    if x.is_finite() {
        write!(w, "{x}")
    } else {
        w.write_all(b"null")
    }
}

/// A top-level field's array: one element per line at four spaces, `[]`
/// when empty.
fn write_array<W: Write, T>(
    w: &mut W,
    items: &[T],
    mut item: impl FnMut(&mut W, &T) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if items.is_empty() {
        return w.write_all(b"[]");
    }
    w.write_all(b"[")?;
    for (k, x) in items.iter().enumerate() {
        w.write_all(if k == 0 { b"\n    " } else { b",\n    " })?;
        item(w, x)?;
    }
    w.write_all(b"\n  ]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SavedModel {
        SavedModel::from_dense(&[0.0, 1.5, 0.0, -2.0, 0.25], "IS-ASGD", "tiny", 0.5, 10, 42)
            .unwrap()
    }

    #[test]
    fn dense_roundtrip_drops_zeros() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.indices, vec![1, 3, 4]);
        assert_eq!(m.to_dense(), vec![0.0, 1.5, 0.0, -2.0, 0.25]);
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let back = SavedModel::read_from(buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn file_roundtrip() {
        let m = sample();
        let dir = std::env::temp_dir().join("isasgd_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        m.save(&path).unwrap();
        let back = SavedModel::load(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn margin_merge_join() {
        let m = sample(); // w = [0, 1.5, 0, -2, 0.25]
                          // x with support {0, 3, 4}: margin = -2*1 + 0.25*4 = -1
        let got = m.margin(&[0, 3, 4], &[5.0, 1.0, 4.0]);
        assert!((got - (-1.0)).abs() < 1e-12);
        // Disjoint support ⇒ 0.
        assert_eq!(m.margin(&[0, 2], &[1.0, 1.0]), 0.0);
        // Empty example ⇒ 0.
        assert_eq!(m.margin(&[], &[]), 0.0);
    }

    #[test]
    fn rejects_non_finite_weights() {
        let r = SavedModel::from_dense(&[1.0, f64::NAN], "A", "d", 0.1, 1, 0);
        assert!(matches!(r, Err(ModelIoError::Invalid(_))));
    }

    #[test]
    fn validate_catches_corruption() {
        let mut m = sample();
        m.indices[0] = 3; // duplicate of indices[1]
        assert!(m.validate().is_err());

        let mut m = sample();
        m.indices[2] = 99; // out of range
        assert!(m.validate().is_err());

        let mut m = sample();
        m.values.pop(); // length mismatch
        assert!(m.validate().is_err());

        let mut m = sample();
        m.version = 999;
        assert!(m.validate().is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            SavedModel::read_from("not json".as_bytes()),
            Err(ModelIoError::Parse(_))
        ));
        // Valid JSON, wrong schema.
        assert!(matches!(
            SavedModel::read_from("{\"a\": 1}".as_bytes()),
            Err(ModelIoError::Parse(_))
        ));
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_an_abort() {
        let deep = "[".repeat(1_000_000);
        assert!(matches!(
            SavedModel::read_from(deep.as_bytes()),
            Err(ModelIoError::Parse(_))
        ));
    }

    #[test]
    fn read_from_separates_schema_from_structure_errors() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Mistyped and out-of-range fields are schema errors...
        for bad in [
            text.replace("\"seed\": 42", "\"seed\": -42"),
            text.replace("\"version\": 1", "\"version\": 4294967296"),
            text.replace("\"dim\": 5", "\"dim\": \"5\""),
        ] {
            assert!(matches!(
                SavedModel::read_from(bad.as_bytes()),
                Err(ModelIoError::Parse(_))
            ));
        }
        // ...while well-typed but inconsistent content is structural.
        let short = text.replace("\"dim\": 5", "\"dim\": 4");
        assert!(matches!(
            SavedModel::read_from(short.as_bytes()),
            Err(ModelIoError::Invalid(_))
        ));
    }
}
