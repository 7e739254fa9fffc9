//! Golden saved-model files: the on-disk format of `isasgd train --save`
//! must stay readable and be rewritten byte for byte.
//!
//! The files under `tests/golden/` were written by an earlier
//! implementation of [`SavedModel::write_to`]; they pin the exact pretty
//! layout, string escaping, float formatting and the full `u64` seed range.

use isasgd_model::SavedModel;
use std::path::PathBuf;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Escapes, a control character and non-ASCII text in both strings;
/// extreme, negative, tiny and integral floats; `seed = u64::MAX`; and
/// `dim` well past the last stored index.
fn full() -> SavedModel {
    SavedModel {
        version: 1,
        dim: 5000,
        algorithm: "IS-ASGD \"quoted\" \\ back\u{1}slash é 日本".into(),
        dataset: "dä\ttaset/ñ.svm\r\n".into(),
        step_size: 0.05,
        epochs: 10,
        seed: u64::MAX,
        indices: vec![0, 3, 17, 256, 1024, 4095],
        values: vec![5e-324, 1.7976931348623157e308, -0.1, 1e-7, 1.0, -2.0],
    }
}

/// No stored weights: the pretty layout writes empty arrays as `[]`.
fn empty() -> SavedModel {
    SavedModel {
        version: 1,
        dim: 3,
        algorithm: "SGD".into(),
        dataset: "zeros".into(),
        step_size: 1e-3,
        epochs: 0,
        seed: 0,
        indices: vec![],
        values: vec![],
    }
}

/// Field-wise equality with floats compared by their bits.
fn assert_bit_equal(got: &SavedModel, want: &SavedModel) {
    assert_eq!(got.version, want.version);
    assert_eq!(got.dim, want.dim);
    assert_eq!(got.algorithm, want.algorithm);
    assert_eq!(got.dataset, want.dataset);
    assert_eq!(got.step_size.to_bits(), want.step_size.to_bits());
    assert_eq!(got.epochs, want.epochs);
    assert_eq!(got.seed, want.seed);
    assert_eq!(got.indices, want.indices);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.values), bits(&want.values));
}

fn check(file: &str, want: &SavedModel) {
    let path = golden(file);
    let loaded = SavedModel::load(&path).unwrap();
    assert_bit_equal(&loaded, want);
    let mut written = Vec::new();
    loaded.write_to(&mut written).unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert!(
        written == on_disk,
        "write_to drifted from {file}:\n{}",
        String::from_utf8_lossy(&written)
    );
}

#[test]
fn golden_model_loads_bit_exactly_and_rewrites_byte_for_byte() {
    check("model_v1.json", &full());
}

#[test]
fn golden_empty_model_loads_and_rewrites_byte_for_byte() {
    check("model_v1_empty.json", &empty());
}
