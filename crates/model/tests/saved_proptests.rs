//! Property tests on the persistable model format.

use isasgd_model::SavedModel;
use proptest::prelude::*;

/// Strategy: a dense weight vector with a controlled fraction of zeros
/// and finite values.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(0.0f64),
            2 => -1e6f64..1e6f64,
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// from_dense → to_dense is the identity for finite inputs.
    #[test]
    fn dense_roundtrip(w in arb_weights()) {
        let m = SavedModel::from_dense(&w, "A", "d", 0.5, 3, 7).unwrap();
        prop_assert_eq!(m.to_dense(), w.clone());
        prop_assert_eq!(m.nnz(), w.iter().filter(|&&x| x != 0.0).count());
        prop_assert!(m.validate().is_ok());
    }

    /// JSON serialization round-trips bit-exactly (floats are written in
    /// their shortest round-trip decimal form).
    #[test]
    fn json_roundtrip(w in arb_weights()) {
        let m = SavedModel::from_dense(&w, "IS-ASGD", "data.svm", 0.05, 10, 42).unwrap();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let back = SavedModel::read_from(buf.as_slice()).unwrap();
        prop_assert_eq!(back, m);
    }

    /// The sparse merge-join margin equals the dense dot product.
    #[test]
    fn margin_equals_dense_dot(
        w in arb_weights(),
        xs in prop::collection::vec((0u32..200, -10.0f64..10.0), 0..20),
    ) {
        let m = SavedModel::from_dense(&w, "A", "d", 0.5, 1, 0).unwrap();
        // Sort and dedup the example's indices, clip to dim.
        let dim = w.len() as u32;
        let mut pairs: Vec<(u32, f64)> =
            xs.into_iter().filter(|(i, _)| *i < dim).collect();
        pairs.sort_by_key(|p| p.0);
        pairs.dedup_by_key(|p| p.0);
        let idx: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let val: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let sparse = m.margin(&idx, &val);
        let dense: f64 = idx
            .iter()
            .zip(&val)
            .map(|(&i, &v)| w[i as usize] * v)
            .sum();
        prop_assert!((sparse - dense).abs() <= 1e-9 * (1.0 + dense.abs()));
    }

    /// Any non-finite coordinate is rejected at construction.
    #[test]
    fn non_finite_rejected(mut w in arb_weights(), pos in 0usize..200) {
        let pos = pos % w.len();
        w[pos] = f64::INFINITY;
        prop_assert!(SavedModel::from_dense(&w, "A", "d", 0.5, 1, 0).is_err());
    }
}
