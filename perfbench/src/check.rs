//! Output checks against an independent computation.
//!
//! Every kernel's reference comes from `imp_baselines::native` where a
//! native kernel matches the graph, and from the f64
//! `imp_dfg::interp::Interpreter` otherwise (backprop and kmeans bake
//! their weights into the graph as constants). The chip's outputs are
//! never compared with a stored copy of an earlier run.

use imp_baselines::native;
use imp_dfg::interp::Interpreter;
use imp_dfg::{Graph, NodeId, Tensor};
use std::collections::HashMap;

// Kernel parameters the `imp-workloads` graphs compile in (Table 3
// kernels; the same values `crates/baselines/tests/cross_check.rs` uses).
const BS_RATE: f64 = 0.05;
const BS_VOL: f64 = 0.30;
const CANNEAL_D: usize = 48;
const FLUID_NEIGHBOURS: usize = 17;
const FLUID_H2: f64 = 0.012;
const STREAMCLUSTER_D: usize = 40;
const STREAMCLUSTER_GPU_D: usize = 48;
const HOTSPOT_C1: f64 = 0.1;
const HOTSPOT_C2: f64 = 0.05;
const KMEANS_K: usize = 5;

/// Below this many instances one argmin mismatch already exceeds the 5%
/// share, so only the near-tie rule applies.
const MIN_INSTANCES_FOR_SHARE: usize = 20;

/// The expected outputs of one kernel run, in fetch order.
#[derive(Debug, Clone)]
pub struct Expected {
    /// One flat vector per fetched output.
    pub outputs: Vec<Vec<f64>>,
    /// For kmeans: `(index output, distance output)`. The index output is
    /// the argmin over the distance output's `KMEANS_K` rows.
    pub argmin: Option<(usize, usize)>,
}

/// Computes the reference outputs of workload `name` for `inputs`, the
/// graph's fetched `outputs` and the module instance count `n`.
pub fn reference(
    name: &str,
    graph: &Graph,
    outputs: &[NodeId],
    inputs: &HashMap<String, Tensor>,
    n: usize,
) -> Expected {
    let data = |key: &str| inputs[key].data();
    let native = match name {
        "blackscholes" => Some(native::blackscholes(
            data("spot"),
            data("strike"),
            data("time"),
            BS_RATE,
            BS_VOL,
        )),
        "canneal" => Some(native::canneal(data("deltas"), CANNEAL_D, n)),
        "fluidanimate" => Some(native::fluidanimate(
            data("disp"),
            FLUID_NEIGHBOURS,
            n,
            FLUID_H2,
        )),
        "streamcluster" => Some(native::streamcluster(data("points"), STREAMCLUSTER_D, n)),
        "streamcluster_gpu" => Some(native::streamcluster(
            data("points"),
            STREAMCLUSTER_GPU_D,
            n,
        )),
        "hotspot" => {
            let side = inputs["temp"].shape().dims()[0];
            Some(native::hotspot(
                data("temp"),
                data("power"),
                side,
                HOTSPOT_C1,
                HOTSPOT_C2,
            ))
        }
        _ => None,
    };
    if let Some(values) = native {
        return Expected {
            outputs: vec![values],
            argmin: None,
        };
    }
    let mut interp = Interpreter::new(graph);
    for (key, tensor) in inputs {
        interp.feed(key, tensor.clone());
    }
    let golden = interp.run().expect("reference interpreter runs the kernel");
    Expected {
        outputs: outputs
            .iter()
            .map(|id| golden[id].data().to_vec())
            .collect(),
        argmin: (name == "kmeans").then_some((1, 0)),
    }
}

/// Checks a run's outputs (`got`, in fetch order) against `want`.
///
/// Value outputs must lie within `tolerance` of the reference. An argmin
/// index may differ from the reference only on a near-tie: the two
/// centroids' reference distances lie within `2 × tolerance`, the most
/// the chip's distance errors can reorder. With at least
/// `MIN_INSTANCES_FOR_SHARE` instances, at most 5% of the indices may
/// differ (as in `crates/workloads/tests/validate.rs`).
///
/// Returns the largest |chip − reference| / tolerance over the value
/// outputs.
///
/// # Errors
/// A message naming the output and element that failed.
pub fn check(got: &[&[f64]], want: &Expected, tolerance: f64) -> Result<f64, String> {
    if got.len() != want.outputs.len() {
        return Err(format!(
            "{} outputs, expected {}",
            got.len(),
            want.outputs.len()
        ));
    }
    let mut max_err_ratio: f64 = 0.0;
    for (out, (chip, reference)) in got.iter().zip(&want.outputs).enumerate() {
        if chip.len() != reference.len() {
            return Err(format!(
                "output {out}: {} elements, expected {}",
                chip.len(),
                reference.len()
            ));
        }
        match want.argmin {
            Some((index_out, dist_out)) if index_out == out => {
                check_argmin(chip, reference, &want.outputs[dist_out], tolerance)?;
            }
            _ => {
                for (i, (&a, &b)) in chip.iter().zip(reference.iter()).enumerate() {
                    let err = (a - b).abs();
                    if err.is_nan() || err > tolerance {
                        return Err(format!(
                            "output {out}[{i}]: chip {a} vs reference {b} (tolerance {tolerance})"
                        ));
                    }
                    max_err_ratio = max_err_ratio.max(err / tolerance);
                }
            }
        }
    }
    Ok(max_err_ratio)
}

fn check_argmin(
    chip: &[f64],
    reference: &[f64],
    dists: &[f64],
    tolerance: f64,
) -> Result<(), String> {
    let n = reference.len();
    let mut mismatches = 0;
    for (i, (&a, &b)) in chip.iter().zip(reference).enumerate() {
        if (a - b).abs() <= 0.5 {
            continue;
        }
        if !(a >= 0.0 && a < KMEANS_K as f64 && a.fract() == 0.0) {
            return Err(format!("argmin[{i}] = {a} is not a centroid index"));
        }
        let dist = |k: f64| dists[k as usize * n + i];
        let gap = dist(a) - dist(b);
        if gap > 2.0 * tolerance {
            return Err(format!(
                "argmin[{i}]: chip chose {a}, reference {b}, distance gap {gap} is no near-tie"
            ));
        }
        mismatches += 1;
    }
    if n >= MIN_INSTANCES_FOR_SHARE && mismatches * 20 > n {
        return Err(format!("{mismatches} of {n} argmin indices differ (> 5%)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_workloads::workload;

    const N: usize = 64;

    /// Reference outputs of `name` checked against themselves, plus a
    /// chip-like copy the tests then corrupt.
    fn fixture(name: &str) -> (Expected, Vec<Vec<f64>>, f64) {
        let w = workload(name).expect("known workload");
        let (graph, outputs, _) = w.build(N);
        let inputs = w.inputs(N, 3);
        let want = reference(name, &graph, &outputs, &inputs, N);
        let got = want.outputs.clone();
        (want, got, w.tolerance)
    }

    fn slices(v: &[Vec<f64>]) -> Vec<&[f64]> {
        v.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn native_and_interpreter_references_agree() {
        let w = workload("blackscholes").expect("known workload");
        let (graph, outputs, _) = w.build(N);
        let inputs = w.inputs(N, 3);
        let native = reference("blackscholes", &graph, &outputs, &inputs, N);
        let interp = reference("interpreter", &graph, &outputs, &inputs, N);
        check(&slices(&interp.outputs), &native, 1e-9).expect("agree to 1e-9");
    }

    #[test]
    fn exact_outputs_pass() {
        for name in ["blackscholes", "kmeans", "hotspot"] {
            let (want, got, tol) = fixture(name);
            assert_eq!(check(&slices(&got), &want, tol), Ok(0.0));
        }
    }

    #[test]
    fn corrupted_output_element_fails() {
        let (want, mut got, tol) = fixture("fluidanimate");
        got[0][17] += 2.0 * tol;
        assert!(check(&slices(&got), &want, tol).is_err());
    }

    #[test]
    fn corrupted_reference_value_fails() {
        let (mut want, got, tol) = fixture("canneal");
        want.outputs[0][5] -= 2.0 * tol;
        assert!(check(&slices(&got), &want, tol).is_err());
    }

    #[test]
    fn nan_output_fails() {
        let (want, mut got, tol) = fixture("streamcluster");
        got[0][0] = f64::NAN;
        assert!(check(&slices(&got), &want, tol).is_err());
    }

    #[test]
    fn argmin_flip_without_near_tie_fails() {
        let (want, mut got, tol) = fixture("kmeans");
        // Move instance 0 to the centroid farthest from it.
        let dists = &want.outputs[0];
        let farthest = (0..KMEANS_K)
            .max_by(|&a, &b| dists[a * N].total_cmp(&dists[b * N]))
            .expect("centroids");
        assert!(dists[farthest * N] - dists[got[1][0] as usize * N] > 2.0 * tol);
        got[1][0] = farthest as f64;
        assert!(check(&slices(&got), &want, tol).is_err());
    }

    #[test]
    fn argmin_near_tie_passes_but_share_is_bounded() {
        let (mut want, mut got, tol) = fixture("kmeans");
        // Make centroids 0 and 1 tie on every instance, then flip some.
        for i in 0..N {
            want.outputs[0][N + i] = want.outputs[0][i];
            got[0][N + i] = got[0][i];
            want.outputs[1][i] = 0.0;
            got[1][i] = 0.0;
        }
        got[1][0] = 1.0;
        assert!(
            check(&slices(&got), &want, tol).is_ok(),
            "one near-tie flip"
        );
        got[1][..4].fill(1.0);
        assert!(check(&slices(&got), &want, tol).is_err(), "4 of 64 > 5%");
    }
}
