//! The cast-filter memo inside `unn::Weights`: every part filter the
//! evaluator computes with is sliced and cast once per (node, compute
//! dtype, weight params, row range), byte-equal to a fresh
//! `slice_axis(..).cast(..)`, dropped by `Weights::of_mut`, invisible to
//! `Debug`, and never re-cast by a later inference.

use std::collections::BTreeMap;

use simcore::{FleetScenario, SimSpan};
use unn::{Graph, ModelId, NodeId, Weights};
use uruntime::{
    evaluate_plan, run_fleet, single_processor_plan, ExecutionPlan, FleetCohort, FleetConfig,
    FleetNetwork, InstanceAdapter, LadderRung, NodePlacement, UnitAdapter,
};
use usoc::{DtypePlan, SocSpec};
use utensor::{DType, Tensor};

fn zoo() -> Vec<ModelId> {
    let mut nets: Vec<ModelId> = ModelId::EVALUATED.to_vec();
    nets.push(ModelId::ResNet18);
    nets.push(ModelId::LeNet);
    nets
}

fn input_for(g: &Graph) -> Tensor {
    let shape = g.input_shape().clone();
    let n = shape.numel();
    Tensor::from_f32(
        shape,
        (0..n)
            .map(|i| ((i * 37 + 11) % 255) as f32 / 255.0 - 0.35)
            .collect(),
    )
    .unwrap()
}

/// A uniform-dtype plan: every distributable layer split 0.37 : 0.63
/// across CPU and GPU (`split`), or every layer whole on the CPU.
fn uniform_plan(g: &Graph, spec: &SocSpec, dtype: DType, split: bool) -> ExecutionPlan {
    let dt = DtypePlan::uniform(dtype);
    let placements = g
        .nodes()
        .iter()
        .map(|n| {
            if split && n.kind.is_distributable() {
                NodePlacement::Split {
                    parts: vec![(spec.cpu(), dt, 0.37), (spec.gpu(), dt, 0.63)],
                }
            } else {
                NodePlacement::Single {
                    device: spec.cpu(),
                    dtypes: dt,
                }
            }
        })
        .collect();
    ExecutionPlan::new(g, spec, placements, "memo").unwrap()
}

/// Row ranges memoised per node.
fn ranges_by_node(w: &Weights) -> BTreeMap<usize, Vec<(usize, usize)>> {
    let mut by_node: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for part in w.memoised_parts() {
        by_node.entry(part.node.0).or_default().push(part.rows);
    }
    by_node
}

#[test]
fn memoised_parts_equal_fresh_slice_and_cast_across_the_zoo() {
    let spec = SocSpec::exynos_7420();
    for id in zoo() {
        let g = id.build_miniature();
        let input = input_for(&g);
        let master = Weights::random(&g, 5).unwrap();
        let calib = unn::calibrate(&g, &master, std::slice::from_ref(&input)).unwrap();
        for dtype in [DType::F16, DType::QUInt8] {
            for split in [false, true] {
                let ctx = format!("{} / {dtype} / split={split}", id.name());
                let w = master.clone();
                assert!(w.memoised_parts().is_empty(), "{ctx}: a clone starts empty");
                let plan = uniform_plan(&g, &spec, dtype, split);
                let first = evaluate_plan(&g, &plan, &w, &calib, &input).unwrap();

                let parts = w.memoised_parts();
                assert!(!parts.is_empty(), "{ctx}: nothing memoised");
                assert_eq!(parts.len(), w.filter_casts(), "{ctx}: one cast per entry");
                for part in &parts {
                    let filter = w.of(part.node).filter.as_ref().unwrap();
                    let (lo, hi) = part.rows;
                    let fresh = filter
                        .slice_axis(0, lo, hi)
                        .and_then(|f| f.cast(part.dtype, part.params))
                        .unwrap();
                    assert_eq!(part.dtype, dtype, "{ctx}");
                    assert_eq!(part.params, calib.weight_params[part.node.0], "{ctx}");
                    assert!(
                        part.filter.bit_equal(&fresh),
                        "{ctx}: node {} rows {lo}..{hi} differ from a fresh cast",
                        part.node.0
                    );
                }
                // Every weighted node is covered, and each node's ranges
                // partition its filter rows (two parts when split).
                for (i, node) in g.nodes().iter().enumerate() {
                    let Some(filter) = w.of(NodeId(i)).filter.as_ref() else {
                        continue;
                    };
                    let mut rows = ranges_by_node(&w).remove(&i).unwrap_or_default();
                    rows.sort();
                    let mut next = 0;
                    for &(lo, hi) in &rows {
                        assert_eq!(lo, next, "{ctx}: {} ranges {rows:?}", node.name);
                        next = hi;
                    }
                    assert_eq!(
                        next,
                        filter.shape().dim(0),
                        "{ctx}: {} uncovered",
                        node.name
                    );
                    if split && node.kind.is_distributable() && filter.shape().dim(0) >= 4 {
                        assert_eq!(rows.len(), 2, "{ctx}: {} parts {rows:?}", node.name);
                    }
                }

                // A second inference casts nothing and computes the same.
                let casts = w.filter_casts();
                let second = evaluate_plan(&g, &plan, &w, &calib, &input).unwrap();
                assert_eq!(w.filter_casts(), casts, "{ctx}: steady state re-cast");
                for (a, b) in first.iter().zip(&second) {
                    assert!(a.bit_equal(b), "{ctx}: memoised run differs");
                }
            }
        }
    }
}

#[test]
fn of_mut_invalidates_only_that_node() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::MobileNet.build_miniature();
    let input = input_for(&g);
    let mut w = Weights::random(&g, 9).unwrap();
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).unwrap();
    let plan = uniform_plan(&g, &spec, DType::QUInt8, true);
    evaluate_plan(&g, &plan, &w, &calib, &input).unwrap();

    let target = (0..g.len())
        .map(NodeId)
        .find(|&id| w.of(id).filter.is_some())
        .unwrap();
    let before = ranges_by_node(&w);
    let target_parts = before[&target.0].len();
    let casts = w.filter_casts();

    // Mutate the master the way training does: through `of_mut`.
    let entry = w.of_mut(target);
    let scaled: Vec<f32> = entry
        .filter
        .as_ref()
        .unwrap()
        .as_f32()
        .unwrap()
        .iter()
        .map(|v| v * 0.5)
        .collect();
    let shape = entry.filter.as_ref().unwrap().shape().clone();
    entry.filter = Some(Tensor::from_f32(shape, scaled).unwrap());

    let after = ranges_by_node(&w);
    assert!(
        !after.contains_key(&target.0),
        "mutated node still memoised"
    );
    assert_eq!(
        after.len(),
        before.len() - 1,
        "other nodes were dropped too"
    );

    // The next inference re-casts exactly the mutated node and matches a
    // run on weights that never had a memo.
    let got = evaluate_plan(&g, &plan, &w, &calib, &input).unwrap();
    assert_eq!(w.filter_casts(), casts + target_parts);
    let fresh = Weights::from_per_node(w.clone().into_per_node());
    let want = evaluate_plan(&g, &plan, &fresh, &calib, &input).unwrap();
    for (a, b) in got.iter().zip(&want) {
        assert!(a.bit_equal(b), "stale memo served after of_mut");
    }
}

#[test]
fn debug_reports_memo_counts_not_bytes() {
    let spec = SocSpec::exynos_7420();
    let g = ModelId::SqueezeNet.build_miniature();
    let input = input_for(&g);
    let w = Weights::random(&g, 3).unwrap();
    let calib = unn::calibrate(&g, &w, std::slice::from_ref(&input)).unwrap();
    let cold = format!("{w:?}");
    assert!(
        cold.contains("FilterMemo { entries: 0, casts: 0 }"),
        "{}",
        &cold[cold.len().saturating_sub(200)..]
    );
    evaluate_plan(
        &g,
        &uniform_plan(&g, &spec, DType::F16, true),
        &w,
        &calib,
        &input,
    )
    .unwrap();
    let warm = format!("{w:?}");
    let parts = w.memoised_parts().len();
    assert!(parts > 0);
    assert!(warm.contains(&format!(
        "FilterMemo {{ entries: {parts}, casts: {parts} }}"
    )));
    // Only the two counters changed: no cast tensor was printed.
    assert!(
        warm.len() - cold.len() < 16,
        "{} -> {} bytes",
        cold.len(),
        warm.len()
    );
}

#[test]
fn fleet_still_shares_one_weight_allocation_with_a_warm_memo() {
    let graph = ModelId::SqueezeNet.build_miniature();
    let weights = Weights::random(&graph, 11).unwrap();
    let net = FleetNetwork::new("squeezenet-mini", graph, weights);
    let spec = SocSpec::exynos_7420();
    // Warm the shared memo with a functional inference first.
    let input = input_for(&net.graph);
    let calib = unn::calibrate(&net.graph, &net.weights, std::slice::from_ref(&input)).unwrap();
    let plan = single_processor_plan(&net.graph, &spec, spec.gpu(), DType::F16).unwrap();
    evaluate_plan(&net.graph, &plan, &net.weights, &calib, &input).unwrap();
    assert!(net.weights.filter_casts() > 0);

    let rung = LadderRung {
        label: "full".into(),
        plan,
        predicted: SimSpan::from_millis(1),
    };
    let cohorts = vec![FleetCohort::build(&spec, &net.graph, &[rung]).unwrap()];
    let cfg = FleetConfig {
        devices: 32,
        frames: 4,
        seed: 7,
        ..FleetConfig::default()
    };
    let adapter = || -> Box<dyn InstanceAdapter> { Box::<UnitAdapter>::default() };
    let report = run_fleet(
        &net,
        &cohorts,
        Some(FleetScenario::RollingGpuLoss),
        &cfg,
        &adapter,
    )
    .unwrap();
    report.check_invariants().unwrap();
    assert_eq!(report.weight_copies, 1);
}
