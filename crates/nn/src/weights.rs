//! Weight storage, synthetic weight generation, and quantization
//! calibration.
//!
//! The paper evaluates pre-trained ImageNet networks; their checkpoints
//! are not reproducible here, so weights are generated synthetically
//! (He-uniform initialization, seeded) — layer shapes and FLOP counts,
//! which drive all latency/energy results, are unaffected.
//!
//! [`Calibration`] is the "pre-trained quantization information" of §4.2:
//! per-node activation ranges learned by observing a forward pass, plus
//! per-layer weight ranges. μLayer assumes the 8-bit linear quantization
//! is already applied to the network (§6); calibration is how this
//! reproduction applies it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use testkit::Rng;
use utensor::{DType, QuantParams, Tensor, TensorError};

use crate::graph::{Graph, NodeId};

/// The weights of one layer (f32 master copies).
#[derive(Clone, Debug, Default)]
pub struct LayerWeights {
    /// Filter / weight tensor (conv: OIHW, depthwise: `[c,1,k,k]`,
    /// FC: `[out,in]`).
    pub filter: Option<Tensor>,
    /// Bias vector, one entry per output channel / neuron.
    pub bias: Option<Vec<f32>>,
}

/// All weights of a graph, indexed by node.
///
/// Besides the f32 master copies, `Weights` memoises the cast filter
/// slices the executors compute with ([`Weights::part_filter`]): each
/// (node, compute dtype, weight params, row range) is sliced and cast
/// once, like a deployed model whose weights are stored already
/// quantized. [`Weights::of_mut`] drops that node's memo entries, so a
/// mutated master is never served stale.
#[derive(Clone, Debug)]
pub struct Weights {
    per_node: Vec<LayerWeights>,
    memo: FilterMemo,
}

/// No memo operation can panic while holding the lock, so a poisoned
/// lock means a bug elsewhere in this module.
const POISONED: &str = "filter memo lock poisoned";

/// Memo key: node, compute dtype, weight params (scale bits and zero
/// point) and the filter row range.
type PartKey = (usize, DType, Option<(u32, u8)>, usize, usize);

/// The cast-filter memo behind [`Weights::part_filter`]. A clone starts
/// empty, and `Debug` shows counts, never tensor bytes.
#[derive(Default)]
struct FilterMemo {
    parts: Mutex<BTreeMap<PartKey, Arc<Tensor>>>,
    casts: AtomicUsize,
}

impl Clone for FilterMemo {
    fn clone(&self) -> FilterMemo {
        FilterMemo::default()
    }
}

impl fmt::Debug for FilterMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilterMemo")
            .field("entries", &self.parts.lock().expect(POISONED).len())
            .field("casts", &self.casts.load(Ordering::Relaxed))
            .finish()
    }
}

impl Weights {
    /// Generates He-uniform random weights for every weighted layer.
    ///
    /// Deterministic in `seed`.
    pub fn random(graph: &Graph, seed: u64) -> Result<Weights, TensorError> {
        let shapes = graph.infer_shapes()?;
        let mut rng = Rng::seed_from_u64(seed);
        let mut per_node = Vec::with_capacity(graph.len());
        for (i, node) in graph.nodes().iter().enumerate() {
            let in_shape = graph.node_input_shape(NodeId(i), &shapes);
            if let Some(w_shape) = node.kind.weight_shape(in_shape) {
                let fan_in = (w_shape.numel() / w_shape.dim(0).max(1)).max(1);
                let bound = (6.0f32 / fan_in as f32).sqrt();
                let data: Vec<f32> = (0..w_shape.numel())
                    .map(|_| rng.gen_range(-bound..=bound))
                    .collect();
                let bias: Vec<f32> = (0..node.kind.bias_count(in_shape))
                    .map(|_| rng.gen_range(-0.05f32..=0.05))
                    .collect();
                per_node.push(LayerWeights {
                    filter: Some(Tensor::from_f32(w_shape, data)?),
                    bias: Some(bias),
                });
            } else {
                per_node.push(LayerWeights::default());
            }
        }
        Ok(Weights::from_per_node(per_node))
    }

    /// The weights of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the graph these weights were
    /// built for.
    pub fn of(&self, id: NodeId) -> &LayerWeights {
        &self.per_node[id.0]
    }

    /// Mutable access, for training (quantlab) and tests. Drops the
    /// node's memoised filter casts, since the caller may change them.
    pub fn of_mut(&mut self, id: NodeId) -> &mut LayerWeights {
        self.memo
            .parts
            .get_mut()
            .expect(POISONED)
            .retain(|key, _| key.0 != id.0);
        &mut self.per_node[id.0]
    }

    /// Rows `lo..hi` (axis 0) of the node's filter cast to `dtype` under
    /// `params` — `slice_axis(0, lo, hi)` then `cast(dtype, params)` —
    /// memoised, so each distinct part is sliced and cast once. `None`
    /// when the node has no filter. Safe to call from many threads; a
    /// race on a cold key may cast twice, and one result is kept.
    pub fn part_filter(
        &self,
        id: NodeId,
        dtype: DType,
        params: Option<QuantParams>,
        (lo, hi): (usize, usize),
    ) -> Result<Option<Arc<Tensor>>, TensorError> {
        let Some(master) = self.of(id).filter.as_ref() else {
            return Ok(None);
        };
        let key = (
            id.0,
            dtype,
            params.map(|p| (p.scale.to_bits(), p.zero_point)),
            lo,
            hi,
        );
        if let Some(hit) = self.memo.parts.lock().expect(POISONED).get(&key) {
            return Ok(Some(Arc::clone(hit)));
        }
        let cast = if (lo, hi) == (0, master.shape().dim(0)) {
            master.cast(dtype, params)?
        } else {
            master.slice_axis(0, lo, hi)?.cast(dtype, params)?
        };
        self.memo.casts.fetch_add(1, Ordering::Relaxed);
        let mut parts = self.memo.parts.lock().expect(POISONED);
        Ok(Some(Arc::clone(parts.entry(key).or_insert(Arc::new(cast)))))
    }

    /// Filter casts [`Weights::part_filter`] has performed so far (memo
    /// misses). Steady-state inference adds none.
    pub fn filter_casts(&self) -> usize {
        self.memo.casts.load(Ordering::Relaxed)
    }

    /// Every memoised part filter, in key order.
    pub fn memoised_parts(&self) -> Vec<MemoisedPart> {
        let parts = self.memo.parts.lock().expect(POISONED);
        parts
            .iter()
            .map(|(&(node, dtype, params, lo, hi), filter)| MemoisedPart {
                node: NodeId(node),
                dtype,
                params: params.map(|(scale, zero_point)| QuantParams {
                    scale: f32::from_bits(scale),
                    zero_point,
                }),
                rows: (lo, hi),
                filter: Arc::clone(filter),
            })
            .collect()
    }

    /// Number of node entries.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }

    /// Assembles weights from per-node entries (rewrite passes and
    /// tests; entry `i` belongs to node `i`).
    pub fn from_per_node(per_node: Vec<LayerWeights>) -> Weights {
        Weights {
            per_node,
            memo: FilterMemo::default(),
        }
    }

    /// Decomposes into per-node entries for a rewrite pass.
    pub fn into_per_node(self) -> Vec<LayerWeights> {
        self.per_node
    }

    /// Total bytes of all f32 master weights.
    pub fn total_bytes_f32(&self) -> usize {
        self.per_node
            .iter()
            .map(|w| {
                w.filter.as_ref().map_or(0, Tensor::size_bytes)
                    + w.bias.as_ref().map_or(0, |b| b.len() * 4)
            })
            .sum()
    }
}

/// One entry of the cast-filter memo ([`Weights::memoised_parts`]).
#[derive(Clone, Debug)]
pub struct MemoisedPart {
    /// The node the filter belongs to.
    pub node: NodeId,
    /// The dtype it was cast to.
    pub dtype: DType,
    /// The weight params of the cast.
    pub params: Option<QuantParams>,
    /// The filter rows (axis 0) it holds.
    pub rows: (usize, usize),
    /// The sliced and cast filter.
    pub filter: Arc<Tensor>,
}

/// Per-graph quantization information: the §4.2 "pre-trained quantization
/// information".
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Quantization parameters of the graph input.
    pub input_params: QuantParams,
    /// Output activation parameters per node.
    pub act_params: Vec<QuantParams>,
    /// Filter parameters per weighted node (`None` for weight-free
    /// layers).
    pub weight_params: Vec<Option<QuantParams>>,
}

impl Calibration {
    /// Builds calibration from observed per-node output ranges.
    pub fn from_ranges(
        graph: &Graph,
        weights: &Weights,
        input_range: (f32, f32),
        act_ranges: &[(f32, f32)],
    ) -> Result<Calibration, TensorError> {
        if act_ranges.len() != graph.len() {
            return Err(TensorError::BadConcat(format!(
                "calibration needs {} ranges, got {}",
                graph.len(),
                act_ranges.len()
            )));
        }
        let input_params = QuantParams::from_range(input_range.0, input_range.1)?;
        let act_params = act_ranges
            .iter()
            .map(|&(lo, hi)| QuantParams::from_range(lo, hi))
            .collect::<Result<Vec<_>, _>>()?;
        let weight_params = (0..graph.len())
            .map(|i| {
                weights
                    .of(NodeId(i))
                    .filter
                    .as_ref()
                    .map(|f| QuantParams::from_data(f.as_f32().expect("f32 master weights")))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Calibration {
            input_params,
            act_params,
            weight_params,
        })
    }

    /// A calibration with uniform synthetic ranges, for timing-only runs
    /// where numerics are skipped but the executor still needs
    /// quantization metadata.
    pub fn synthetic(graph: &Graph, weights: &Weights) -> Calibration {
        let range = (-6.0f32, 6.0f32);
        Calibration::from_ranges(graph, weights, range, &vec![range; graph.len()])
            .expect("synthetic ranges are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{LayerKind, PoolFunc};
    use utensor::Shape;

    fn graph() -> Graph {
        let mut g = Graph::new("t", Shape::nchw(1, 3, 8, 8));
        let c = g.add_input_layer(
            "conv",
            LayerKind::Conv {
                oc: 4,
                k: 3,
                stride: 1,
                pad: 1,
                relu: true,
            },
        );
        let p = g.add(
            "pool",
            LayerKind::Pool {
                func: PoolFunc::Max,
                k: 2,
                stride: 2,
                pad: 0,
            },
            c,
        );
        g.add(
            "fc",
            LayerKind::FullyConnected {
                out: 5,
                relu: false,
            },
            p,
        );
        g
    }

    #[test]
    fn random_weights_have_right_shapes() {
        let g = graph();
        let w = Weights::random(&g, 7).unwrap();
        assert_eq!(w.len(), 3);
        let conv_w = w.of(NodeId(0));
        assert_eq!(
            conv_w.filter.as_ref().unwrap().shape().dims(),
            &[4, 3, 3, 3]
        );
        assert_eq!(conv_w.bias.as_ref().unwrap().len(), 4);
        assert!(w.of(NodeId(1)).filter.is_none());
        let fc_w = w.of(NodeId(2));
        assert_eq!(fc_w.filter.as_ref().unwrap().shape().dims(), &[5, 64]);
    }

    #[test]
    fn weights_deterministic_in_seed() {
        let g = graph();
        let a = Weights::random(&g, 42).unwrap();
        let b = Weights::random(&g, 42).unwrap();
        let c = Weights::random(&g, 43).unwrap();
        assert!(a
            .of(NodeId(0))
            .filter
            .as_ref()
            .unwrap()
            .bit_equal(b.of(NodeId(0)).filter.as_ref().unwrap()));
        assert!(!a
            .of(NodeId(0))
            .filter
            .as_ref()
            .unwrap()
            .bit_equal(c.of(NodeId(0)).filter.as_ref().unwrap()));
    }

    #[test]
    fn he_bound_respected() {
        let g = graph();
        let w = Weights::random(&g, 1).unwrap();
        let f = w.of(NodeId(0)).filter.as_ref().unwrap();
        let bound = (6.0f32 / 27.0).sqrt();
        assert!(f.as_f32().unwrap().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn calibration_lengths_checked() {
        let g = graph();
        let w = Weights::random(&g, 1).unwrap();
        assert!(Calibration::from_ranges(&g, &w, (0.0, 1.0), &[(0.0, 1.0)]).is_err());
        let c = Calibration::synthetic(&g, &w);
        assert_eq!(c.act_params.len(), 3);
        assert!(c.weight_params[0].is_some());
        assert!(c.weight_params[1].is_none());
    }

    #[test]
    fn total_bytes_counts_filters_and_bias() {
        let g = graph();
        let w = Weights::random(&g, 1).unwrap();
        // conv 108 + bias 4 + fc 320 + bias 5 elements, 4 bytes each.
        assert_eq!(w.total_bytes_f32(), (108 + 4 + 320 + 5) * 4);
    }
}
