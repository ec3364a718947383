//! Quantization accuracy laboratory — the Figure 10 experiment.
//!
//! The paper validates processor-friendly quantization's accuracy on
//! ImageNet with pretrained CNNs (Figure 10). Neither the dataset nor the
//! checkpoints are available here, so this crate substitutes the closest
//! equivalent that exercises the identical code paths (see DESIGN.md §2):
//!
//! 1. [`dataset`] — a synthetic oriented-grating classification task;
//! 2. [`train`] — a small CNN classifier trained from scratch with
//!    pure-Rust SGD;
//! 3. [`experiment`] — top-1 accuracy under F32 / F16 / naive QUInt8 /
//!    range-calibrated QUInt8 inference, all through the same tensor and
//!    kernel stack the μLayer executor uses.
//!
//! Expected shape (matching the paper): F16 is lossless, naive 8-bit
//! quantization degrades sharply, and learned ranges (the fake-quant
//! analogue) recover to within a few percentage points.

pub mod dataset;
pub mod experiment;
pub mod train;

pub use dataset::{generate, Dataset, DatasetConfig, Sample};
pub use experiment::{accuracy, naive_calibration, run_figure10, run_variants, AccuracyRow};
pub use train::{
    classifier_graph, figure10_models, train, Figure10Models, TrainConfig, TrainedModel,
};
