//! NN layer IR, graph, model zoo, and reference execution for the μLayer
//! reproduction.
//!
//! This crate is the "network" half of the substrate:
//!
//! - [`layer`] / [`graph`] — the operator vocabulary and the DAG the
//!   execution mechanisms consume, with shape and MAC inference.
//! - [`models`] — from-scratch architecture definitions of the paper's
//!   five evaluated networks (GoogLeNet, SqueezeNet v1.1, VGG-16,
//!   AlexNet, MobileNet v1) plus LeNet-5.
//! - [`weights`] — synthetic weight generation and quantization
//!   calibration (the §4.2 "pre-trained quantization information").
//! - [`exec`] — single-host reference execution in any dtype; every
//!   device executor routes through the same [`exec::run_layer`], so all
//!   mechanisms share numerics by construction.
//! - [`analysis`] — divergent-branch detection (§5) and the Table 1
//!   applicability matrix.

pub mod analysis;
pub mod exec;
pub mod graph;
pub mod layer;
pub mod models;
pub mod passes;
pub mod viz;
pub mod weights;

pub use analysis::{applicability, find_branch_groups, Applicability, BranchGroup};
pub use exec::{calibrate, filter_for_dtype, forward, run_layer};
pub use graph::{Graph, Node, NodeId};
pub use layer::{LayerKind, PoolFunc};
pub use models::ModelId;
pub use passes::{
    optimize, ElideConcats, ElideQuantPairs, EliminateDeadNodes, FuseActivations, Module, Pass,
    PassReport, PassRunner,
};
pub use viz::to_dot;
pub use weights::{Calibration, LayerWeights, MemoisedPart, Weights};
