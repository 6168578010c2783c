//! Keras/TensorFlow application models (paper §VII-C, Fig. 14).
//!
//! The paper adds a Keras API to the compiler that maps layer calls to
//! accelerator invocations; unsupported phases (convolution backprop,
//! GraphSage's random walk and embedding steps) stay on the CPU. This
//! module describes the three applications as layer graphs with per-layer
//! operation and byte counts, marks which layers the accelerator library
//! covers, and can lower the accelerated portion to an IR kernel of
//! accelerator invocations for simulation.
//!
//! * `convnet` — a residual CNN: conv/BN/ReLU stem, three residual
//!   blocks, pooling, and a dense classifier. Training is modeled as
//!   forward + backward; conv *backward* has no accelerator, so the
//!   speedup is modest (paper: 7.22× EDP).
//! * [`graphsage`] — random-walk sampling + CBOW-style embedding + dense
//!   layers. The walk/embedding stays on the CPU (paper: 38× EDP).
//! * `recsys` — two dense+ReLU+BN blocks and a final dense layer,
//!   entirely accelerable (paper: 282.24× EDP).

use mosaic_ir::{AccelOp, MemImage, Module, RtVal, Type};

use crate::{c64, Prepared};

/// One phase of a model's training step.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable name.
    pub name: String,
    /// Elementary operations (MACs / updates).
    pub ops: u64,
    /// Bytes moved (activations + weights).
    pub bytes: u64,
    /// The accelerator invocation covering this layer, if one exists
    /// (`None` keeps the layer on the CPU).
    pub accel: Option<(AccelOp, Vec<i64>)>,
}

impl Layer {
    fn conv(name: &str, in_c: i64, out_c: i64, h: i64, w: i64, k: i64, accel: bool) -> Layer {
        let ops = (in_c * out_c * h * w * k * k) as u64;
        let bytes = 4 * (in_c * h * w + out_c * h * w + in_c * out_c * k * k) as u64;
        Layer {
            name: name.to_string(),
            ops,
            bytes,
            accel: accel.then(|| (AccelOp::Conv2d, vec![in_c, out_c, h, w, k])),
        }
    }

    fn dense(name: &str, batch: i64, in_dim: i64, out_dim: i64, accel: bool) -> Layer {
        Layer {
            name: name.to_string(),
            ops: (batch * in_dim * out_dim) as u64,
            bytes: 4 * (batch * in_dim + in_dim * out_dim + batch * out_dim) as u64,
            accel: accel.then(|| (AccelOp::Dense, vec![batch, in_dim, out_dim])),
        }
    }

    fn relu(name: &str, n: i64) -> Layer {
        Layer {
            name: name.to_string(),
            ops: n as u64,
            bytes: 8 * n as u64,
            accel: Some((AccelOp::Relu, vec![n])),
        }
    }

    fn batchnorm(name: &str, n: i64) -> Layer {
        Layer {
            name: name.to_string(),
            ops: 2 * n as u64,
            bytes: 8 * n as u64,
            accel: Some((AccelOp::BatchNorm, vec![n])),
        }
    }

    fn pool(name: &str, c: i64, h: i64, w: i64, k: i64) -> Layer {
        Layer {
            name: name.to_string(),
            ops: (c * h * w) as u64,
            bytes: 4 * (c * h * w + c * h * w / (k * k)) as u64,
            accel: Some((AccelOp::Pool2d, vec![c, h, w, k])),
        }
    }

    fn embedding(name: &str, rows: i64, dim: i64, accel: bool) -> Layer {
        Layer {
            name: name.to_string(),
            ops: (rows * dim) as u64,
            bytes: 8 * (rows * dim) as u64,
            accel: accel.then(|| (AccelOp::Embedding, vec![rows, dim])),
        }
    }

    /// A CPU-only phase with explicit op/byte counts (random walks,
    /// backprop phases without accelerators, ...).
    fn cpu(name: &str, ops: u64, bytes: u64) -> Layer {
        Layer {
            name: name.to_string(),
            ops,
            bytes,
            accel: None,
        }
    }

    /// Whether the accelerator library covers this layer.
    pub fn is_accelerable(&self) -> bool {
        self.accel.is_some()
    }
}

/// A deep-learning application: a named sequence of layers forming one
/// training step.
#[derive(Debug, Clone, PartialEq)]
pub struct KerasApp {
    /// Application name.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl KerasApp {
    /// Total operations per training step.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.ops).sum()
    }

    /// Operations in accelerable layers.
    fn accelerable_ops(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.is_accelerable())
            .map(|l| l.ops)
            .sum()
    }

    /// Fraction of operations the accelerators cover.
    pub fn accel_coverage(&self) -> f64 {
        if self.total_ops() == 0 {
            0.0
        } else {
            self.accelerable_ops() as f64 / self.total_ops() as f64
        }
    }

    /// Lowers the accelerable layers to an IR kernel of accelerator
    /// invocations (the compiled form the paper's Keras API produces).
    pub fn lower_accelerated(&self) -> Prepared {
        let mut module = Module::new(&self.name);
        let f = module.add_function("train_step", vec![("dummy".into(), Type::I64)], Type::Void);
        let mut b = mosaic_ir::FunctionBuilder::new(module.function_mut(f));
        let e = b.create_block("entry");
        b.switch_to(e);
        for layer in &self.layers {
            if let Some((op, args)) = &layer.accel {
                let operands = args.iter().map(|&a| c64(a)).collect();
                b.accel_call(*op, operands);
            }
        }
        b.ret(None);
        mosaic_ir::verify_module(&module).expect("lowered keras kernel verifies");
        Prepared {
            name: self.name.clone(),
            module,
            func: f,
            args: vec![RtVal::Int(0)],
            mem: MemImage::new(),
        }
    }
}

/// Batch size used by all three applications.
const BATCH: i64 = 32;

/// The residual CNN of §VII-C. Forward convolutions are accelerated;
/// their backward passes are not ("we do not have accelerators for
/// backpropagation of convolutional layers").
fn convnet() -> KerasApp {
    let (h, w) = (32, 32);
    let mut layers = vec![
        Layer::conv("stem.conv", 3 * BATCH, 16, h, w, 3, true),
        Layer::relu("stem.relu", BATCH * 16 * h * w),
        Layer::batchnorm("stem.bn", BATCH * 16 * h * w),
    ];
    for i in 0..3 {
        layers.push(Layer::conv(
            &format!("res{i}.conv1"),
            16 * BATCH,
            16,
            h,
            w,
            3,
            true,
        ));
        layers.push(Layer::relu(&format!("res{i}.relu"), BATCH * 16 * h * w));
        layers.push(Layer::conv(
            &format!("res{i}.conv2"),
            16 * BATCH,
            16,
            h,
            w,
            3,
            true,
        ));
    }
    layers.push(Layer::pool("pool", 16 * BATCH, h, w, 2));
    layers.push(Layer::dense("fc", BATCH, 16 * (h / 2) * (w / 2), 10, true));
    layers.push(Layer::relu("softmax-ish", BATCH * 10));
    // Backward pass: conv backprop has no accelerator; it roughly doubles
    // the conv work and stays on the CPU.
    let conv_fwd_ops: u64 = layers
        .iter()
        .filter(|l| l.name.contains("conv"))
        .map(|l| l.ops)
        .sum();
    let conv_fwd_bytes: u64 = layers
        .iter()
        .filter(|l| l.name.contains("conv"))
        .map(|l| l.bytes)
        .sum();
    layers.push(Layer::cpu(
        "conv.backward (no accelerator)",
        3 * conv_fwd_ops / 2,
        3 * conv_fwd_bytes / 2,
    ));
    layers.push(Layer::dense("fc.backward", BATCH, 10, 16 * 16 * 16, true));
    KerasApp {
        name: "ConvNet".to_string(),
        layers,
    }
}

/// GraphSage (paper §VII-C): random-walk sampling and the CBOW-style
/// embedding step stay on the CPU; the dense/ReLU tower is accelerated.
pub fn graphsage() -> KerasApp {
    let walk_nodes = 4096i64;
    let walk_len = 8i64;
    let dim = 128i64;
    let layers = vec![
        Layer::cpu(
            "random-walk sampling (no accelerator)",
            (walk_nodes * walk_len * 16) as u64,
            (walk_nodes * walk_len * 64) as u64,
        ),
        Layer::embedding("embed.lookup", walk_nodes, dim, false),
        Layer::dense("agg.fc1", BATCH, dim * 2, 256, true),
        Layer::relu("agg.relu1", BATCH * 256),
        Layer::dense("agg.fc2", BATCH, 256, 256, true),
        Layer::relu("agg.relu2", BATCH * 256),
        Layer::dense("out.fc", BATCH, 256, dim, true),
        Layer::dense("agg.fc1.backward", BATCH, 256, dim * 2, true),
        Layer::dense("agg.fc2.backward", BATCH, 256, 256, true),
        Layer::dense("out.fc.backward", BATCH, dim, 256, true),
    ];
    KerasApp {
        name: "GraphSage".to_string(),
        layers,
    }
}

/// RecSys (paper §VII-C): "entirely handled by accelerators", hence the
/// largest EDP improvement.
fn recsys() -> KerasApp {
    let items = 2048i64;
    let hidden = 512i64;
    let layers = vec![
        Layer::dense("fc1", BATCH, items, hidden, true),
        Layer::relu("relu1", BATCH * hidden),
        Layer::batchnorm("bn1", BATCH * hidden),
        Layer::dense("fc2", BATCH, hidden, hidden, true),
        Layer::relu("relu2", BATCH * hidden),
        Layer::batchnorm("bn2", BATCH * hidden),
        Layer::dense("out", BATCH, hidden, items, true),
        Layer::dense("fc1.backward", BATCH, hidden, items, true),
        Layer::dense("fc2.backward", BATCH, hidden, hidden, true),
        Layer::dense("out.backward", BATCH, items, hidden, true),
    ];
    KerasApp {
        name: "RecSys".to_string(),
        layers,
    }
}

/// All three applications in Fig. 14 order.
pub fn all_apps() -> Vec<KerasApp> {
    vec![convnet(), graphsage(), recsys()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_ordering_matches_paper() {
        // RecSys fully accelerated > GraphSage > ConvNet (conv backprop on
        // CPU dominates).
        let c = convnet().accel_coverage();
        let g = graphsage().accel_coverage();
        let r = recsys().accel_coverage();
        assert!(r > 0.99, "RecSys is entirely handled by accelerators: {r}");
        assert!(g > c, "GraphSage ({g:.2}) should exceed ConvNet ({c:.2})");
        assert!(c < 0.55, "ConvNet's backprop dominates: {c:.2}");
    }

    #[test]
    fn lowered_kernels_trace_accel_invocations() {
        for app in all_apps() {
            let p = app.lower_accelerated();
            let (trace, _) = p.trace(1).unwrap();
            let expected = app.layers.iter().filter(|l| l.is_accelerable()).count();
            assert_eq!(
                trace.tile(0).accel_invocations().len(),
                expected,
                "{}",
                app.name
            );
        }
    }

    #[test]
    fn op_counts_are_substantial() {
        for app in all_apps() {
            assert!(app.total_ops() > 1_000_000, "{} too small", app.name);
        }
    }
}
