#ifndef HISRECT_NN_OPS_H_
#define HISRECT_NN_OPS_H_

#include <cstddef>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace hisrect::nn {

// All ops are pure graph builders: they compute the forward value eagerly and
// register a backward closure on the returned tensor. Shapes are checked with
// CHECKs (shape errors are programming errors, not runtime conditions).

/// (r x k) * (k x c) -> (r x c).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Element-wise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// Element-wise a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Element-wise a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// x + row for every row of x. Shapes: (T x n) + (1 x n) -> (T x n).
Tensor AddBroadcastRow(const Tensor& x, const Tensor& row);

/// x * row element-wise per row. Shapes: (T x n) * (1 x n) -> (T x n).
Tensor MulBroadcastRow(const Tensor& x, const Tensor& row);

/// s * x for a compile-time-known constant s (no gradient w.r.t. s).
Tensor Scale(const Tensor& x, float s);

/// max(0, x) element-wise.
Tensor Relu(const Tensor& x);

/// tanh(x) element-wise.
Tensor Tanh(const Tensor& x);

/// 1 / (1 + exp(-x)) element-wise.
Tensor Sigmoid(const Tensor& x);

/// |x| element-wise (subgradient 0 at 0).
Tensor Abs(const Tensor& x);

/// Horizontal concatenation: (r x n) ++ (r x m) -> (r x (n + m)).
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Column slice: keeps columns [start, start + count).
Tensor SliceCols(const Tensor& x, size_t start, size_t count);

/// Row slice: keeps rows [start, start + count).
Tensor SliceRows(const Tensor& x, size_t start, size_t count);

/// Stacks T row vectors (each 1 x n) into a (T x n) matrix.
Tensor RowStack(const std::vector<Tensor>& rows);

/// Column-wise mean over rows: (T x n) -> (1 x n).
Tensor MeanRows(const Tensor& x);

/// Sum of all elements -> (1 x 1).
Tensor SumAll(const Tensor& x);

/// Mean of all elements -> (1 x 1).
Tensor MeanAll(const Tensor& x);

/// Row vector scaled to unit L2 norm (identity for a zero vector).
/// Input must be (1 x n).
Tensor L2NormalizeRow(const Tensor& x);

/// Inner product of two (1 x n) row vectors -> (1 x 1).
Tensor Dot(const Tensor& a, const Tensor& b);

/// ||a - b||^2 for two same-shape tensors -> (1 x 1).
Tensor SquaredL2Diff(const Tensor& a, const Tensor& b);

/// Softmax cross-entropy of a (1 x C) logit row against the class whose
/// float-encoded index `target`, a non-differentiable (1 x 1) tensor, holds;
/// returns the (1 x 1) loss. Numerically stabilized (max subtraction). The
/// target is an operand, not an attribute, so it can vary per execution
/// when the graph is replayed from a recorded plan.
Tensor SoftmaxCrossEntropy(const Tensor& logits, const Tensor& target);

/// Binary cross-entropy of a (1 x 1) logit against the label in {0, 1} held
/// by `label`, a non-differentiable (1 x 1) tensor (an operand, so it can
/// vary per replay); returns the (1 x 1) loss. Numerically stabilized.
Tensor SigmoidBinaryCrossEntropy(const Tensor& logit, const Tensor& label);

/// x * s for a non-differentiable (1 x 1) scale tensor — the plan-friendly
/// form of Scale for scales that vary per execution (e.g. pair weights).
Tensor MulScalar(const Tensor& x, const Tensor& s);

/// Inverted dropout: at training time zeroes each element with probability
/// `drop_rate` and scales survivors by 1 / keep; identity at inference.
Tensor Dropout(const Tensor& x, float drop_rate, util::Rng& rng,
               bool training);

/// Same-padded 1-D convolution of a (1 x n) row with a (1 x k) kernel
/// (k odd). Zero padding; output is (1 x n).
Tensor Conv1dSame(const Tensor& x, const Tensor& kernel);

/// Forward-only helpers (no graph):

/// Softmax of a (1 x C) row, numerically stabilized.
Matrix SoftmaxValues(const Matrix& logits);

/// Scalar sigmoid.
float SigmoidValue(float x);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_OPS_H_
