#ifndef HISRECT_NN_GRAPH_OPTIMIZER_H_
#define HISRECT_NN_GRAPH_OPTIMIZER_H_

#include <memory>

#include "nn/graph_ir.h"

namespace hisrect::nn {

/// Graph rewrite passes over recorded plans (DESIGN.md §12).
///
/// FuseGraph pattern-matches adjacent MatMul → AddBroadcastRow
/// [→ Relu|Tanh] chains — the shape every nn::Linear/Mlp layer records —
/// and collapses each into a single kFusedLinear* instr. Fusion is legal
/// only when the intermediates are single-consumer, are not the graph
/// output, and (for training graphs) the chain's backward steps are
/// contiguous with all-or-nothing gradients; near-miss chains are left
/// untouched. Fused plans are re-memory-planned (the collapsed
/// intermediates free their arena intervals) and stay bitwise-identical to
/// the eager tape, forward and backward.
///
/// Inference plans additionally fuse the LSTM-gate preactivation shape
/// AddBroadcastRow(Add(MatMul(x, W), MatMul(h, U)), b) — four instrs — into
/// one kFusedDualLinear. That pattern is gradient-free only (gates dominate
/// the unrolled recurrent featurizer at serving time; training plans keep
/// the unfused chain so the backward accumulation order is untouched).

struct FusionStats {
  int fused_linear = 0;
  int fused_linear_relu = 0;
  int fused_linear_tanh = 0;
  int fused_dual_linear = 0;
  int total() const {
    return fused_linear + fused_linear_relu + fused_linear_tanh +
           fused_dual_linear;
  }
};

/// Returns a fused, re-planned copy of `graph` (the input is not modified).
/// Increments `hisrect.nn.fused_ops` by the number of fused instrs emitted.
std::shared_ptr<const Graph> FuseGraph(const Graph& graph,
                                       FusionStats* stats = nullptr);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_GRAPH_OPTIMIZER_H_
