#include "nn/graph_optimizer.h"

#include <algorithm>

#include "nn/memory_planner.h"
// Header-only metrics core: no link dependency needed for the counters.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

namespace {

void CountFusedOps(int n) {
  static obs::Counter* fused =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.fused_ops");
  fused->Add(n);
}

/// One fusable chain, by forward instr index. Linear chains are
/// MatMul → AddBroadcastRow [→ activation] (act < 0 when only the bias add
/// is folded; mm2/add unused). Dual chains (kFusedDualLinear) are
/// MatMul → MatMul → Add → AddBroadcastRow, with `lin` the AddBroadcastRow.
struct Chain {
  int32_t mm = -1;
  int32_t mm2 = -1;
  int32_t add = -1;
  int32_t lin = -1;
  int32_t act = -1;
  // Dual chains: add.in[0] comes from mm2, not mm (argument evaluation
  // order makes the recorder emit the two MatMuls in either order).
  bool swapped = false;
  OpKind fused_kind = OpKind::kFusedLinear;
};

}  // namespace

std::shared_ptr<const Graph> FuseGraph(const Graph& graph,
                                       FusionStats* stats) {
  auto out = std::make_shared<Graph>(graph);
  Graph& g = *out;
  const int32_t n = static_cast<int32_t>(g.instrs.size());

  // How many forward instrs read each buffer. The graph output is also read
  // externally; chains never fold it (explicit check below).
  std::vector<int32_t> consumers(g.buffers.size(), 0);
  for (const Instr& ins : g.instrs) {
    for (int32_t in : ins.in) consumers[in]++;
  }
  // Position of each instr in the backward program, -1 if absent.
  std::vector<int32_t> bwd_pos(g.instrs.size(), -1);
  for (size_t p = 0; p < g.backward_order.size(); ++p) {
    bwd_pos[g.backward_order[p]] = static_cast<int32_t>(p);
  }

  // Pattern scan. Eager code records nested calls sequentially, so a Linear
  // layer's MatMul / AddBroadcastRow / activation land at adjacent forward
  // indices; non-adjacent matches mean an intervening consumer and are not
  // fusable into one kernel anyway.
  std::vector<Chain> chains;
  std::vector<char> in_chain(g.instrs.size(), 0);
  for (int32_t i = 0; i + 1 < n; ++i) {
    // Dual pattern first: MatMul / MatMul / Add / AddBroadcastRow — the
    // LSTM-gate preactivation x@W + h@U + b. Gradient-free chains only (the
    // fused kernel has no backward).
    if (i + 3 < n) {
      const Instr& mm1 = g.instrs[i];
      const Instr& mm2 = g.instrs[i + 1];
      const Instr& add = g.instrs[i + 2];
      const Instr& lin = g.instrs[i + 3];
      const bool operands_match =
          add.kind == OpKind::kAdd &&
          ((add.in[0] == mm1.out && add.in[1] == mm2.out) ||
           (add.in[0] == mm2.out && add.in[1] == mm1.out));
      if (mm1.kind == OpKind::kMatMul && mm2.kind == OpKind::kMatMul &&
          operands_match && lin.kind == OpKind::kAddBroadcastRow &&
          lin.in[0] == add.out && consumers[mm1.out] == 1 &&
          consumers[mm2.out] == 1 && consumers[add.out] == 1 &&
          mm1.out != g.output_buffer && mm2.out != g.output_buffer &&
          add.out != g.output_buffer && mm1.out_grad < 0 &&
          mm2.out_grad < 0 && add.out_grad < 0 && lin.out_grad < 0) {
        Chain chain;
        chain.mm = i;
        chain.mm2 = i + 1;
        chain.add = i + 2;
        chain.lin = i + 3;
        chain.swapped = add.in[0] == mm2.out;
        chain.fused_kind = OpKind::kFusedDualLinear;
        in_chain[chain.mm] = 1;
        in_chain[chain.mm2] = 1;
        in_chain[chain.add] = 1;
        in_chain[chain.lin] = 1;
        chains.push_back(chain);
        i = chain.lin;
        continue;
      }
    }
    const Instr& mm = g.instrs[i];
    const Instr& lin = g.instrs[i + 1];
    if (mm.kind != OpKind::kMatMul) continue;
    if (lin.kind != OpKind::kAddBroadcastRow) continue;
    if (lin.in[0] != mm.out) continue;
    if (consumers[mm.out] != 1) continue;
    if (mm.out == g.output_buffer) continue;
    // Gradients must be all-or-nothing across the folded boundary, and the
    // intermediate grad must flow only along the chain (guaranteed by the
    // single-consumer check plus the recorder's one-grad-per-value mapping).
    const bool mm_grad = mm.out_grad >= 0;
    const bool lin_grad = lin.out_grad >= 0;
    if (mm_grad != lin_grad) continue;
    if (mm_grad && lin.in_grad[0] != mm.out_grad) continue;

    Chain chain;
    chain.mm = i;
    chain.lin = i + 1;
    chain.fused_kind = OpKind::kFusedLinear;
    // Optionally fold the activation. A near-miss (activation elsewhere,
    // bias sum consumed twice, bias sum is the output) still fuses the
    // MatMul+bias pair — the activation just stays a separate instr.
    if (i + 2 < n) {
      const Instr& act = g.instrs[i + 2];
      const bool act_is_relu = act.kind == OpKind::kRelu;
      const bool act_is_tanh = act.kind == OpKind::kTanh;
      if ((act_is_relu || act_is_tanh) && act.in[0] == lin.out &&
          consumers[lin.out] == 1 && lin.out != g.output_buffer &&
          (act.out_grad >= 0) == lin_grad &&
          (!lin_grad || act.in_grad[0] == lin.out_grad)) {
        chain.act = i + 2;
        chain.fused_kind = act_is_relu ? OpKind::kFusedLinearRelu
                                       : OpKind::kFusedLinearTanh;
      }
    }
    // Training chains additionally require contiguous backward steps, in
    // the mirrored order (last op's backward first), so collapsing them
    // into one backward step preserves the surrounding accumulation order.
    if (mm_grad) {
      const int32_t last = chain.act >= 0 ? chain.act : chain.lin;
      int32_t p = bwd_pos[last];
      if (p < 0) continue;
      if (chain.act >= 0) {
        if (bwd_pos[chain.lin] != p + 1 || bwd_pos[chain.mm] != p + 2) {
          continue;
        }
      } else if (bwd_pos[chain.mm] != p + 1) {
        continue;
      }
    }
    in_chain[chain.mm] = 1;
    in_chain[chain.lin] = 1;
    if (chain.act >= 0) in_chain[chain.act] = 1;
    chains.push_back(chain);
    i = chain.act >= 0 ? chain.act : chain.lin;  // resume after the chain
  }

  if (chains.empty()) {
    if (stats != nullptr) *stats = FusionStats{};
    return out;
  }

  // Rebuild the forward program: chain members collapse into one fused
  // instr; everything else is kept verbatim. Buffer ids are stable — the
  // collapsed intermediates simply become unreferenced, and the re-plan
  // below drops them from the arena (birth stays -1).
  FusionStats local;
  std::vector<Instr> new_instrs;
  new_instrs.reserve(g.instrs.size());
  std::vector<int32_t> new_index(g.instrs.size(), -1);
  size_t next_chain = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (in_chain[i]) {
      CHECK_LT(next_chain, chains.size());
      const Chain& chain = chains[next_chain++];
      CHECK_EQ(chain.mm, i);
      if (chain.fused_kind == OpKind::kFusedDualLinear) {
        // The kernel's x/W operands must be the pair feeding add.in[0] so
        // the (x@W + h@U) + b epilogue reproduces the eager Add bitwise.
        const Instr& mm1 = g.instrs[chain.swapped ? chain.mm2 : chain.mm];
        const Instr& mm2 = g.instrs[chain.swapped ? chain.mm : chain.mm2];
        const Instr& lin = g.instrs[chain.lin];
        Instr fused;
        fused.kind = OpKind::kFusedDualLinear;
        fused.in = {mm1.in[0], mm2.in[0], mm1.in[1], mm2.in[1], lin.in[1]};
        fused.in_grad = {-1, -1, -1, -1, -1};
        fused.out = lin.out;
        fused.out_grad = -1;
        // Forward-time temp for the h@U product (the x@W product lands in
        // the output buffer).
        BufferDesc aux;
        aux.kind = BufferDesc::Kind::kAux;
        aux.rows = g.buffers[fused.out].rows;
        aux.cols = g.buffers[fused.out].cols;
        fused.aux = static_cast<int32_t>(g.buffers.size());
        g.buffers.push_back(aux);
        const int32_t fused_index = static_cast<int32_t>(new_instrs.size());
        new_index[chain.mm] = fused_index;
        new_index[chain.mm2] = fused_index;
        new_index[chain.add] = fused_index;
        new_index[chain.lin] = fused_index;
        local.fused_dual_linear++;
        new_instrs.push_back(std::move(fused));
        i = chain.lin;
        continue;
      }
      const Instr& mm = g.instrs[chain.mm];
      const Instr& lin = g.instrs[chain.lin];
      const Instr& last = g.instrs[chain.act >= 0 ? chain.act : chain.lin];
      Instr fused;
      fused.kind = chain.fused_kind;
      fused.in = {mm.in[0], mm.in[1], lin.in[1]};
      fused.in_grad = {mm.in_grad[0], mm.in_grad[1], lin.in_grad[1]};
      fused.out = last.out;
      fused.out_grad = last.out_grad;
      if (fused.out_grad >= 0) {
        // Backward needs the pre-activation values for ReLU (its own output
        // is post-activation) ...
        if (chain.fused_kind == OpKind::kFusedLinearRelu) {
          BufferDesc aux;
          aux.kind = BufferDesc::Kind::kAux;
          aux.rows = g.buffers[fused.out].rows;
          aux.cols = g.buffers[fused.out].cols;
          fused.aux = static_cast<int32_t>(g.buffers.size());
          g.buffers.push_back(aux);
        }
        // ... and scratch for the intermediate gradient plus the GEMM temp
        // (same temp-then-accumulate discipline as the MatMul backward).
        size_t temp = 0;
        if (fused.in_grad[0] >= 0) {
          temp = std::max(temp, g.buffers[fused.in[0]].size());
        }
        if (fused.in_grad[1] >= 0) {
          temp = std::max(temp, g.buffers[fused.in[1]].size());
        }
        BufferDesc scratch;
        scratch.kind = BufferDesc::Kind::kScratch;
        scratch.rows = 1;
        scratch.cols =
            static_cast<uint32_t>(g.buffers[fused.out].size() + temp);
        fused.scratch = static_cast<int32_t>(g.buffers.size());
        g.buffers.push_back(scratch);
      }
      const int32_t fused_index = static_cast<int32_t>(new_instrs.size());
      new_index[chain.mm] = fused_index;
      new_index[chain.lin] = fused_index;
      if (chain.act >= 0) new_index[chain.act] = fused_index;
      switch (chain.fused_kind) {
        case OpKind::kFusedLinear:
          local.fused_linear++;
          break;
        case OpKind::kFusedLinearRelu:
          local.fused_linear_relu++;
          break;
        default:
          local.fused_linear_tanh++;
          break;
      }
      new_instrs.push_back(std::move(fused));
      i = chain.act >= 0 ? chain.act : chain.lin;
    } else {
      new_index[i] = static_cast<int32_t>(new_instrs.size());
      new_instrs.push_back(g.instrs[i]);
    }
  }
  g.instrs = std::move(new_instrs);

  // Backward program: remap and collapse the (contiguous, verified above)
  // chain steps into one.
  std::vector<int32_t> new_backward;
  new_backward.reserve(g.backward_order.size());
  for (int32_t old : g.backward_order) {
    const int32_t remapped = new_index[old];
    CHECK_GE(remapped, 0);
    if (!new_backward.empty() && new_backward.back() == remapped) continue;
    new_backward.push_back(remapped);
  }
  g.backward_order = std::move(new_backward);

  // First-write zeroing moved with the collapsed grads; recompute, then
  // re-plan the arena (the dead intermediates shrink it).
  ComputeZeroBefore(&g, g.output_grad_buffer);
  PlanMemory(&g);

  CountFusedOps(local.total());
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace hisrect::nn
