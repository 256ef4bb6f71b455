#ifndef HISRECT_NN_GRAPH_IR_H_
#define HISRECT_NN_GRAPH_IR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace hisrect::nn {

/// Recorded graph IR: one eager tape execution captured as a static list of
/// op instructions over symbolic buffer ids, replayable by PlanExecutor with
/// zero allocations (graph_recorder.h records, memory_planner.h assigns
/// arena offsets, plan_executor.h replays).
///
/// Every op kind mirrors exactly one tape op in ops.cc: the plan kernels in
/// graph_ir.cc reproduce the eager per-element arithmetic (same expressions,
/// same loop order, same float/double accumulators), and matmuls go through
/// the shared raw-pointer kernels in matrix.h — so a plan replay is bitwise
/// identical to the tape it was recorded from. tests/plan_test.cc and
/// tests/determinism_test.cc pin that contract.
enum class OpKind : uint8_t {
  kMatMul = 0,
  kAdd,
  kSub,
  kMul,
  kAddBroadcastRow,
  kMulBroadcastRow,
  kScale,           // fattr = scale
  kRelu,
  kTanh,
  kSigmoid,
  kAbs,
  kConcatCols,
  kSliceCols,       // iattr0 = start, iattr1 = count
  kSliceRows,       // iattr0 = start, iattr1 = count
  kRowStack,        // variadic
  kMeanRows,
  kSumAll,
  kL2NormalizeRow,
  kDot,
  kSoftmaxCrossEntropy,        // in[1] = 1x1 float-encoded target class
  kSigmoidBinaryCrossEntropy,  // in[1] = 1x1 label
  kDropout,                    // fattr = drop rate; draws from executor rng
  kConv1dSame,
  kMulScalar,                  // in[1] is a 1x1 non-grad scalar tensor
  // Fused kernels, emitted only by GraphOptimizer (graph_optimizer.h) — the
  // recorder never produces them. in = [x, W, bias]; forward and backward
  // are bitwise-identical to the unfused MatMul/AddBroadcastRow/activation
  // composition they replace.
  kFusedLinear,      // MatMul + AddBroadcastRow
  kFusedLinearRelu,  // MatMul + AddBroadcastRow + Relu
  kFusedLinearTanh,  // MatMul + AddBroadcastRow + Tanh
  // LSTM-gate preactivation, inference plans only: in = [x, h, W, U, bias],
  // out = AddBroadcastRow(Add(MatMul(x, W), MatMul(h, U)), bias) bitwise.
  // Forward-only: its schema has no backward (GraphOptimizer only emits it
  // into gradient-free chains).
  kFusedDualLinear,
  kNumOpKinds,
};

/// Symbolic buffer. `kind` says where the executor resolves the pointer:
/// arena kinds resolve to `arena + offset`; param kinds chase the live
/// parameter Node each execution (safe across checkpoint restore, which
/// reassigns parameter matrices); inputs come from the per-run input list;
/// constants from the graph's constant pool.
struct BufferDesc {
  enum class Kind : uint8_t {
    kArena = 0,   // op output value, arena-planned
    kArenaGrad,   // grad of an arena value, arena-planned
    kAux,         // op side-band (dropout mask, softmax probs), arena-planned
    kScratch,     // transient backward workspace, arena-planned
    kParamValue,  // ref = index into Graph::params
    kParamGrad,   // ref = index into Graph::params
    kInput,       // ref = index into the per-run input pointer list
    kConstant,    // ref = float offset into Graph::constants
  };
  Kind kind = Kind::kArena;
  uint32_t rows = 0;
  uint32_t cols = 0;
  uint32_t ref = 0;
  // Arena-planned kinds only, assigned by MemoryPlanner (float offset).
  size_t offset = 0;
  size_t size() const { return static_cast<size_t>(rows) * cols; }
};

/// One recorded op. `in`/`in_grad` are parallel: in_grad[k] is the gradient
/// buffer of in[k], or -1 when that operand needs no gradient. `out_grad`
/// is -1 for ops whose output needs no gradient (forward-only subgraphs and
/// eval plans). `aux`/`scratch` are -1 unless the op kind uses them.
struct Instr {
  OpKind kind = OpKind::kNumOpKinds;
  int32_t out = -1;
  int32_t out_grad = -1;
  int32_t aux = -1;
  int32_t scratch = -1;
  std::vector<int32_t> in;
  std::vector<int32_t> in_grad;
  float fattr = 0.0f;
  int64_t iattr0 = 0;
  int64_t iattr1 = 0;
};

/// A recorded, memory-planned computation. Immutable after
/// GraphRecorder::Finish; shared by value across threads (execution state
/// lives in PlanRun, not here — replaying a Graph is const and re-entrant).
struct Graph {
  bool training = false;
  std::vector<BufferDesc> buffers;
  /// Forward program, in recorded (execution) order.
  std::vector<Instr> instrs;
  /// Backward program: instr indices in execution order (empty when not
  /// training). Mirrors the eager tape's reversed post-order DFS.
  std::vector<int32_t> backward_order;
  /// zero_before[p]: arena grad buffers first written at backward step p —
  /// the executor zeroes them right before running that step. (Grad slots
  /// are arena-reused, so zeroing everything up front would be undone.)
  std::vector<std::vector<int32_t>> zero_before;
  /// Trainable leaves bound at record time. Values/grads are read through
  /// the Node on every execution, so optimizer steps and checkpoint
  /// restores are picked up automatically.
  std::vector<std::shared_ptr<Tensor::Node>> params;
  /// Pool for non-trainable non-input leaves (values baked at record time).
  std::vector<float> constants;
  /// Number of per-run input pointers the executor expects.
  size_t num_inputs = 0;
  /// The value buffer holding the recorded output (pinned live to the end).
  int32_t output_buffer = -1;
  /// Its gradient buffer (training graphs; receives the backward seed).
  int32_t output_grad_buffer = -1;
  /// Arena size in floats, from MemoryPlanner.
  size_t arena_floats = 0;
  /// Planner debug info for tests: per-buffer [birth, death] positions on
  /// the unified forward+backward timeline; {-1, -1} for buffers that are
  /// not arena-planned (or never used).
  std::vector<std::pair<int32_t, int32_t>> live;
};

class PlanInputs;

/// Resolved per-execution state handed to kernels.
struct ExecState {
  const Graph* graph = nullptr;
  float* arena = nullptr;
  const std::vector<const float*>* inputs = nullptr;
  util::Rng* rng = nullptr;  // consumed by kDropout only

  float* Ptr(int32_t buffer_id) const;
};

/// Per-op schema: registry entry carrying the op's name, arity bounds,
/// shape inference (used to validate recorded graphs), kernels, and the
/// liveness flags MemoryPlanner needs.
struct OpSchema {
  const char* name = "?";
  uint8_t min_arity = 1;
  uint8_t max_arity = 1;
  /// Returns the output shape for the given input shapes + attrs, or
  /// {0, 0} when the combination is invalid.
  std::pair<uint32_t, uint32_t> (*infer_shape)(
      const Instr& instr, const std::vector<BufferDesc>& buffers) = nullptr;
  void (*forward)(const Graph& g, const Instr& instr,
                  const ExecState& st) = nullptr;
  /// Null for forward-only ops (kFusedDualLinear); MemoryPlanner CHECK-fails
  /// on a backward step of such a kind.
  void (*backward)(const Graph& g, const Instr& instr,
                   const ExecState& st) = nullptr;
  /// Backward reads the op's own output value (Tanh/Sigmoid/L2NormalizeRow).
  bool needs_self_value_bwd = false;
  /// Backward reads input values (MatMul/Mul/Relu/...).
  bool needs_parent_values_bwd = false;
  /// Aux buffer shape, or {0, 0} when the op has none.
  std::pair<uint32_t, uint32_t> (*aux_shape)(
      const Instr& instr, const std::vector<BufferDesc>& buffers) = nullptr;
};

/// Registry lookup; CHECK-fails on an out-of-range kind.
const OpSchema& GetOpSchema(OpKind kind);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_GRAPH_IR_H_
