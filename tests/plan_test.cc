#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "nn/graph_ir.h"
#include "nn/graph_recorder.h"
#include "nn/matrix.h"
#include "nn/memory_planner.h"
#include "nn/ops.h"
#include "nn/plan_executor.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "tests/test_common.h"
#include "util/rng.h"

namespace hisrect {
namespace {

using nn::Tensor;
using testing::ExpectBitwiseEqual;

// ---------------------------------------------------------------------------
// A small net that exercises every op kind in the registry, with diamond
// sharing (h2 feeds three consumers) and a same-node Mul (SquaredL2Diff).
// ---------------------------------------------------------------------------

struct TestNet {
  Tensor w1;     // 6x8
  Tensor b1;     // 1x8
  Tensor w2;     // 8x4
  Tensor kconv;  // 1x3
  Tensor vecp;   // 1x8

  std::vector<Tensor*> Params() { return {&w1, &b1, &w2, &kconv, &vecp}; }
};

nn::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
  }
  return m;
}

TestNet MakeNet(uint64_t seed) {
  util::Rng rng(seed);
  TestNet net;
  net.w1 = Tensor::FromMatrix(RandomMatrix(6, 8, rng), /*requires_grad=*/true);
  net.b1 = Tensor::FromMatrix(RandomMatrix(1, 8, rng), /*requires_grad=*/true);
  net.w2 = Tensor::FromMatrix(RandomMatrix(8, 4, rng), /*requires_grad=*/true);
  net.kconv =
      Tensor::FromMatrix(RandomMatrix(1, 3, rng), /*requires_grad=*/true);
  net.vecp =
      Tensor::FromMatrix(RandomMatrix(1, 8, rng), /*requires_grad=*/true);
  return net;
}

// Inputs: declared (and bound at replay) in the order x, weight, target,
// label. `weight`/`target`/`label` are 1x1 non-grad tensors so they stay
// symbolic instead of getting baked into the plan's constant pool.
Tensor Forward(TestNet& net, const Tensor& x, const Tensor& weight,
               const Tensor& target, const Tensor& label, util::Rng& rng,
               bool training) {
  nn::RecordPlanInput(x);
  nn::RecordPlanInput(weight);
  nn::RecordPlanInput(target);
  nn::RecordPlanInput(label);

  Tensor h1 = nn::AddBroadcastRow(nn::MatMul(x, net.w1), net.b1);  // 1x8
  Tensor h2 = nn::Tanh(h1);
  Tensor r = nn::Relu(h1);
  Tensor s = nn::Sigmoid(h1);
  Tensor m = nn::Mul(r, s);
  Tensor ab = nn::Abs(nn::Sub(h2, m));
  Tensor c = nn::ConcatCols(m, ab);                       // 1x16
  Tensor sc = nn::SliceCols(c, 4, 8);                     // 1x8
  Tensor st = nn::RowStack({h2, sc});                     // 2x8
  Tensor mb = nn::MulBroadcastRow(st, net.vecp);          // 2x8
  Tensor ad = nn::Add(nn::MeanRows(mb), nn::SliceRows(st, 1, 1));  // 1x8
  Tensor dp = nn::Dropout(ad, 0.25f, rng, training);
  Tensor nz = nn::L2NormalizeRow(dp);
  Tensor cv = nn::Conv1dSame(nz, net.kconv);              // 1x8
  Tensor dt = nn::Dot(cv, h2);                            // 1x1
  Tensor logits = nn::MatMul(nz, net.w2);                 // 1x4
  Tensor sce = nn::SoftmaxCrossEntropy(logits, target);
  Tensor sbce =
      nn::SigmoidBinaryCrossEntropy(nn::SliceCols(logits, 0, 1), label);
  Tensor sq = nn::SquaredL2Diff(cv, h2);
  Tensor extras = nn::Add(nn::SumAll(mb), nn::MeanAll(st));
  Tensor w = nn::MulScalar(dt, weight);
  Tensor loss = nn::Scale(
      nn::Add(nn::Add(w, sce), nn::Add(nn::Add(sbce, sq), extras)), 0.5f);
  return loss;
}

Tensor ScalarInput(float value) {
  nn::Matrix m(1, 1);
  m.At(0, 0) = value;
  return Tensor::FromMatrix(std::move(m));
}

void BindInputs(nn::PlanRun& run, const nn::Matrix& x, float weight,
                float target, float label) {
  run.inputs.Reset();
  run.inputs.AddDirect(x.data());
  run.inputs.AddStaged(&weight, 1);
  run.inputs.AddStaged(&target, 1);
  run.inputs.AddStaged(&label, 1);
}

struct EagerResult {
  float loss = 0.0f;
  std::vector<nn::Matrix> grads;
};

// Runs the eager reference (forward + backward), captures the result, and
// zeroes the parameter grads again so the caller starts clean.
EagerResult EagerReference(TestNet& net, const nn::Matrix& xv, float weight,
                           float target, float label, util::Rng rng) {
  Tensor x = Tensor::FromMatrix(xv);
  Tensor loss = Forward(net, x, ScalarInput(weight), ScalarInput(target),
                        ScalarInput(label), rng, /*training=*/true);
  loss.Backward();
  EagerResult result;
  result.loss = loss.value().At(0, 0);
  for (Tensor* p : net.Params()) {
    result.grads.push_back(p->grad());
    p->ZeroGrad();
  }
  return result;
}

std::shared_ptr<const nn::Graph> RecordPlan(TestNet& net, const nn::Matrix& xv,
                                            float weight, float target,
                                            float label, util::Rng rng,
                                            bool training) {
  nn::GraphRecorder recorder(training);
  Tensor x = Tensor::FromMatrix(xv);
  Tensor loss = Forward(net, x, ScalarInput(weight), ScalarInput(target),
                        ScalarInput(label), rng, training);
  return recorder.Finish(loss);
}

int64_t TensorAllocs() {
  return obs::MetricsRegistry::Global()
      .GetCounter("hisrect.nn.tensor_allocs")
      ->Value();
}

TEST(PlanRegistryTest, EveryOpKindIsRegistered) {
  for (uint8_t k = 0; k < static_cast<uint8_t>(nn::OpKind::kNumOpKinds); ++k) {
    const nn::OpKind kind = static_cast<nn::OpKind>(k);
    const nn::OpSchema& schema = nn::GetOpSchema(kind);
    EXPECT_STRNE(schema.name, "?") << "kind " << static_cast<int>(k);
    EXPECT_NE(schema.forward, nullptr) << schema.name;
    // Exactly one kind is forward-only: the inference-plan dual linear.
    if (kind == nn::OpKind::kFusedDualLinear) {
      EXPECT_EQ(schema.backward, nullptr) << schema.name;
    } else {
      EXPECT_NE(schema.backward, nullptr) << schema.name;
    }
    EXPECT_NE(schema.infer_shape, nullptr) << schema.name;
    EXPECT_GE(schema.max_arity, schema.min_arity) << schema.name;
  }
}

// A training plan whose backward program reaches a forward-only kind is
// rejected when its memory is planned, before any kernel could run.
TEST(PlanRegistryDeathTest, PlannerRejectsBackwardThroughForwardOnlyKind) {
  using Kind = nn::BufferDesc::Kind;
  nn::Graph g;
  g.training = true;
  auto add_buffer = [&g](Kind kind, uint32_t rows, uint32_t ref) {
    nn::BufferDesc b;
    b.kind = kind;
    b.rows = rows;
    b.cols = 2;
    b.ref = ref;
    g.buffers.push_back(b);
    return static_cast<int32_t>(g.buffers.size()) - 1;
  };
  // in = [x 1x2, h 1x2, W 2x2, U 2x2, bias 1x2], all per-run inputs.
  nn::Instr dual;
  dual.kind = nn::OpKind::kFusedDualLinear;
  for (uint32_t i = 0; i < 5; ++i) {
    dual.in.push_back(add_buffer(Kind::kInput, i == 2 || i == 3 ? 2 : 1, i));
    dual.in_grad.push_back(-1);
  }
  dual.out = add_buffer(Kind::kArena, 1, 0);
  dual.out_grad = add_buffer(Kind::kArenaGrad, 1, 0);
  dual.aux = add_buffer(Kind::kAux, 1, 0);
  g.instrs.push_back(dual);
  g.backward_order = {0};
  g.num_inputs = 5;
  g.output_buffer = dual.out;
  g.output_grad_buffer = dual.out_grad;
  nn::ComputeZeroBefore(&g, g.output_grad_buffer);
  EXPECT_DEATH(nn::PlanMemory(&g), "forward-only op FusedDualLinear");
}

TEST(PlanTest, ForwardAndBackwardBitwiseMatchEagerTape) {
  util::Rng base(42);  // dropout stream, shared by all three runs
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  const float weight = 2.5f, target = 2.0f, label = 1.0f;

  EagerResult eager = EagerReference(net, xv, weight, target, label, base);

  auto plan = RecordPlan(net, xv, weight, target, label, base,
                         /*training=*/true);
  ASSERT_EQ(plan->params.size(), 5u);
  ASSERT_EQ(plan->num_inputs, 4u);
  ASSERT_TRUE(plan->training);
  ASSERT_FALSE(plan->backward_order.empty());
  ASSERT_GT(plan->arena_floats, 0u);

  nn::PlanRun run;
  BindInputs(run, xv, weight, target, label);
  util::Rng replay_rng = base;
  nn::PlanExecutor::Forward(*plan, run, &replay_rng);
  ExpectBitwiseEqual(eager.loss, nn::PlanExecutor::OutputScalar(*plan, run),
                     "loss");

  nn::PlanExecutor::Backward(*plan, run, 1.0f);
  std::vector<Tensor*> params = net.Params();
  for (size_t i = 0; i < params.size(); ++i) {
    ExpectBitwiseEqual(eager.grads[i], params[i]->grad(),
                       "param grad " + std::to_string(i));
    params[i]->ZeroGrad();
  }

  // The arena high-water gauge reflects at least this plan.
  EXPECT_GE(obs::MetricsRegistry::Global()
                .GetGauge("hisrect.nn.arena_bytes")
                ->Value(),
            static_cast<int64_t>(plan->arena_floats * sizeof(float)));
}

TEST(PlanTest, ReplayWithReboundInputsMatchesFreshEager) {
  util::Rng base(42);
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);

  auto plan = RecordPlan(net, xv, 2.5f, 2.0f, 1.0f, base, /*training=*/true);

  // New input values, new dropout stream — the single recorded plan must
  // track both.
  nn::Matrix xv2 = RandomMatrix(1, 6, data_rng);
  const float weight2 = -0.75f, target2 = 3.0f, label2 = 0.0f;
  util::Rng base2(1234);
  EagerResult eager =
      EagerReference(net, xv2, weight2, target2, label2, base2);

  nn::PlanRun run;
  BindInputs(run, xv2, weight2, target2, label2);
  util::Rng replay_rng = base2;
  nn::PlanExecutor::Forward(*plan, run, &replay_rng);
  ExpectBitwiseEqual(eager.loss, nn::PlanExecutor::OutputScalar(*plan, run),
                     "loss");
  nn::PlanExecutor::Backward(*plan, run, 1.0f);
  std::vector<Tensor*> params = net.Params();
  for (size_t i = 0; i < params.size(); ++i) {
    ExpectBitwiseEqual(eager.grads[i], params[i]->grad(),
                       "param grad " + std::to_string(i));
    params[i]->ZeroGrad();
  }
}

TEST(PlanTest, EvalPlanTracksParameterUpdates) {
  util::Rng base(42);
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);

  auto plan = RecordPlan(net, xv, 1.0f, 1.0f, 1.0f, base, /*training=*/false);
  EXPECT_TRUE(plan->backward_order.empty());
  EXPECT_EQ(plan->output_grad_buffer, -1);

  // An optimizer-style in-place parameter update must be visible to the next
  // replay (param buffers resolve through the live Node, not a snapshot).
  for (Tensor* p : net.Params()) {
    nn::Matrix& v = p->mutable_value();
    for (size_t i = 0; i < v.size(); ++i) v.data()[i] += 0.01f;
  }

  util::Rng unused(0);
  Tensor x = Tensor::FromMatrix(xv);
  Tensor eager = Forward(net, x, ScalarInput(1.0f), ScalarInput(1.0f),
                         ScalarInput(1.0f), unused, /*training=*/false);

  nn::PlanRun run;
  BindInputs(run, xv, 1.0f, 1.0f, 1.0f);
  nn::PlanExecutor::Forward(*plan, run, /*rng=*/nullptr);
  ExpectBitwiseEqual(eager.value().At(0, 0),
                     nn::PlanExecutor::OutputScalar(*plan, run), "eval loss");
}

TEST(PlanTest, RecordingIsDeterministic) {
  util::Rng base(42);
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);

  auto a = RecordPlan(net, xv, 2.5f, 2.0f, 1.0f, base, /*training=*/true);
  auto b = RecordPlan(net, xv, 2.5f, 2.0f, 1.0f, base, /*training=*/true);

  ASSERT_EQ(a->instrs.size(), b->instrs.size());
  ASSERT_EQ(a->buffers.size(), b->buffers.size());
  EXPECT_EQ(a->arena_floats, b->arena_floats);
  EXPECT_EQ(a->backward_order, b->backward_order);
  for (size_t i = 0; i < a->buffers.size(); ++i) {
    EXPECT_EQ(a->buffers[i].kind, b->buffers[i].kind) << "buffer " << i;
    EXPECT_EQ(a->buffers[i].offset, b->buffers[i].offset) << "buffer " << i;
    EXPECT_EQ(a->buffers[i].rows, b->buffers[i].rows) << "buffer " << i;
    EXPECT_EQ(a->buffers[i].cols, b->buffers[i].cols) << "buffer " << i;
  }
  for (size_t i = 0; i < a->instrs.size(); ++i) {
    EXPECT_EQ(a->instrs[i].kind, b->instrs[i].kind) << "instr " << i;
    EXPECT_EQ(a->instrs[i].out, b->instrs[i].out) << "instr " << i;
    EXPECT_EQ(a->instrs[i].in, b->instrs[i].in) << "instr " << i;
  }
}

TEST(PlanTest, LiveBuffersNeverShareArenaStorage) {
  util::Rng base(42);
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto plan = RecordPlan(net, xv, 2.5f, 2.0f, 1.0f, base, /*training=*/true);

  constexpr size_t kAlignFloats = 16;  // mirror of the planner's alignment
  auto aligned = [](size_t floats) {
    return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  };
  auto arena_planned = [](const nn::BufferDesc& d) {
    return d.kind == nn::BufferDesc::Kind::kArena ||
           d.kind == nn::BufferDesc::Kind::kArenaGrad ||
           d.kind == nn::BufferDesc::Kind::kAux ||
           d.kind == nn::BufferDesc::Kind::kScratch;
  };

  ASSERT_EQ(plan->live.size(), plan->buffers.size());
  size_t checked_pairs = 0;
  for (size_t i = 0; i < plan->buffers.size(); ++i) {
    if (!arena_planned(plan->buffers[i]) || plan->live[i].first < 0) continue;
    for (size_t j = i + 1; j < plan->buffers.size(); ++j) {
      if (!arena_planned(plan->buffers[j]) || plan->live[j].first < 0) {
        continue;
      }
      bool overlap_live = plan->live[i].first <= plan->live[j].second &&
                          plan->live[j].first <= plan->live[i].second;
      if (!overlap_live) continue;
      size_t ai = plan->buffers[i].offset;
      size_t bi = ai + aligned(plan->buffers[i].size());
      size_t aj = plan->buffers[j].offset;
      size_t bj = aj + aligned(plan->buffers[j].size());
      EXPECT_TRUE(bi <= aj || bj <= ai)
          << "buffers " << i << " and " << j << " are live together but share "
          << "arena storage: [" << ai << "," << bi << ") vs [" << aj << ","
          << bj << ")";
      ++checked_pairs;
    }
  }
  EXPECT_GT(checked_pairs, 0u);

  // The copy-shaped ops (slice/concat) additionally must never read and
  // write overlapping storage within one instr.
  size_t checked_copies = 0;
  for (const nn::Instr& ins : plan->instrs) {
    if (ins.kind != nn::OpKind::kSliceCols &&
        ins.kind != nn::OpKind::kSliceRows &&
        ins.kind != nn::OpKind::kConcatCols) {
      continue;
    }
    size_t ao = plan->buffers[ins.out].offset;
    size_t bo = ao + aligned(plan->buffers[ins.out].size());
    for (int32_t in : ins.in) {
      if (!arena_planned(plan->buffers[in])) continue;
      size_t ai = plan->buffers[in].offset;
      size_t bi = ai + aligned(plan->buffers[in].size());
      EXPECT_TRUE(bo <= ai || bi <= ao) << "slice/concat aliases its operand";
      ++checked_copies;
    }
  }
  EXPECT_GT(checked_copies, 0u);
}

TEST(PlanTest, SteadyStateReplayAllocatesNoTensors) {
  util::Rng base(42);
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto plan = RecordPlan(net, xv, 2.5f, 2.0f, 1.0f, base, /*training=*/true);

  // Warmup: sizes the arena (the one allowed allocation).
  nn::PlanRun run;
  BindInputs(run, xv, 2.5f, 2.0f, 1.0f);
  util::Rng warm_rng = base;
  nn::PlanExecutor::Forward(*plan, run, &warm_rng);
  nn::PlanExecutor::Backward(*plan, run, 1.0f);
  const size_t arena_capacity = run.arena.size();

  int64_t allocs_before = TensorAllocs();
  for (int step = 0; step < 20; ++step) {
    BindInputs(run, xv, 2.5f, 2.0f, 1.0f);
    util::Rng rng = base;
    nn::PlanExecutor::Forward(*plan, run, &rng);
    nn::PlanExecutor::Backward(*plan, run, 1.0f);
  }
  EXPECT_EQ(TensorAllocs(), allocs_before)
      << "plan replay must not build tape nodes";
  EXPECT_EQ(run.arena.size(), arena_capacity) << "arena must not regrow";
  for (Tensor* p : net.Params()) p->ZeroGrad();

  // Sanity: the counter does move on the eager path.
  util::Rng eager_rng = base;
  EagerReference(net, xv, 2.5f, 2.0f, 1.0f, eager_rng);
  EXPECT_GT(TensorAllocs(), allocs_before);
}

TEST(PlanTest, PlanCacheCountsHits) {
  util::Rng base(42);
  TestNet net = MakeNet(7);
  util::Rng data_rng(11);
  nn::Matrix xv = RandomMatrix(1, 6, data_rng);
  auto plan = RecordPlan(net, xv, 2.5f, 2.0f, 1.0f, base, /*training=*/true);

  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.nn.plan_cache_hits");
  nn::PlanCache cache;
  int64_t before = hits->Value();
  EXPECT_EQ(cache.Get(99), nullptr);
  EXPECT_EQ(hits->Value(), before);  // misses do not count
  cache.Put(99, plan);
  EXPECT_EQ(cache.Get(99), plan);
  EXPECT_EQ(hits->Value(), before + 1);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace hisrect
