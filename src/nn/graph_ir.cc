#include "nn/graph_ir.h"

#include <algorithm>
#include <cmath>

#include "nn/matrix.h"
#include "nn/ops.h"
#include "util/logging.h"

namespace hisrect::nn {

float* ExecState::Ptr(int32_t buffer_id) const {
  const BufferDesc& b = graph->buffers[buffer_id];
  switch (b.kind) {
    case BufferDesc::Kind::kArena:
    case BufferDesc::Kind::kArenaGrad:
    case BufferDesc::Kind::kAux:
    case BufferDesc::Kind::kScratch:
      return arena + b.offset;
    case BufferDesc::Kind::kParamValue:
      return graph->params[b.ref]->value.data();
    case BufferDesc::Kind::kParamGrad:
      return graph->params[b.ref]->grad.data();
    case BufferDesc::Kind::kInput:
      return const_cast<float*>((*inputs)[b.ref]);
    case BufferDesc::Kind::kConstant:
      return const_cast<float*>(graph->constants.data() + b.ref);
  }
  CHECK(false) << "unreachable buffer kind";
  return nullptr;
}

// Every kernel below mirrors the corresponding tape op in ops.cc: identical
// per-element expressions, identical loop order, identical float/double
// accumulator widths. A copy-then-update in the eager op (e.g. `out = a;
// out.AddScaled(b, -1)`) becomes the algebraically-literal single pass here;
// with one add/mul sequence per element either way (and -ffp-contract=off
// tree-wide) the results are bitwise equal. Do not "simplify" expressions —
// `a + (-1.0f) * b` is spelled that way because AddScaled spells it that
// way.
namespace {

using Kind = BufferDesc::Kind;

inline const BufferDesc& Buf(const Graph& g, int32_t id) {
  return g.buffers[id];
}

inline std::pair<uint32_t, uint32_t> Shape(const Instr& ins,
                                           const std::vector<BufferDesc>& bufs,
                                           size_t operand) {
  const BufferDesc& b = bufs[ins.in[operand]];
  return {b.rows, b.cols};
}

constexpr std::pair<uint32_t, uint32_t> kBadShape{0, 0};

// ---------------------------------------------------------------------------
// kMatMul

std::pair<uint32_t, uint32_t> MatMulShape(const Instr& ins,
                                          const std::vector<BufferDesc>& bufs) {
  auto [ar, ac] = Shape(ins, bufs, 0);
  auto [br, bc] = Shape(ins, bufs, 1);
  if (ac != br) return kBadShape;
  return {ar, bc};
}

void MatMulForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& a = Buf(g, ins.in[0]);
  const BufferDesc& b = Buf(g, ins.in[1]);
  MatMulInto(st.Ptr(ins.in[0]), a.rows, a.cols, st.Ptr(ins.in[1]), b.cols,
             st.Ptr(ins.out));
}

void MatMulBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& a = Buf(g, ins.in[0]);
  const BufferDesc& b = Buf(g, ins.in[1]);
  const BufferDesc& out = Buf(g, ins.out);
  const float* gout = st.Ptr(ins.out_grad);
  float* scratch = st.Ptr(ins.scratch);
  if (ins.in_grad[0] >= 0) {
    // dA = dOut * B^T, computed into scratch then accumulated — mirrors the
    // eager temp-Matrix-then-AddInPlace, whose element order differs from an
    // in-place accumulating GEMM.
    MatMulTransposedBInto(gout, out.rows, out.cols, st.Ptr(ins.in[1]), b.rows,
                          scratch);
    float* ga = st.Ptr(ins.in_grad[0]);
    const size_t n = a.size();
    for (size_t i = 0; i < n; ++i) ga[i] += scratch[i];
  }
  if (ins.in_grad[1] >= 0) {
    // dB = A^T * dOut.
    MatMulTransposedAInto(st.Ptr(ins.in[0]), a.rows, a.cols, gout, out.cols,
                          scratch);
    float* gb = st.Ptr(ins.in_grad[1]);
    const size_t n = b.size();
    for (size_t i = 0; i < n; ++i) gb[i] += scratch[i];
  }
}

// ---------------------------------------------------------------------------
// Elementwise binary: kAdd, kSub, kMul

std::pair<uint32_t, uint32_t> SameShape2(const Instr& ins,
                                         const std::vector<BufferDesc>& bufs) {
  auto a = Shape(ins, bufs, 0);
  if (a != Shape(ins, bufs, 1)) return kBadShape;
  return a;
}

void AddForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void AddBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* gout = st.Ptr(ins.out_grad);
  const size_t n = Buf(g, ins.out).size();
  for (int operand = 0; operand < 2; ++operand) {
    if (ins.in_grad[operand] < 0) continue;
    float* gin = st.Ptr(ins.in_grad[operand]);
    for (size_t i = 0; i < n; ++i) gin[i] += gout[i];
  }
}

void SubForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) {
    float acc = a[i];
    acc += -1.0f * b[i];
    out[i] = acc;
  }
}

void SubBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* gout = st.Ptr(ins.out_grad);
  const size_t n = Buf(g, ins.out).size();
  if (ins.in_grad[0] >= 0) {
    float* ga = st.Ptr(ins.in_grad[0]);
    for (size_t i = 0; i < n; ++i) ga[i] += gout[i];
  }
  if (ins.in_grad[1] >= 0) {
    float* gb = st.Ptr(ins.in_grad[1]);
    for (size_t i = 0; i < n; ++i) gb[i] += -1.0f * gout[i];
  }
}

void MulForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void MulBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* gout = st.Ptr(ins.out_grad);
  const size_t n = Buf(g, ins.out).size();
  if (ins.in_grad[0] >= 0) {
    const float* b = st.Ptr(ins.in[1]);
    float* ga = st.Ptr(ins.in_grad[0]);
    for (size_t i = 0; i < n; ++i) ga[i] += gout[i] * b[i];
  }
  if (ins.in_grad[1] >= 0) {
    const float* a = st.Ptr(ins.in[0]);
    float* gb = st.Ptr(ins.in_grad[1]);
    for (size_t i = 0; i < n; ++i) gb[i] += gout[i] * a[i];
  }
}

// ---------------------------------------------------------------------------
// kAddBroadcastRow, kMulBroadcastRow

std::pair<uint32_t, uint32_t> BroadcastRowShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [rr, rc] = Shape(ins, bufs, 1);
  if (rr != 1 || xc != rc) return kBadShape;
  return {xr, xc};
}

void AddBroadcastRowForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  const float* r = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  for (size_t i = 0; i < x.rows; ++i) {
    const float* x_row = xv + i * x.cols;
    float* out_row = out + i * x.cols;
    for (size_t j = 0; j < x.cols; ++j) out_row[j] = x_row[j] + r[j];
  }
}

void AddBroadcastRowBackward(const Graph& g, const Instr& ins,
                             const ExecState& st) {
  const BufferDesc& out = Buf(g, ins.out);
  const float* gout = st.Ptr(ins.out_grad);
  if (ins.in_grad[0] >= 0) {
    float* gx = st.Ptr(ins.in_grad[0]);
    const size_t n = out.size();
    for (size_t i = 0; i < n; ++i) gx[i] += gout[i];
  }
  if (ins.in_grad[1] >= 0) {
    float* grow = st.Ptr(ins.in_grad[1]);
    for (size_t i = 0; i < out.rows; ++i) {
      const float* g_row = gout + i * out.cols;
      for (size_t j = 0; j < out.cols; ++j) grow[j] += g_row[j];
    }
  }
}

void MulBroadcastRowForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  const float* r = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  for (size_t i = 0; i < x.rows; ++i) {
    const float* x_row = xv + i * x.cols;
    float* out_row = out + i * x.cols;
    for (size_t j = 0; j < x.cols; ++j) out_row[j] = x_row[j] * r[j];
  }
}

void MulBroadcastRowBackward(const Graph& g, const Instr& ins,
                             const ExecState& st) {
  const BufferDesc& out = Buf(g, ins.out);
  const float* gout = st.Ptr(ins.out_grad);
  const size_t cols = out.cols;
  if (ins.in_grad[0] >= 0) {
    const float* r = st.Ptr(ins.in[1]);
    float* gx = st.Ptr(ins.in_grad[0]);
    for (size_t i = 0; i < out.rows; ++i) {
      const float* g_row = gout + i * cols;
      float* gx_row = gx + i * cols;
      for (size_t j = 0; j < cols; ++j) gx_row[j] += g_row[j] * r[j];
    }
  }
  if (ins.in_grad[1] >= 0) {
    const float* xv = st.Ptr(ins.in[0]);
    float* grow = st.Ptr(ins.in_grad[1]);
    for (size_t i = 0; i < out.rows; ++i) {
      const float* g_row = gout + i * cols;
      const float* x_row = xv + i * cols;
      for (size_t j = 0; j < cols; ++j) grow[j] += g_row[j] * x_row[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise unary: kScale, kRelu, kTanh, kSigmoid, kAbs

std::pair<uint32_t, uint32_t> SameShape1(const Instr& ins,
                                         const std::vector<BufferDesc>& bufs) {
  return Shape(ins, bufs, 0);
}

void ScaleForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const float s = ins.fattr;
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

void ScaleBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const float s = ins.fattr;
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) gx[i] += s * gout[i];
}

void ReluForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = std::max(0.0f, x[i]);
}

void ReluBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* x = st.Ptr(ins.in[0]);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) gx[i] += x[i] > 0.0f ? gout[i] : 0.0f;
}

void TanhForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void TanhBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* y = st.Ptr(ins.out);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) gx[i] += gout[i] * (1.0f - y[i] * y[i]);
}

void SigmoidForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = SigmoidValue(x[i]);
}

void SigmoidBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* y = st.Ptr(ins.out);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) gx[i] += gout[i] * y[i] * (1.0f - y[i]);
}

void AbsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = std::fabs(x[i]);
}

void AbsBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* x = st.Ptr(ins.in[0]);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) {
    float v = x[i];
    float sign = v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f);
    gx[i] += gout[i] * sign;
  }
}

// ---------------------------------------------------------------------------
// kConcatCols, kSliceCols, kSliceRows, kRowStack

std::pair<uint32_t, uint32_t> ConcatColsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [ar, ac] = Shape(ins, bufs, 0);
  auto [br, bc] = Shape(ins, bufs, 1);
  if (ar != br) return kBadShape;
  return {ar, ac + bc};
}

void ConcatColsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& a = Buf(g, ins.in[0]);
  const BufferDesc& b = Buf(g, ins.in[1]);
  const float* av = st.Ptr(ins.in[0]);
  const float* bv = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t na = a.cols;
  const size_t nb = b.cols;
  for (size_t i = 0; i < a.rows; ++i) {
    const float* a_row = av + i * na;
    const float* b_row = bv + i * nb;
    float* out_row = out + i * (na + nb);
    std::copy(a_row, a_row + na, out_row);
    std::copy(b_row, b_row + nb, out_row + na);
  }
}

void ConcatColsBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& a = Buf(g, ins.in[0]);
  const BufferDesc& b = Buf(g, ins.in[1]);
  const float* gout = st.Ptr(ins.out_grad);
  const size_t rows = Buf(g, ins.out).rows;
  const size_t na = a.cols;
  const size_t nb = b.cols;
  if (ins.in_grad[0] >= 0) {
    float* ga = st.Ptr(ins.in_grad[0]);
    for (size_t i = 0; i < rows; ++i) {
      const float* g_row = gout + i * (na + nb);
      float* ga_row = ga + i * na;
      for (size_t j = 0; j < na; ++j) ga_row[j] += g_row[j];
    }
  }
  if (ins.in_grad[1] >= 0) {
    float* gb = st.Ptr(ins.in_grad[1]);
    for (size_t i = 0; i < rows; ++i) {
      const float* g_row = gout + i * (na + nb) + na;
      float* gb_row = gb + i * nb;
      for (size_t j = 0; j < nb; ++j) gb_row[j] += g_row[j];
    }
  }
}

std::pair<uint32_t, uint32_t> SliceColsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  if (static_cast<uint32_t>(ins.iattr0 + ins.iattr1) > xc) return kBadShape;
  return {xr, static_cast<uint32_t>(ins.iattr1)};
}

void SliceColsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t start = static_cast<size_t>(ins.iattr0);
  const size_t count = static_cast<size_t>(ins.iattr1);
  for (size_t i = 0; i < x.rows; ++i) {
    const float* src = xv + i * x.cols + start;
    std::copy(src, src + count, out + i * count);
  }
}

void SliceColsBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t start = static_cast<size_t>(ins.iattr0);
  const size_t count = static_cast<size_t>(ins.iattr1);
  for (size_t i = 0; i < Buf(g, ins.out).rows; ++i) {
    const float* g_row = gout + i * count;
    float* gx_row = gx + i * x.cols + start;
    for (size_t j = 0; j < count; ++j) gx_row[j] += g_row[j];
  }
}

std::pair<uint32_t, uint32_t> SliceRowsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  if (static_cast<uint32_t>(ins.iattr0 + ins.iattr1) > xr) return kBadShape;
  return {static_cast<uint32_t>(ins.iattr1), xc};
}

void SliceRowsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t start = static_cast<size_t>(ins.iattr0);
  const size_t count = static_cast<size_t>(ins.iattr1);
  std::copy(xv + start * x.cols, xv + (start + count) * x.cols, out);
}

void SliceRowsBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t start = static_cast<size_t>(ins.iattr0);
  const size_t count = static_cast<size_t>(ins.iattr1);
  const size_t cols = x.cols;
  for (size_t i = 0; i < count; ++i) {
    const float* g_row = gout + i * cols;
    float* gx_row = gx + (start + i) * cols;
    for (size_t j = 0; j < cols; ++j) gx_row[j] += g_row[j];
  }
}

std::pair<uint32_t, uint32_t> RowStackShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [r0, c0] = Shape(ins, bufs, 0);
  if (r0 != 1) return kBadShape;
  for (size_t i = 1; i < ins.in.size(); ++i) {
    auto [ri, ci] = Shape(ins, bufs, i);
    if (ri != 1 || ci != c0) return kBadShape;
  }
  return {static_cast<uint32_t>(ins.in.size()), c0};
}

void RowStackForward(const Graph& g, const Instr& ins, const ExecState& st) {
  float* out = st.Ptr(ins.out);
  const size_t cols = Buf(g, ins.out).cols;
  for (size_t i = 0; i < ins.in.size(); ++i) {
    const float* row = st.Ptr(ins.in[i]);
    std::copy(row, row + cols, out + i * cols);
  }
}

void RowStackBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* gout = st.Ptr(ins.out_grad);
  const size_t cols = Buf(g, ins.out).cols;
  for (size_t i = 0; i < ins.in.size(); ++i) {
    if (ins.in_grad[i] < 0) continue;
    float* gp = st.Ptr(ins.in_grad[i]);
    const float* g_row = gout + i * cols;
    for (size_t j = 0; j < cols; ++j) gp[j] += g_row[j];
  }
}

// ---------------------------------------------------------------------------
// Reductions: kMeanRows, kSumAll, kL2NormalizeRow, kDot

std::pair<uint32_t, uint32_t> MeanRowsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  (void)xr;
  return {1, xc};
}

void MeanRowsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t rows = x.rows;
  const size_t cols = x.cols;
  // The eager op accumulates a double sums[cols] vector row by row; each
  // column's sum still sees its terms in ascending-row order, so summing one
  // column at a time here is bitwise identical — and needs no temp vector
  // (which would be a steady-state allocation).
  double inv_d = 1.0 / static_cast<double>(rows);
  for (size_t j = 0; j < cols; ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < rows; ++i) sum += xv[i * cols + j];
    out[j] = static_cast<float>(sum * inv_d);
  }
}

void MeanRowsBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t cols = x.cols;
  const float inv = 1.0f / static_cast<float>(x.rows);
  for (size_t i = 0; i < x.rows; ++i) {
    float* gx_row = gx + i * cols;
    for (size_t j = 0; j < cols; ++j) gx_row[j] += gout[j] * inv;
  }
}

std::pair<uint32_t, uint32_t> ScalarShape(const Instr& ins,
                                          const std::vector<BufferDesc>& bufs) {
  (void)ins;
  (void)bufs;
  return {1, 1};
}

void SumAllForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* xv = st.Ptr(ins.in[0]);
  const size_t n = Buf(g, ins.in[0]).size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += xv[i];
  st.Ptr(ins.out)[0] = static_cast<float>(total);
}

void SumAllBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  float* gx = st.Ptr(ins.in_grad[0]);
  const float gv = st.Ptr(ins.out_grad)[0];
  const size_t n = Buf(g, ins.in[0]).size();
  for (size_t i = 0; i < n; ++i) gx[i] += gv;
}

std::pair<uint32_t, uint32_t> L2NormalizeRowShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  if (xr != 1) return kBadShape;
  return {1, xc};
}

std::pair<uint32_t, uint32_t> OneFloatAux(const Instr& ins,
                                          const std::vector<BufferDesc>& bufs) {
  (void)ins;
  (void)bufs;
  return {1, 1};
}

void L2NormalizeRowForward(const Graph& g, const Instr& ins,
                           const ExecState& st) {
  const float* v = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.in[0]).size();
  constexpr float kEps = 1e-6f;
  double norm_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    norm_sq += static_cast<double>(v[i]) * v[i];
  }
  float norm = static_cast<float>(std::sqrt(norm_sq + kEps));
  float inv = 1.0f / norm;
  st.Ptr(ins.aux)[0] = inv;
  for (size_t i = 0; i < n; ++i) out[i] = v[i] * inv;
}

void L2NormalizeRowBackward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* y = st.Ptr(ins.out);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const float inv = st.Ptr(ins.aux)[0];
  const size_t n = Buf(g, ins.out).size();
  double dot = 0.0;
  for (size_t i = 0; i < n; ++i) {
    dot += static_cast<double>(gout[i]) * y[i];
  }
  float dot_f = static_cast<float>(dot);
  for (size_t i = 0; i < n; ++i) {
    gx[i] += (gout[i] - y[i] * dot_f) * inv;
  }
}

void DotForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  const size_t n = Buf(g, ins.in[0]).size();
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  st.Ptr(ins.out)[0] = static_cast<float>(acc);
}

void DotBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float gv = st.Ptr(ins.out_grad)[0];
  const size_t n = Buf(g, ins.in[0]).size();
  if (ins.in_grad[0] >= 0) {
    const float* b = st.Ptr(ins.in[1]);
    float* ga = st.Ptr(ins.in_grad[0]);
    for (size_t i = 0; i < n; ++i) ga[i] += gv * b[i];
  }
  if (ins.in_grad[1] >= 0) {
    const float* a = st.Ptr(ins.in[0]);
    float* gb = st.Ptr(ins.in_grad[1]);
    for (size_t i = 0; i < n; ++i) gb[i] += gv * a[i];
  }
}

// ---------------------------------------------------------------------------
// Losses: kSoftmaxCrossEntropy, kSigmoidBinaryCrossEntropy

std::pair<uint32_t, uint32_t> SoftmaxCrossEntropyAux(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [lr, lc] = Shape(ins, bufs, 0);
  (void)lr;
  return {1, lc};
}

// The target class id is float-encoded in the 1x1 operand, cast exactly as
// the eager op casts it.
inline size_t SceTarget(const Instr& ins, const ExecState& st) {
  return static_cast<size_t>(st.Ptr(ins.in[1])[0]);
}

void SoftmaxCrossEntropyForward(const Graph& g, const Instr& ins,
                                const ExecState& st) {
  const float* logits = st.Ptr(ins.in[0]);
  float* probs = st.Ptr(ins.aux);
  const size_t n = Buf(g, ins.in[0]).size();
  // SoftmaxValues, into the aux buffer.
  float max_logit = logits[0];
  for (size_t i = 1; i < n; ++i) max_logit = std::max(max_logit, logits[i]);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    probs[i] = std::exp(logits[i] - max_logit);
    total += probs[i];
  }
  float inv = static_cast<float>(1.0 / total);
  for (size_t i = 0; i < n; ++i) probs[i] *= inv;
  const size_t target = SceTarget(ins, st);
  float p_target = std::max(probs[target], 1e-12f);
  st.Ptr(ins.out)[0] = -std::log(p_target);
}

void SoftmaxCrossEntropyBackward(const Graph& g, const Instr& ins,
                                 const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* probs = st.Ptr(ins.aux);
  float* gx = st.Ptr(ins.in_grad[0]);
  const float gv = st.Ptr(ins.out_grad)[0];
  const size_t n = Buf(g, ins.in[0]).size();
  const size_t target = SceTarget(ins, st);
  for (size_t j = 0; j < n; ++j) {
    float indicator = (j == target) ? 1.0f : 0.0f;
    gx[j] += gv * (probs[j] - indicator);
  }
}

void SigmoidBinaryCrossEntropyForward(const Graph& g, const Instr& ins,
                                      const ExecState& st) {
  (void)g;
  const float z = st.Ptr(ins.in[0])[0];
  const float label = st.Ptr(ins.in[1])[0];
  st.Ptr(ins.out)[0] =
      std::max(z, 0.0f) - z * label + std::log1p(std::exp(-std::fabs(z)));
}

void SigmoidBinaryCrossEntropyBackward(const Graph& g, const Instr& ins,
                                       const ExecState& st) {
  (void)g;
  if (ins.in_grad[0] < 0) return;
  const float z = st.Ptr(ins.in[0])[0];
  const float label = st.Ptr(ins.in[1])[0];
  float p = SigmoidValue(z);
  st.Ptr(ins.in_grad[0])[0] += st.Ptr(ins.out_grad)[0] * (p - label);
}

// ---------------------------------------------------------------------------
// kDropout

std::pair<uint32_t, uint32_t> DropoutAux(const Instr& ins,
                                         const std::vector<BufferDesc>& bufs) {
  return Shape(ins, bufs, 0);
}

void DropoutForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* mask = st.Ptr(ins.aux);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  const float keep = 1.0f - ins.fattr;
  const float inv_keep = 1.0f / keep;
  // Same Bernoulli stream, same element order as the eager op: the executor
  // binds the caller's Rng, so an eager run and a plan replay from the same
  // Rng state draw identical masks.
  for (size_t i = 0; i < n; ++i) {
    mask[i] = st.rng->Bernoulli(keep) ? inv_keep : 0.0f;
  }
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * mask[i];
}

void DropoutBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float* mask = st.Ptr(ins.aux);
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) gx[i] += gout[i] * mask[i];
}

// ---------------------------------------------------------------------------
// kConv1dSame

std::pair<uint32_t, uint32_t> Conv1dSameShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [kr, kc] = Shape(ins, bufs, 1);
  if (xr != 1 || kr != 1 || kc % 2 != 1) return kBadShape;
  return {1, xc};
}

void Conv1dSameForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* xv = st.Ptr(ins.in[0]);
  const float* kv = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.in[0]).cols;
  const size_t k = Buf(g, ins.in[1]).cols;
  const size_t half = k / 2;
  for (size_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (size_t d = 0; d < k; ++d) {
      int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                    static_cast<int64_t>(half);
      if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
      acc += kv[d] * xv[idx];
    }
    out[j] = acc;
  }
}

void Conv1dSameBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* gout = st.Ptr(ins.out_grad);
  const size_t n = Buf(g, ins.in[0]).cols;
  const size_t k = Buf(g, ins.in[1]).cols;
  const size_t half = k / 2;
  if (ins.in_grad[0] >= 0) {
    const float* kv = st.Ptr(ins.in[1]);
    float* gx = st.Ptr(ins.in_grad[0]);
    for (size_t j = 0; j < n; ++j) {
      for (size_t d = 0; d < k; ++d) {
        int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                      static_cast<int64_t>(half);
        if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
        gx[idx] += gout[j] * kv[d];
      }
    }
  }
  if (ins.in_grad[1] >= 0) {
    const float* xv = st.Ptr(ins.in[0]);
    float* gk = st.Ptr(ins.in_grad[1]);
    for (size_t j = 0; j < n; ++j) {
      for (size_t d = 0; d < k; ++d) {
        int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                      static_cast<int64_t>(half);
        if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
        gk[d] += gout[j] * xv[idx];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// kMulScalar

std::pair<uint32_t, uint32_t> MulScalarShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [sr, sc] = Shape(ins, bufs, 1);
  if (sr != 1 || sc != 1) return kBadShape;
  return Shape(ins, bufs, 0);
}

void MulScalarForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  const float s = st.Ptr(ins.in[1])[0];
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

void MulScalarBackward(const Graph& g, const Instr& ins, const ExecState& st) {
  if (ins.in_grad[0] < 0) return;
  const float s = st.Ptr(ins.in[1])[0];
  const float* gout = st.Ptr(ins.out_grad);
  float* gx = st.Ptr(ins.in_grad[0]);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) gx[i] += s * gout[i];
}

// ---------------------------------------------------------------------------
// kFusedLinear / kFusedLinearRelu / kFusedLinearTanh
//
// Single-kernel replacements for the MatMul → AddBroadcastRow → activation
// chains GraphOptimizer detects (in = [x, W, bias]). The fused kernel runs
// the exact same per-element expressions in the exact same order as the
// three unfused kernels it replaces; the only difference is that the two
// intermediate value buffers and one intermediate grad buffer collapse into
// the output / aux / scratch of a single instr.

enum class FusedAct : uint8_t { kNone, kRelu, kTanh };

std::pair<uint32_t, uint32_t> FusedLinearShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [wr, wc] = Shape(ins, bufs, 1);
  auto [br, bc] = Shape(ins, bufs, 2);
  if (xc != wr || br != 1 || bc != wc) return kBadShape;
  return {xr, wc};
}

std::pair<uint32_t, uint32_t> FusedLinearAuxShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  return FusedLinearShape(ins, bufs);
}

void FusedLinearForwardImpl(const Graph& g, const Instr& ins,
                            const ExecState& st, FusedAct act) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const BufferDesc& w = Buf(g, ins.in[1]);
  const BufferDesc& out = Buf(g, ins.out);
  // Pre-activation values land in aux when backward needs them (ReLU
  // training plans), else straight in the output buffer.
  float* lin = ins.aux >= 0 ? st.Ptr(ins.aux) : st.Ptr(ins.out);
  MatMulInto(st.Ptr(ins.in[0]), x.rows, x.cols, st.Ptr(ins.in[1]), w.cols,
             lin);
  const float* bias = st.Ptr(ins.in[2]);
  for (size_t i = 0; i < out.rows; ++i) {
    float* row = lin + i * out.cols;
    for (size_t j = 0; j < out.cols; ++j) row[j] = row[j] + bias[j];
  }
  float* o = st.Ptr(ins.out);
  const size_t n = out.size();
  switch (act) {
    case FusedAct::kNone:
      if (lin != o) std::copy(lin, lin + n, o);
      break;
    case FusedAct::kRelu:
      for (size_t i = 0; i < n; ++i) o[i] = std::max(0.0f, lin[i]);
      break;
    case FusedAct::kTanh:
      for (size_t i = 0; i < n; ++i) o[i] = std::tanh(lin[i]);
      break;
  }
}

void FusedLinearBackwardImpl(const Graph& g, const Instr& ins,
                             const ExecState& st, FusedAct act) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const BufferDesc& w = Buf(g, ins.in[1]);
  const BufferDesc& out = Buf(g, ins.out);
  const float* gout = st.Ptr(ins.out_grad);
  // Scratch layout: [g_lin: out.size() floats][GEMM temp]. g_lin is the
  // intermediate (pre-bias) gradient, rebuilt with zero-then-`+=` exactly as
  // the eager tape accumulates the grad buffers it replaces. `0.0f + v`
  // never yields -0.0f, so the one buffer serves bitwise for both collapsed
  // intermediate grads (activation-input grad and matmul-output grad).
  float* g_lin = st.Ptr(ins.scratch);
  float* temp = g_lin + out.size();
  const size_t n = out.size();
  std::fill(g_lin, g_lin + n, 0.0f);
  switch (act) {
    case FusedAct::kNone:
      for (size_t i = 0; i < n; ++i) g_lin[i] += gout[i];
      break;
    case FusedAct::kRelu: {
      const float* pre = st.Ptr(ins.aux);
      for (size_t i = 0; i < n; ++i) {
        g_lin[i] += pre[i] > 0.0f ? gout[i] : 0.0f;
      }
      break;
    }
    case FusedAct::kTanh: {
      const float* y = st.Ptr(ins.out);
      for (size_t i = 0; i < n; ++i) {
        g_lin[i] += gout[i] * (1.0f - y[i] * y[i]);
      }
      break;
    }
  }
  if (ins.in_grad[2] >= 0) {
    // Bias rows accumulate from the same buffer the eager AddBroadcastRow
    // backward reads: the incoming grad itself when there is no activation.
    const float* gbias_src = act == FusedAct::kNone ? gout : g_lin;
    float* gbias = st.Ptr(ins.in_grad[2]);
    for (size_t i = 0; i < out.rows; ++i) {
      const float* g_row = gbias_src + i * out.cols;
      for (size_t j = 0; j < out.cols; ++j) gbias[j] += g_row[j];
    }
  }
  if (ins.in_grad[0] >= 0) {
    MatMulTransposedBInto(g_lin, out.rows, out.cols, st.Ptr(ins.in[1]),
                          w.rows, temp);
    float* gx = st.Ptr(ins.in_grad[0]);
    const size_t nx = x.size();
    for (size_t i = 0; i < nx; ++i) gx[i] += temp[i];
  }
  if (ins.in_grad[1] >= 0) {
    MatMulTransposedAInto(st.Ptr(ins.in[0]), x.rows, x.cols, g_lin, out.cols,
                          temp);
    float* gw = st.Ptr(ins.in_grad[1]);
    const size_t nw = w.size();
    for (size_t i = 0; i < nw; ++i) gw[i] += temp[i];
  }
}

void FusedLinearForward(const Graph& g, const Instr& ins, const ExecState& st) {
  FusedLinearForwardImpl(g, ins, st, FusedAct::kNone);
}
void FusedLinearBackward(const Graph& g, const Instr& ins,
                         const ExecState& st) {
  FusedLinearBackwardImpl(g, ins, st, FusedAct::kNone);
}
void FusedLinearReluForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  FusedLinearForwardImpl(g, ins, st, FusedAct::kRelu);
}
void FusedLinearReluBackward(const Graph& g, const Instr& ins,
                             const ExecState& st) {
  FusedLinearBackwardImpl(g, ins, st, FusedAct::kRelu);
}
void FusedLinearTanhForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  FusedLinearForwardImpl(g, ins, st, FusedAct::kTanh);
}
void FusedLinearTanhBackward(const Graph& g, const Instr& ins,
                             const ExecState& st) {
  FusedLinearBackwardImpl(g, ins, st, FusedAct::kTanh);
}

// ---------------------------------------------------------------------------
// kFusedDualLinear
//
// LSTM-gate preactivation AddBroadcastRow(Add(MatMul(x, W), MatMul(h, U)), b)
// collapsed to one instr (in = [x, h, W, U, bias]). Both matmuls go through
// the same MatMulInto kernel the eager chain uses — x@W lands in the output
// buffer, h@U in aux — and the epilogue reassociates nothing: (t1 + t2) + b_j
// is exactly the eager Add followed by AddBroadcastRow, so the fused op is
// bitwise. Inference plans only, so the kind registers no backward.

std::pair<uint32_t, uint32_t> FusedDualLinearShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [hr, hc] = Shape(ins, bufs, 1);
  auto [wr, wc] = Shape(ins, bufs, 2);
  auto [ur, uc] = Shape(ins, bufs, 3);
  auto [br, bc] = Shape(ins, bufs, 4);
  if (xr != hr || xc != wr || hc != ur || wc != uc) return kBadShape;
  if (br != 1 || bc != wc) return kBadShape;
  return {xr, wc};
}

std::pair<uint32_t, uint32_t> FusedDualLinearAuxShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  // Holds the h@U product while the epilogue sums.
  return FusedDualLinearShape(ins, bufs);
}

void FusedDualLinearForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const BufferDesc& h = Buf(g, ins.in[1]);
  const BufferDesc& w = Buf(g, ins.in[2]);
  const BufferDesc& u = Buf(g, ins.in[3]);
  const BufferDesc& out = Buf(g, ins.out);
  float* t1 = st.Ptr(ins.out);
  float* t2 = st.Ptr(ins.aux);
  MatMulInto(st.Ptr(ins.in[0]), x.rows, x.cols, st.Ptr(ins.in[2]), w.cols,
             t1);
  MatMulInto(st.Ptr(ins.in[1]), h.rows, h.cols, st.Ptr(ins.in[3]), u.cols,
             t2);
  const float* bias = st.Ptr(ins.in[4]);
  for (size_t i = 0; i < out.rows; ++i) {
    float* row = t1 + i * out.cols;
    const float* t2_row = t2 + i * out.cols;
    for (size_t j = 0; j < out.cols; ++j) {
      row[j] = (row[j] + t2_row[j]) + bias[j];
    }
  }
}

// ---------------------------------------------------------------------------

constexpr size_t kNumKinds = static_cast<size_t>(OpKind::kNumOpKinds);

const OpSchema* BuildRegistry() {
  static OpSchema schemas[kNumKinds];
  auto at = [&](OpKind k) -> OpSchema& {
    return schemas[static_cast<size_t>(k)];
  };
  at(OpKind::kMatMul) = {"MatMul", 2, 2, MatMulShape, MatMulForward,
                         MatMulBackward, false, true, nullptr};
  at(OpKind::kAdd) = {"Add", 2, 2, SameShape2, AddForward, AddBackward,
                      false, false, nullptr};
  at(OpKind::kSub) = {"Sub", 2, 2, SameShape2, SubForward, SubBackward,
                      false, false, nullptr};
  at(OpKind::kMul) = {"Mul", 2, 2, SameShape2, MulForward, MulBackward,
                      false, true, nullptr};
  at(OpKind::kAddBroadcastRow) = {"AddBroadcastRow", 2, 2, BroadcastRowShape,
                                  AddBroadcastRowForward,
                                  AddBroadcastRowBackward, false, false,
                                  nullptr};
  at(OpKind::kMulBroadcastRow) = {"MulBroadcastRow", 2, 2, BroadcastRowShape,
                                  MulBroadcastRowForward,
                                  MulBroadcastRowBackward, false, true,
                                  nullptr};
  at(OpKind::kScale) = {"Scale", 1, 1, SameShape1, ScaleForward, ScaleBackward,
                        false, false, nullptr};
  at(OpKind::kRelu) = {"Relu", 1, 1, SameShape1, ReluForward, ReluBackward,
                       false, true, nullptr};
  at(OpKind::kTanh) = {"Tanh", 1, 1, SameShape1, TanhForward, TanhBackward,
                       true, false, nullptr};
  at(OpKind::kSigmoid) = {"Sigmoid", 1, 1, SameShape1, SigmoidForward,
                          SigmoidBackward, true, false, nullptr};
  at(OpKind::kAbs) = {"Abs", 1, 1, SameShape1, AbsForward, AbsBackward, false,
                      true, nullptr};
  at(OpKind::kConcatCols) = {"ConcatCols", 2, 2, ConcatColsShape,
                             ConcatColsForward, ConcatColsBackward, false,
                             false, nullptr};
  at(OpKind::kSliceCols) = {"SliceCols", 1, 1, SliceColsShape,
                            SliceColsForward, SliceColsBackward, false, false,
                            nullptr};
  at(OpKind::kSliceRows) = {"SliceRows", 1, 1, SliceRowsShape,
                            SliceRowsForward, SliceRowsBackward, false, false,
                            nullptr};
  at(OpKind::kRowStack) = {"RowStack", 1, 255, RowStackShape, RowStackForward,
                           RowStackBackward, false, false, nullptr};
  at(OpKind::kMeanRows) = {"MeanRows", 1, 1, MeanRowsShape, MeanRowsForward,
                           MeanRowsBackward, false, false, nullptr};
  at(OpKind::kSumAll) = {"SumAll", 1, 1, ScalarShape, SumAllForward,
                         SumAllBackward, false, false, nullptr};
  at(OpKind::kL2NormalizeRow) = {"L2NormalizeRow", 1, 1, L2NormalizeRowShape,
                                 L2NormalizeRowForward, L2NormalizeRowBackward,
                                 true, false, OneFloatAux};
  at(OpKind::kDot) = {"Dot", 2, 2, ScalarShape, DotForward, DotBackward,
                      false, true, nullptr};
  at(OpKind::kSoftmaxCrossEntropy) = {"SoftmaxCrossEntropy", 2, 2, ScalarShape,
                                      SoftmaxCrossEntropyForward,
                                      SoftmaxCrossEntropyBackward, false, true,
                                      SoftmaxCrossEntropyAux};
  at(OpKind::kSigmoidBinaryCrossEntropy) = {
      "SigmoidBinaryCrossEntropy", 2,   2,    ScalarShape,
      SigmoidBinaryCrossEntropyForward, SigmoidBinaryCrossEntropyBackward,
      false,                            true, nullptr};
  at(OpKind::kDropout) = {"Dropout", 1, 1, SameShape1, DropoutForward,
                          DropoutBackward, false, false, DropoutAux};
  at(OpKind::kConv1dSame) = {"Conv1dSame", 2, 2, Conv1dSameShape,
                             Conv1dSameForward, Conv1dSameBackward, false,
                             true, nullptr};
  at(OpKind::kMulScalar) = {"MulScalar", 2, 2, MulScalarShape,
                            MulScalarForward, MulScalarBackward, false, true,
                            nullptr};
  at(OpKind::kFusedLinear) = {"FusedLinear", 3, 3, FusedLinearShape,
                              FusedLinearForward, FusedLinearBackward, false,
                              true, nullptr};
  at(OpKind::kFusedLinearRelu) = {"FusedLinearRelu", 3, 3, FusedLinearShape,
                                  FusedLinearReluForward,
                                  FusedLinearReluBackward, false, true,
                                  FusedLinearAuxShape};
  at(OpKind::kFusedLinearTanh) = {"FusedLinearTanh", 3, 3, FusedLinearShape,
                                  FusedLinearTanhForward,
                                  FusedLinearTanhBackward, true, true,
                                  nullptr};
  at(OpKind::kFusedDualLinear) = {"FusedDualLinear", 5, 5,
                                  FusedDualLinearShape, FusedDualLinearForward,
                                  nullptr, false, false,
                                  FusedDualLinearAuxShape};
  return schemas;
}

}  // namespace

const OpSchema& GetOpSchema(OpKind kind) {
  static const OpSchema* registry = BuildRegistry();
  CHECK_LT(static_cast<size_t>(kind), kNumKinds);
  const OpSchema& schema = registry[static_cast<size_t>(kind)];
  CHECK(schema.forward != nullptr)
      << "op kind " << static_cast<int>(kind) << " not registered";
  return schema;
}

}  // namespace hisrect::nn
