#ifndef HISRECT_NN_MEMORY_PLANNER_H_
#define HISRECT_NN_MEMORY_PLANNER_H_

#include "nn/graph_ir.h"

namespace hisrect::nn {

/// Last-use liveness analysis + deterministic arena assignment for a
/// recorded Graph (called by GraphRecorder::Finish).
///
/// Timeline: forward instr i executes at position i; backward step p (an
/// index into graph->backward_order) executes at position F + p, where F is
/// the instr count. Each arena-planned buffer gets one [birth, death]
/// interval:
///   - op outputs: producer position .. last read (forward readers, plus the
///     backward steps whose kernels read parent/self values per the op
///     schema); the graph output is pinned to the end of the timeline,
///   - gradients: first write (per Graph::zero_before, or the seed for the
///     root grad) .. the owning op's backward step,
///   - aux: producer position .. the owning op's backward step,
///   - scratch: the owning op's backward step only.
///
/// Offsets come from a single sweep over positions with a deterministic
/// first-fit free list (sorted by offset, coalescing); at each position
/// births allocate BEFORE deaths free, so an op's output can never share
/// storage with an operand dying at that op — the aliasing-safety property
/// the Slice/Concat kernels rely on. Sizes round up to 16 floats (64-byte
/// lines). The resulting offsets depend only on the recorded graph, never on
/// thread count or timing — plan layouts are bitwise-reproducible.
///
/// Fills BufferDesc::offset, Graph::arena_floats, and Graph::live, and
/// drives the `hisrect.nn.arena_bytes` high-water gauge. CHECK-fails, naming
/// the op, when a backward step's kind is forward-only (no schema backward).
void PlanMemory(Graph* graph);

/// Recomputes Graph::zero_before from Graph::backward_order: each arena grad
/// buffer is zeroed at the backward step that first writes it (the root grad
/// is born at seed time instead and never zeroed). Shared by GraphRecorder
/// and GraphOptimizer — a rewrite that changes the backward program must
/// rebuild first-write positions before re-planning memory.
void ComputeZeroBefore(Graph* graph, int32_t root_grad);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_MEMORY_PLANNER_H_
