// Host speed at the moment, measured with a fixed reference workload.
//
// On a shared virtual machine the same repetition of a scenario runs up
// to 1.7x slower from one minute to the next, in thread CPU time as much
// as in wall time: other tenants come and go on the physical cores and
// their caches.  Ten runs of one workload spread by 24-39% (interquartile
// range / median) however the repetitions inside a run were summarised.
//
// The benchmark therefore interleaves short slices of a reference
// simulation with the measured window and scales the simulator's host
// time by how fast the slices ran (main.cpp, speed_factor()).  The
// reference is a toy cycle-level NoC simulation written to resemble the
// real one's host profile: components ticked through virtual calls, ring
// FIFOs of small packet structs, XY routing decisions, a hash map of
// per-flow counters and data-dependent branches.  It lives in the
// benchmark's own code and depends on nothing but the standard library,
// so no change to src/ changes it.
#pragma once

#include <cstdint>
#include <memory>

namespace perfbench {

struct Toy;

/// One toy simulation; its state persists across run() calls, so short
/// slices of it measure its steady state, not its construction.
class ReferenceWorkload {
 public:
  /// A k x k mesh whose sources draw flows from [0, flows); `flows` must
  /// be a power of two.
  ReferenceWorkload(int k, std::uint32_t flows);
  ~ReferenceWorkload();
  ReferenceWorkload(const ReferenceWorkload&) = delete;
  ReferenceWorkload& operator=(const ReferenceWorkload&) = delete;

  /// Advances the toy by `cycles` cycles.  Its state stays on the heap
  /// and the next call reads it, so the work cannot be optimised away.
  void run(std::uint64_t cycles);

 private:
  std::unique_ptr<Toy> toy_;
  std::uint64_t now_ = 0;
};

/// The reference workload, sliced.
///
/// Sizes and constants were fitted on the machine the benchmark was
/// written on (a 4-vCPU KVM guest on an Intel Xeon, family 6 model 143):
/// 28 runs of each workload over half an hour of changing interference,
/// three toy sizes (4x4 mesh with 4096 flows, 8x8 with 16384, 16x16 with
/// 131072), their mixes, and exponents from 1 to 2.5.  The simulator
/// slowed down more than any toy did.  The 8x8 toy alone, with the
/// simulator's slowdown taken as its own to the power kSensitivity, left
/// a coefficient of variation of 3.5-5.7% across runs, against 14-21%
/// unscaled.  Exponent 1.75 fitted that data slightly better but
/// over-corrected in spot checks taken right after it.
class SpeedProbe {
 public:
  /// Thread CPU time of one slice on that machine while it was quiet.
  static constexpr double kQuietSliceNs = 150e3;
  /// log(simulator slowdown) / log(reference slowdown), fitted.
  static constexpr double kSensitivity = 1.5;

  /// Builds the reference and runs it to its steady state.
  SpeedProbe();

  /// Runs one slice of the reference; returns its thread CPU time (ns).
  double slice_ns();

 private:
  ReferenceWorkload toy_;
};

/// CPU time of the calling thread, in nanoseconds.  It leaves out the
/// time the hypervisor gave the vCPU to another tenant (steal), which the
/// guest kernel does not charge to the thread.
double thread_cpu_ns();

}  // namespace perfbench
