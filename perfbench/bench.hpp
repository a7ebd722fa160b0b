// Shared pieces of the repo benchmark binary (memq_perfbench): workload
// specs, the span recorder of the traced run, and the per-layer replays.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "sv/state_vector.hpp"

namespace perfbench {

using memq::qubit_t;

/// One named workload: the circuit family and the engine configuration.
struct Workload {
  std::string name;
  std::string family;  ///< circuit::make_workload name
  qubit_t qubits = 0;
  /// make_workload seed. Fixed per workload: random-circuit cost varies
  /// about 3x between circuit seeds, which would swamp any bound, so the
  /// run seed varies the input state and the sampler instead.
  std::uint64_t circuit_seed = 42;
  /// Start from a basis state |b> drawn from the run seed, prepared by X
  /// gates during set-up (else from |0..0>). The plan and the zero-chunk
  /// skips of the timed run do not depend on b.
  bool seeded_basis = false;
  int omp_threads = 0;  ///< 0 = the default OpenMP team
  bool lossy = false;   ///< lossy codec: fidelity gate, else amplitude gate
  memq::core::EngineConfig config;
};

/// Looks up a workload by name; `smoke` shrinks it to a ~12-qubit version
/// with the same configuration shape. Throws std::invalid_argument.
Workload make_workload_spec(const std::string& name, bool smoke);

/// What one run seed makes of a workload: the X gates preparing the
/// initial basis state (run during set-up) and the timed circuit.
struct Inputs {
  memq::index_t basis = 0;
  memq::circuit::Circuit prep;
  memq::circuit::Circuit circuit;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Spans kept in memory and written once as Chrome trace-event JSON.
class SpanRecorder {
 public:
  using clock = std::chrono::steady_clock;

  class Span {
   public:
    Span(SpanRecorder& rec, std::string cat, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Closes the span now and returns its duration in seconds.
    double close();

   private:
    SpanRecorder& rec_;
    std::size_t index_;
    bool open_ = true;
  };

  Span span(std::string cat, std::string name) {
    return Span(*this, std::move(cat), std::move(name));
  }
  /// Writes every closed span as complete ('X') events; `run_id` tags all
  /// spans of this traced run.
  void write_chrome(const std::string& path, const std::string& run_id) const;

 private:
  struct Event {
    std::string cat;
    std::string name;
    std::string parent;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  double now_us() const;

  clock::time_point origin_ = clock::now();
  std::vector<Event> events_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// What the traced engine run left behind for the replays.
struct TracedRun {
  const Inputs* inputs = nullptr;
  memq::core::EngineTelemetry telemetry;
  double run_s = 0.0;
  double query_s = 0.0;  ///< the three reads after the run
  /// The engine's final state, whose chunks the codec/store/blob/pager/
  /// device replays process.
  const memq::sv::StateVector* state = nullptr;
};

/// Runs every per-layer replay, recording one span per layer call group,
/// and returns the per-layer metrics by name.
std::map<std::string, double> replay_layers(const Workload& w,
                                            const TracedRun& run,
                                            SpanRecorder& rec);

}  // namespace perfbench
