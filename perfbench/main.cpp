// memq_perfbench — one run of the repo benchmark per process.
//
//   memq_perfbench --workload NAME --seed N --mode e2e|trace
//                  [--seconds S] [--smoke] [--trace-out FILE.json]
//
// Prints an environment stamp line {"env": {...}} and one result line
// {"result": {...}} on stdout; perfbench/run.py starts one process per run.
//
// e2e mode runs one untimed warm-up iteration, reads the peak RSS (before
// the dense oracle allocates its own state), runs DenseEngine on the same
// circuit once (dense_run_s), then repeats timed iterations for S seconds:
// make_engine + the initial state (setup_s), Engine::run (run_s,
// run_cpu_s) and the three reads (query_s), each iteration checked against
// the oracle and timed between two passes of a reference loop. It reports
// the median of every timing, and of run and read time in reference-loop
// units (run_ref, query_ref). trace mode runs the workload once untraced
// and once inside spans, replays each layer (layers.cpp), checks the result
// the same way, and writes the spans as Chrome trace JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"
#include "circuit/workloads.hpp"
#include "common/cpu_features.hpp"
#include "common/timer.hpp"

namespace perfbench {

namespace {

using memq::amp_t;
using memq::index_t;
using memq::kAmpBytes;
using memq::WallTimer;
namespace circuit = memq::circuit;
namespace core = memq::core;
namespace sv = memq::sv;

/// Timed iterations of an e2e run, however short its --seconds.
constexpr std::size_t kMinIterations = 5;
constexpr std::size_t kShots = 100000;
/// Null-codec runs must match the dense oracle amplitude for amplitude.
constexpr double kExactAmpTolerance = 1e-12;
/// Lossy runs fail past this infidelity. EXPERIMENTS.md E7 measures szq at
/// the default 1e-5 bound staying under 2.1e-8 through depth 32; the limit
/// leaves 50x headroom over that for wider states and more codec passes.
constexpr double kLossyFidelityLimit = 1e-6;
/// Total-variation distance allowed between the sampled and the exact
/// marginal of the low qubits (100k shots over <= 256 outcomes).
constexpr double kSampleTvdLimit = 0.05;

constexpr bool kOptimizedBuild =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    true;
#else
    false;
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

/// Flat JSON object builder; numbers keep every digit.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return raw(key, std::isfinite(v) ? os.str() : "null");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Process high-water resident bytes so far.
double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // KiB on Linux
}

int omp_team() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

std::string env_stamp(const Workload& w, std::uint64_t seed,
                      const std::string& mode) {
  const double state_bytes =
      static_cast<double>((index_t{1} << w.qubits) * kAmpBytes);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  JsonObject env;
  env.str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .str("mode", mode)
      .num("qubits", w.qubits)
      .num("chunk_qubits", w.config.chunk_qubits)
      .str("compressor", w.config.codec.compressor)
      .num("nproc", std::thread::hardware_concurrency())
      .num("omp_threads", omp_team())
      .num("codec_threads", w.config.codec_threads)
      .str("simd", memq::simd::name(memq::simd::active()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("optimized", kOptimizedBuild)
      .num("l2_bytes", static_cast<double>(l2))
      .num("l3_bytes", static_cast<double>(l3))
      .num("state_bytes", state_bytes)
      .num("state_over_llc", l3 > 0 ? state_bytes / static_cast<double>(l3)
                                    : 0.0);
  return JsonObject().raw("env", env.text()).text();
}

/// The three reads every workload ends with.
struct Queries {
  double zz = 0.0;
  std::vector<double> marginal;
  std::map<index_t, std::uint64_t> counts;
};

sv::PauliString z0z1(qubit_t n) {
  std::string ops(n, 'I');
  ops[0] = 'Z';
  ops[1] = 'Z';
  return {ops};
}

std::vector<qubit_t> low_qubits(qubit_t n) {
  std::vector<qubit_t> qs;
  for (qubit_t q = 0; q < std::min<qubit_t>(8, n); ++q) qs.push_back(q);
  return qs;
}

Queries run_queries(core::Engine& e, qubit_t n) {
  Queries q;
  q.zz = e.expectation(z0z1(n));
  q.marginal = e.marginal_probabilities(low_qubits(n));
  q.counts = e.sample_counts(kShots);
  return q;
}

struct Verdict {
  bool ok = true;
  double fidelity_loss = 0.0;
  double max_abs_diff = 0.0;
  std::string why;

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}

/// An engine in the run's initial state: what set-up costs a user.
std::unique_ptr<core::Engine> prepared(core::EngineKind kind,
                                       const Workload& w, const Inputs& in) {
  auto engine = core::make_engine(kind, w.qubits, w.config);
  if (in.prep.size() > 0) engine->run(in.prep);
  return engine;
}

/// The dense engine's answer for one run seed, computed once per process.
struct Oracle {
  sv::StateVector state;
  double zz = 0.0;
  std::vector<double> marginal;
  double run_s = 0.0;  ///< DenseEngine::run wall time
};

Oracle make_oracle(const Workload& w, const Inputs& in) {
  auto dense = prepared(core::EngineKind::kDense, w, in);
  WallTimer t;
  dense->run(in.circuit);
  const double run_s = t.seconds();
  return {dense->to_dense(), dense->expectation(z0z1(w.qubits)),
          dense->marginal_probabilities(low_qubits(w.qubits)), run_s};
}

/// Compares the engine's final state and reads with the dense oracle.
Verdict check(const Workload& w, const sv::StateVector& got,
              const Oracle& oracle, const Queries& q) {
  Verdict v;
  std::complex<double> overlap{0.0, 0.0};
  double got_norm = 0.0;
  double want_norm = 0.0;
  double max_diff = 0.0;
  const auto amps = got.amplitudes();
  const auto wants = oracle.state.amplitudes();
  if (wants.size() != amps.size()) {
    v.fail("state size mismatch");
    return v;
  }
  for (index_t i = 0; i < amps.size(); ++i) {
    const amp_t want = wants[i];
    overlap += std::conj(want) * amps[i];
    got_norm += std::norm(amps[i]);
    want_norm += std::norm(want);
    max_diff = std::max({max_diff, std::abs(want.real() - amps[i].real()),
                         std::abs(want.imag() - amps[i].imag())});
  }
  // A lossy state is not exactly normalized; compare directions.
  v.fidelity_loss = 1.0 - std::norm(overlap) / (got_norm * want_norm);
  v.max_abs_diff = max_diff;
  if (!w.lossy && !(max_diff <= kExactAmpTolerance))
    v.fail("max |amp diff| " + sci(max_diff) + " > " +
           sci(kExactAmpTolerance));
  if (w.lossy && !(v.fidelity_loss <= kLossyFidelityLimit))
    v.fail("fidelity loss " + sci(v.fidelity_loss) + " > " +
           sci(kLossyFidelityLimit));

  // Normalized pure states give |<O>_got - <O>_want| <= 2 ||O|| sqrt(1 - F);
  // the reads of an unnormalized lossy state also scale with its norm.
  const double tol =
      w.lossy ? 2.0 * got_norm * std::sqrt(std::max(0.0, v.fidelity_loss)) +
                    std::abs(got_norm - 1.0) + 1e-9
              : 1e-9;
  if (!(std::abs(q.zz - oracle.zz) <= tol))
    v.fail("<Z0Z1> " + sci(q.zz) + " vs oracle " + sci(oracle.zz));
  const std::vector<double>& marginal = oracle.marginal;
  if (q.marginal.size() != marginal.size())
    v.fail("marginal size mismatch");
  for (std::size_t b = 0; b < std::min(marginal.size(), q.marginal.size());
       ++b)
    if (!(std::abs(q.marginal[b] - marginal[b]) <= tol))
      v.fail("marginal[" + std::to_string(b) + "] off by " +
             sci(std::abs(q.marginal[b] - marginal[b])));

  std::uint64_t shots = 0;
  std::vector<double> sampled(marginal.size(), 0.0);
  const index_t low_mask = marginal.size() - 1;
  for (const auto& [basis, count] : q.counts) {
    if (basis >= amps.size()) v.fail("sample outside the state space");
    shots += count;
    sampled[basis & low_mask] += static_cast<double>(count);
  }
  if (shots != kShots) v.fail("sampled " + std::to_string(shots) + " shots");
  double tvd = 0.0;
  for (std::size_t b = 0; b < marginal.size(); ++b)
    tvd += std::abs(sampled[b] / static_cast<double>(kShots) - marginal[b]);
  if (!(0.5 * tvd <= kSampleTvdLimit))
    v.fail("sample marginal TVD " + sci(0.5 * tvd));
  return v;
}

/// A fixed amount of work owned by the benchmark, in the simulator's mix:
/// complex multiply-adds over a chunk-sized buffer (the gate kernels, about
/// three quarters of the time), a four-lane 64-bit hash over the same bytes
/// (checksums, dedup, bit packing) and 4 MiB copies (chunk traffic), ~30 ms
/// in all. Timed next to every iteration, it measures the host's speed at
/// that moment; the *_ref metrics divide by it, so they do not move when a
/// shared host slows every program alike. Multiply-adds get the largest
/// share: when the host is busy they slow the most (up to 2x), as do the
/// kernel-bound workloads.
class ReferenceLoop {
 public:
  ReferenceLoop()
      : chunk_(index_t{1} << 14, amp_t{0.5, 0.25}),
        from_(index_t{1} << 18, amp_t{0.25, 0.5}),
        to_(from_.size()) {}

  /// Wall seconds of one pass.
  double seconds() {
    WallTimer t;
    const amp_t rot{std::cos(0.1), std::sin(0.1)};
    for (int rep = 0; rep < 900; ++rep)
      for (amp_t& a : chunk_) a = a * rot + amp_t{1e-9, 0.0};
    std::uint64_t h[4] = {1, 2, 3, 4};
    const auto* words = reinterpret_cast<const std::uint64_t*>(chunk_.data());
    const std::size_t n_words = chunk_.size() * sizeof(amp_t) / 8;
    for (int rep = 0; rep < 192; ++rep)
      for (std::size_t i = 0; i < n_words; i += 4)
        for (int lane = 0; lane < 4; ++lane) {
          h[lane] = (h[lane] ^ words[i + lane]) * 0xff51afd7ed558ccdULL;
          h[lane] ^= h[lane] >> 29;
        }
    for (int rep = 0; rep < 10; ++rep) {
      std::copy(from_.begin(), from_.end(), to_.begin());
      std::swap(from_, to_);
    }
    sink_ = h[0] ^ h[1] ^ h[2] ^ h[3] ^
            static_cast<std::uint64_t>(std::abs(from_[1]) > 2.0);
    return t.seconds();
  }

 private:
  std::vector<amp_t> chunk_;
  std::vector<amp_t> from_;
  std::vector<amp_t> to_;
  volatile std::uint64_t sink_ = 0;  ///< keeps the loops from being elided
};

/// Timings of one e2e iteration.
struct Sample {
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  double query_s = 0.0;
};

/// One iteration: a fresh engine in the initial state, the circuit, the
/// three reads. Leaves the engine and the reads for the check.
Sample iterate(const Workload& w, const Inputs& in,
               std::unique_ptr<core::Engine>& engine, Queries& q) {
  engine.reset();
  Sample s;
  WallTimer setup_timer;
  engine = prepared(core::EngineKind::kMemQSim, w, in);
  s.setup_s = setup_timer.seconds();

  const double cpu0 = cpu_seconds();
  WallTimer run_timer;
  engine->run(in.circuit);
  s.run_s = run_timer.seconds();
  s.run_cpu_s = cpu_seconds() - cpu0;

  WallTimer query_timer;
  q = run_queries(*engine, w.qubits);
  s.query_s = query_timer.seconds();
  return s;
}

JsonObject run_e2e(const Workload& w, std::uint64_t seed, double seconds) {
  const Inputs in = make_inputs(w, seed);
  std::unique_ptr<core::Engine> engine;
  Queries q;
  // Warm-up, kept out of the medians. Its peak RSS is the only one read
  // before the oracle's dense state exists.
  iterate(w, in, engine, q);
  const double peak_state =
      static_cast<double>(engine->telemetry().peak_host_state_bytes);
  const double peak_rss = peak_rss_bytes();
  const sv::StateVector warm = engine->to_dense();
  engine.reset();
  const Oracle oracle = make_oracle(w, in);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  double worst_fidelity_loss = 0.0;
  double worst_abs_diff = 0.0;
  std::string error;
  const auto verify = [&](const sv::StateVector& got) {
    const Verdict v = check(w, got, oracle, q);
    ++attempted;
    worst_fidelity_loss = std::max(worst_fidelity_loss, v.fidelity_loss);
    worst_abs_diff = std::max(worst_abs_diff, v.max_abs_diff);
    if (!v.ok) {
      ++failed;
      if (error.empty()) error = v.why;
    }
  };
  verify(warm);

  // Each iteration sits between two passes of the reference loop; their
  // mean is the host's speed for that iteration.
  ReferenceLoop reference;
  std::vector<double> setup_s, run_s, run_cpu_s, query_s, ref_s;
  std::vector<double> run_ref, query_ref;
  WallTimer clock;
  for (std::size_t i = 0; i < kMinIterations || clock.seconds() < seconds;
       ++i) {
    const double ref_before = reference.seconds();
    Sample s;
    double ref_after = 0.0;
    try {
      s = iterate(w, in, engine, q);
      ref_after = reference.seconds();
      verify(engine->to_dense());
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      if (error.empty()) error = e.what();
      continue;
    }
    const double ref = 0.5 * (ref_before + ref_after);
    setup_s.push_back(s.setup_s);
    run_s.push_back(s.run_s);
    run_cpu_s.push_back(s.run_cpu_s);
    query_s.push_back(s.query_s);
    ref_s.push_back(ref);
    run_ref.push_back(s.run_s / ref);
    query_ref.push_back(s.query_s / ref);
  }

  JsonObject r;
  r.boolean("ok", failed == 0)
      .str("error", error)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("iterations", static_cast<double>(run_s.size()))
      .num("fidelity_loss", worst_fidelity_loss)
      .num("max_abs_diff", worst_abs_diff)
      .num("setup_s", median(setup_s))
      .num("run_s", median(run_s))
      .num("run_p90_s", percentile(run_s, 0.9))
      .num("query_s", median(query_s))
      .num("run_cpu_s", median(run_cpu_s))
      .num("ref_s", median(ref_s))
      .num("run_ref", median(run_ref))
      .num("query_ref", median(query_ref))
      .num("dense_run_s", oracle.run_s)
      .num("peak_state_bytes", peak_state)
      .num("peak_rss_bytes", peak_rss);
  return r;
}

JsonObject run_trace(const Workload& w, std::uint64_t seed,
                     const std::string& trace_out) {
  const Inputs in = make_inputs(w, seed);
  const circuit::Circuit& c = in.circuit;
  double untraced_run_s = 0.0;
  {
    auto engine = prepared(core::EngineKind::kMemQSim, w, in);
    WallTimer t;
    engine->run(c);
    untraced_run_s = t.seconds();
  }

  SpanRecorder rec;
  std::unique_ptr<core::Engine> engine;
  {
    auto span = rec.span("engine", "make_engine");
    engine = prepared(core::EngineKind::kMemQSim, w, in);
  }
  TracedRun traced;
  traced.inputs = &in;
  {
    auto span = rec.span("engine", "run");
    engine->run(c);
    traced.run_s = span.close();
  }
  Queries q;
  {
    auto span = rec.span("engine", "queries");
    q = run_queries(*engine, w.qubits);
    traced.query_s = span.close();
  }
  traced.telemetry = engine->telemetry();
  const sv::StateVector got = engine->to_dense();
  engine.reset();
  traced.state = &got;

  std::map<std::string, double> m = replay_layers(w, traced, rec);
  m["trace.overhead"] = traced.run_s / untraced_run_s - 1.0;
  m["engine.query_s"] = traced.query_s;

  const Oracle oracle = [&] {
    auto span = rec.span("oracle", "dense_run");
    return make_oracle(w, in);
  }();
  m["oracle.dense_run_s"] = oracle.run_s;
  Verdict v;
  {
    auto span = rec.span("oracle", "compare");
    v = check(w, got, oracle, q);
  }
  m["oracle.fidelity_loss"] = v.fidelity_loss;
  if (!trace_out.empty())
    rec.write_chrome(trace_out, w.name + "/seed" + std::to_string(seed));

  JsonObject metrics;
  for (const auto& [name, value] : m) metrics.num(name, value);
  JsonObject r;
  r.boolean("ok", v.ok)
      .str("error", v.why)
      .num("attempted", 1)
      .num("failed", v.ok ? 0 : 1)
      .num("fidelity_loss", v.fidelity_loss)
      .num("max_abs_diff", v.max_abs_diff)
      .raw("metrics", metrics.text());
  return r;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string mode = "e2e";
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      const std::string v = value();
      std::size_t used = 0;
      a.seed = std::stoull(v, &used);
      if (used != v.size() || v.empty() || v[0] == '-')
        throw std::invalid_argument("--seed expects a non-negative integer");
      have_seed = true;
    } else if (k == "--mode") {
      a.mode = value();
    } else if (k == "--seconds") {
      const std::string v = value();
      std::size_t used = 0;
      a.seconds = std::stod(v, &used);
      if (used != v.size() || !(a.seconds >= 0.0 && a.seconds <= 3600.0))
        throw std::invalid_argument("--seconds expects 0..3600");
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  if (a.mode != "e2e" && a.mode != "trace")
    throw std::invalid_argument("--mode expects e2e or trace");
  return a;
}

}  // namespace

Workload make_workload_spec(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  core::EngineConfig& cfg = w.config;
  cfg.chunk_qubits = 14;  // 256 KiB chunks: one core's L2 holds one
  // One thread everywhere: on a few shared cores, a second thread times
  // the host's scheduler rather than the simulator.
  w.omp_threads = 1;
  cfg.codec_threads = 1;
  if (name == "rqc18-szq") {
    w.family = "random";
    w.qubits = 18;
    w.seeded_basis = true;
    w.lossy = true;
  } else if (name == "rqc20-spill") {
    w.family = "random";
    w.qubits = 20;
    w.seeded_basis = true;
    cfg.codec.compressor = "null";
  } else if (name == "qft21-const") {
    w.family = "qft";
    w.qubits = 21;
    w.lossy = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {
    w.qubits = 12;
    cfg.chunk_qubits = 8;
  }
  if (name == "rqc20-spill") {
    // File backend and write-back cache, each with a quarter of the state.
    const std::uint64_t quarter = ((index_t{1} << w.qubits) * kAmpBytes) / 4;
    cfg.store_backend = core::StoreBackend::kFile;
    cfg.host_blob_budget_bytes = quarter;
    cfg.cache_budget_bytes = quarter;
  }
  return w;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in{0, circuit::Circuit(w.qubits),
            circuit::make_workload(w.family, w.qubits, w.circuit_seed)};
  if (w.seeded_basis) {
    std::mt19937_64 gen(seed);
    in.basis = gen() & ((index_t{1} << w.qubits) - 1);
    for (qubit_t q = 0; q < w.qubits; ++q)
      if ((in.basis >> q) & 1) in.prep.x(q);
  }
  return in;
}

// ---- SpanRecorder ----------------------------------------------------------

SpanRecorder::Span::Span(SpanRecorder& rec, std::string cat, std::string name)
    : rec_(rec), index_(rec.events_.size()) {
  Event e;
  e.cat = std::move(cat);
  e.name = std::move(name);
  if (!rec.open_.empty()) {
    const Event& parent = rec.events_[rec.open_.back()];
    e.parent = parent.cat + "/" + parent.name;
  }
  e.start_us = rec.now_us();
  rec.events_.push_back(std::move(e));
  rec.open_.push_back(index_);
}

SpanRecorder::Span::~Span() { close(); }

double SpanRecorder::Span::close() {
  Event& e = rec_.events_[index_];
  if (open_) {
    e.dur_us = rec_.now_us() - e.start_us;
    rec_.open_.erase(std::find(rec_.open_.begin(), rec_.open_.end(), index_));
    open_ = false;
  }
  return e.dur_us * 1e-6;
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(clock::now() - origin_)
      .count();
}

void SpanRecorder::write_chrome(const std::string& path,
                                const std::string& run_id) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\": [\n";
  out << "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, "
         "\"tid\": 0, \"args\": {\"name\": \"memq_perfbench\"}}";
  for (const Event& e : events_) {
    JsonObject args;
    args.str("run", run_id).str("parent", e.parent);
    JsonObject ev;
    ev.str("ph", "X")
        .str("cat", e.cat)
        .str("name", e.name)
        .num("pid", 0)
        .num("tid", 0)
        .num("ts", e.start_us)
        .num("dur", e.dur_us)
        .raw("args", args.text());
    out << ",\n  " << ev.text();
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!kOptimizedBuild) {
    std::cerr << "memq_perfbench: refusing to time a non-optimized build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = make_workload_spec(args.workload, args.smoke);
  } catch (const std::exception& e) {
    std::cerr << "memq_perfbench: " << e.what() << "\n";
    return 2;
  }
#ifdef _OPENMP
  if (w.omp_threads > 0) omp_set_num_threads(w.omp_threads);
#endif
  w.config.seed = args.seed;  // measurement sampling
  std::cout << env_stamp(w, args.seed, args.mode) << std::endl;
  JsonObject result;
  try {
    result = args.mode == "e2e" ? run_e2e(w, args.seed, args.seconds)
                                : run_trace(w, args.seed, args.trace_out);
  } catch (const std::exception& e) {
    result = JsonObject().boolean("ok", false).str("error", e.what());
  }
  std::cout << JsonObject().raw("result", result.text()).text() << std::endl;
  return 0;
}
