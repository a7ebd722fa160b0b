// Per-layer replays of the traced run. Each replay calls one layer's public
// functions from here, on the traced run's inputs or final-state chunks,
// under a span named for the layer; nothing inside src/ is instrumented.
//
// Time accounting. The planner and stage replays redo the run's work: the
// stage replay applies every stage's gates to the plan's chunk and pair
// jobs and, for each job chunk, times one encode and one decode through the
// workload's codec and through the null codec (framing and checksum only),
// standing in for the engine's store of that chunk in the previous stage
// and its load in this one. The store, blob and device replays measure a
// cost per chunk, per spilled byte or per copied byte on the final-state
// chunks and scale it by the run's counts from engine telemetry. These
// serial-equivalent seconds plus engine.unattributed_s sum to the traced
// run_s; where work overlapped on pool threads, unattributed_s goes
// negative.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/timer.hpp"
#include "compress/chunk_codec.hpp"
#include "core/blob_store.hpp"
#include "core/chunk_exec.hpp"
#include "core/chunk_store.hpp"
#include "core/plan_opt.hpp"
#include "core/state_pager.hpp"
#include "device/copy_engine.hpp"
#include "sv/kernels.hpp"

namespace perfbench {

namespace {

using memq::amp_t;
using memq::index_t;
using memq::kAmpBytes;
using memq::WallTimer;
namespace circuit = memq::circuit;
namespace compress = memq::compress;
namespace core = memq::core;
namespace device = memq::device;
namespace sv = memq::sv;

using Metrics = std::map<std::string, double>;

/// Chunk geometry of a workload.
struct Geometry {
  qubit_t chunk_qubits;
  index_t amps;    ///< amplitudes per chunk
  index_t chunks;  ///< chunks in the state
  double chunk_bytes() const {
    return static_cast<double>(amps * kAmpBytes);
  }
};

Geometry geometry_of(const Workload& w) {
  const qubit_t c = std::min(w.config.chunk_qubits, w.qubits);
  return {c, index_t{1} << c, index_t{1} << (w.qubits - c)};
}

std::span<const amp_t> chunk_of(const sv::StateVector& s, const Geometry& g,
                                index_t i) {
  return s.amplitudes().subspan(i * g.amps, g.amps);
}

bool all_zero(std::span<const amp_t> a) {
  return std::all_of(a.begin(), a.end(),
                     [](const amp_t& z) { return z == amp_t{0.0, 0.0}; });
}

double mb_per_s(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / seconds / 1e6 : 0.0;
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

compress::ChunkCodecConfig null_codec_config(bool checksum) {
  compress::ChunkCodecConfig cfg;
  cfg.compressor = "null";
  cfg.checksum = checksum;
  return cfg;
}

core::StagePlan replay_planner(const Workload& w, const circuit::Circuit& c,
                               const Geometry& g, SpanRecorder& rec,
                               Metrics& m) {
  const core::PlanOptOptions opt{g.chunk_qubits, w.config.cache_budget_bytes,
                                 g.amps * sizeof(amp_t), g.chunks};
  auto span = rec.span("planner", "build_optimized_plan");
  core::StagePlan plan = w.config.plan_opt
                             ? core::build_optimized_plan(c, opt)
                             : core::partition(c, g.chunk_qubits);
  m["planner.plan_ms"] = span.close() * 1e3;
  m["planner.local_stages"] = static_cast<double>(plan.stats.local_stages);
  m["planner.pair_stages"] = static_cast<double>(plan.stats.pair_stages);
  m["planner.permute_stages"] =
      static_cast<double>(plan.stats.permute_stages);
  m["planner.predicted_codec_passes"] = plan.cost.codec_passes();
  return plan;
}

/// Encode and decode seconds of one codec over a set of chunks.
struct CodecTally {
  double encode_s = 0.0;
  double decode_s = 0.0;
  double bytes = 0.0;  ///< raw bytes through encode, and again decode
  double seconds() const { return encode_s + decode_s; }
};

void tally(compress::ChunkCodec& codec, std::span<const amp_t> chunk,
           compress::ByteBuffer& blob, std::vector<amp_t>& back,
           CodecTally& t) {
  WallTimer enc;
  codec.encode(chunk, blob);
  t.encode_s += enc.seconds();
  WallTimer dec;
  codec.decode(blob, back);
  t.decode_s += dec.seconds();
  t.bytes += static_cast<double>(chunk.size() * kAmpBytes);
}

struct StageTallies {
  CodecTally codec;  ///< the workload's codec
  CodecTally frame;  ///< the null codec: framing and checksum only
};

/// Applies every stage's gates over the plan's chunk and pair jobs on a
/// dense copy of the state, skipping all-zero jobs as the engine does, and
/// tallies the codec work on each job's chunks before its gates run.
StageTallies replay_stages(const core::StagePlan& plan, const Workload& w,
                           index_t basis, const Geometry& g,
                           SpanRecorder& rec, Metrics& m) {
  const bool null_codec = w.config.codec.compressor == "null";
  compress::ChunkCodec codec(w.config.codec);
  compress::ChunkCodec frame(null_codec_config(true));
  StageTallies tallies;
  compress::ByteBuffer blob;
  std::vector<amp_t> back(g.amps);
  const auto pass_codecs = [&](std::span<const amp_t> chunk) {
    tally(frame, chunk, blob, back, tallies.frame);
    if (!null_codec) tally(codec, chunk, blob, back, tallies.codec);
  };

  sv::StateVector psi(w.qubits, basis);
  const auto amps = psi.amplitudes();
  std::vector<amp_t> pair(2 * g.amps);
  double busy = 0.0;
  double updates = 0.0;
  auto span = rec.span("kernels", "replay_stages");
  for (const core::Stage& stage : plan.stages) {
    switch (stage.kind) {
      case core::StageKind::kLocal:
        for (index_t ci = 0; ci < g.chunks; ++ci) {
          const auto chunk = amps.subspan(ci * g.amps, g.amps);
          if (all_zero(chunk)) continue;
          pass_codecs(chunk);
          WallTimer t;
          for (const circuit::Gate& gate : stage.gates)
            if (core::apply_gate_to_chunk(chunk, ci, g.chunk_qubits, gate))
              updates += static_cast<double>(g.amps);
          busy += t.seconds();
        }
        break;
      case core::StageKind::kPair: {
        const index_t bit = index_t{1} << (stage.pair_qubit - g.chunk_qubits);
        for (index_t lo = 0; lo < g.chunks; ++lo) {
          if ((lo & bit) != 0) continue;
          const auto a = amps.subspan(lo * g.amps, g.amps);
          const auto b = amps.subspan((lo | bit) * g.amps, g.amps);
          if (all_zero(a) && all_zero(b)) continue;
          pass_codecs(a);
          pass_codecs(b);
          std::copy(a.begin(), a.end(), pair.begin());
          std::copy(b.begin(), b.end(), pair.begin() + g.amps);
          WallTimer t;
          for (const circuit::Gate& gate : stage.gates)
            if (core::apply_gate_to_pair(pair, lo, g.chunk_qubits,
                                         stage.pair_qubit, gate))
              updates += static_cast<double>(pair.size());
          busy += t.seconds();
          std::copy(pair.begin(), pair.begin() + g.amps, a.begin());
          std::copy(pair.begin() + g.amps, pair.end(), b.begin());
        }
        break;
      }
      case core::StageKind::kPermute:
        // The engine moves compressed blobs here; no kernel runs.
        for (const circuit::Gate& gate : stage.gates)
          sv::apply_gate(amps, gate);
        break;
      case core::StageKind::kMeasure:
        throw std::runtime_error("measure stages are not replayed");
    }
  }
  span.close();
  m["kernels.busy_s"] = busy;
  m["kernels.amp_updates"] = updates;
  m["kernels.gamp_per_s"] = busy > 0.0 ? updates / busy / 1e9 : 0.0;
  if (null_codec) tallies.codec = tallies.frame;
  return tallies;
}

/// One ChunkCodec encode pass and decode pass over every final-state chunk.
struct CodecPass {
  double encode_s = 0.0;
  double decode_s = 0.0;
  double raw_bytes = 0.0;
  double packed_bytes = 0.0;
  std::vector<compress::ByteBuffer> blobs;
  double seconds() const { return encode_s + decode_s; }
};

CodecPass time_codec(const compress::ChunkCodecConfig& config,
                     const sv::StateVector& s, const Geometry& g,
                     SpanRecorder& rec, const char* cat, const char* arm) {
  compress::ChunkCodec codec(config);
  CodecPass pass;
  pass.blobs.resize(g.chunks);
  {
    auto span = rec.span(cat, std::string("encode.") + arm);
    for (index_t i = 0; i < g.chunks; ++i)
      codec.encode(chunk_of(s, g, i), pass.blobs[i]);
    pass.encode_s = span.close();
  }
  std::vector<amp_t> back(g.amps);
  {
    auto span = rec.span(cat, std::string("decode.") + arm);
    for (index_t i = 0; i < g.chunks; ++i) codec.decode(pass.blobs[i], back);
    pass.decode_s = span.close();
  }
  pass.raw_bytes = g.chunk_bytes() * static_cast<double>(g.chunks);
  for (const auto& b : pass.blobs)
    pass.packed_bytes += static_cast<double>(b.size());
  return pass;
}

/// Seconds per ChunkStore::store and ::load over every chunk.
struct StorePass {
  double store_s = 0.0;
  double load_s = 0.0;
};

StorePass time_store(const Workload& w, const sv::StateVector& s,
                     const Geometry& g, bool dedup, SpanRecorder& rec) {
  std::unique_ptr<core::BlobStore> backend;
  if (dedup)
    backend = std::make_unique<core::DedupBlobStore>(
        std::make_unique<core::RamBlobStore>());
  core::ChunkStore store(w.qubits, g.chunk_qubits, w.config.codec,
                         std::move(backend));
  const char* arm = dedup ? "dedup" : "ram";
  StorePass pass;
  {
    auto span = rec.span("store", std::string("store.") + arm);
    for (index_t i = 0; i < g.chunks; ++i) store.store(i, chunk_of(s, g, i));
    pass.store_s = span.close();
  }
  std::vector<amp_t> back(g.amps);
  {
    auto span = rec.span("store", std::string("load.") + arm);
    for (index_t i = 0; i < g.chunks; ++i) store.load(i, back);
    pass.load_s = span.close();
  }
  return pass;
}

void replay_blob(const Workload& w,
                 const std::vector<compress::ByteBuffer>& blobs,
                 const core::EngineTelemetry& t, SpanRecorder& rec,
                 Metrics& m) {
  // RAM workloads get budget 0: every blob goes to the file, so the rates
  // are still the spill path's.
  const std::uint64_t budget =
      w.config.store_backend == core::StoreBackend::kFile
          ? w.config.host_blob_budget_bytes
          : 0;
  core::FileBlobStore file(budget);
  file.resize(blobs.size());
  std::vector<compress::ByteBuffer> copies = blobs;
  double bytes = 0.0;
  for (const auto& b : blobs) bytes += static_cast<double>(b.size());
  double write_s = 0.0;
  {
    auto span = rec.span("blob", "write");
    for (index_t i = 0; i < copies.size(); ++i)
      file.write(i, std::move(copies[i]));
    write_s = span.close();
  }
  double read_s = 0.0;
  {
    auto span = rec.span("blob", "read");
    compress::ByteBuffer scratch;
    double seen = 0.0;
    for (index_t i = 0; i < blobs.size(); ++i)
      seen += static_cast<double>(file.read(i, scratch).size());
    read_s = span.close();
    if (seen != bytes) throw std::runtime_error("blob replay lost bytes");
  }
  const auto st = file.stats();
  const double spilled =
      static_cast<double>(st.spill_bytes_written + st.spill_bytes_read);
  const double per_spill_byte = spilled > 0.0 ? (write_s + read_s) / spilled
                                              : 0.0;
  m["blob.write_mbps"] = mb_per_s(bytes, write_s);
  m["blob.read_mbps"] = mb_per_s(bytes, read_s);
  m["blob.spill_bytes_written"] = static_cast<double>(t.spill_bytes_written);
  m["blob.spill_bytes_read"] = static_cast<double>(t.spill_bytes_read);
  m["blob.attributed_s"] =
      per_spill_byte *
      static_cast<double>(t.spill_bytes_written + t.spill_bytes_read);
}

/// Drives the pager's stage stream and read sweep over every chunk,
/// timing each lease hand-out.
void replay_pager(const Workload& w, const sv::StateVector& s,
                  const Geometry& g, SpanRecorder& rec, Metrics& m) {
  core::EngineTelemetry telemetry;
  core::StatePager pager(w.qubits, w.config, telemetry, [](double) {});
  pager.ingest_dense(s.amplitudes());
  std::vector<core::ChunkJob> jobs;
  for (index_t i = 0; i < g.chunks; ++i) jobs.push_back({i, 0, false});
  std::vector<double> waits;
  {
    auto span = rec.span("pager", "open_stage");
    auto io = pager.open_stage(jobs);
    for (;;) {
      WallTimer t;
      auto lease = io.next();
      if (!lease) break;
      waits.push_back(t.seconds());
      io.release(std::move(*lease), true);
    }
    io.finish();
    m["pager.stage_stream_s"] = span.close();
  }
  {
    auto span = rec.span("pager", "sweep");
    pager.sweep(jobs, [](const core::ChunkJob&, std::span<amp_t>) {});
    m["pager.sweep_s"] = span.close();
  }
  m["pager.lease_wait_p50_us"] = percentile(waits, 0.50) * 1e6;
  m["pager.lease_wait_p99_us"] = percentile(waits, 0.99) * 1e6;
}

/// Staged CopyEngine round trips of every chunk; scaled to the run's
/// modeled-device traffic.
void replay_device(const Workload& w, const sv::StateVector& s,
                   const Geometry& g, const core::EngineTelemetry& t,
                   SpanRecorder& rec, Metrics& m) {
  device::SimDevice dev(w.config.device);
  device::Stream h2d(dev, "h2d");
  device::Stream d2h(dev, "d2h");
  device::CopyEngine copy(dev, w.config.strategy);
  const std::uint64_t bytes = g.amps * kAmpBytes;
  device::DeviceBuffer buf = dev.alloc(bytes, "state");
  device::DeviceBuffer staging;
  if (w.config.strategy == device::TransferStrategy::kStagedBuffer)
    staging = dev.alloc(bytes, "staging");
  device::DeviceBuffer* staging_ptr = staging.valid() ? &staging : nullptr;
  std::vector<amp_t> host(g.amps);
  auto span = rec.span("device", "copy_round_trips");
  for (index_t i = 0; i < g.chunks; ++i) {
    copy.upload(h2d, buf, chunk_of(s, g, i), {}, staging_ptr);
    copy.download(d2h, host, buf, {}, staging_ptr);
  }
  const double replay_s = span.close();
  const double moved = 2.0 * g.chunk_bytes() * static_cast<double>(g.chunks);
  m["device.copy_s"] =
      replay_s * static_cast<double>(t.h2d_bytes + t.d2h_bytes) / moved;
  m["device.h2d_bytes"] = static_cast<double>(t.h2d_bytes);
  m["device.h2d_calls"] = static_cast<double>(t.h2d_calls);
  m["device.kernel_launches"] = static_cast<double>(t.kernel_launches);
}

}  // namespace

std::map<std::string, double> replay_layers(const Workload& w,
                                            const TracedRun& run,
                                            SpanRecorder& rec) {
  Metrics m;
  const Geometry g = geometry_of(w);
  const core::EngineTelemetry& t = run.telemetry;
  const sv::StateVector& s = *run.state;
  const double loads = static_cast<double>(t.chunk_loads);
  const double stores = static_cast<double>(t.chunk_stores);
  const double n_chunks = static_cast<double>(g.chunks);

  const core::StagePlan plan =
      replay_planner(w, run.inputs->circuit, g, rec, m);
  const StageTallies st =
      replay_stages(plan, w, run.inputs->basis, g, rec, m);

  // Framing and integrity (the null codec) over the stage replay's chunks;
  // the checksum's share from the final state with the checksum on and off.
  m["frame.encode_mbps"] = mb_per_s(st.frame.bytes, st.frame.encode_s);
  m["frame.decode_mbps"] = mb_per_s(st.frame.bytes, st.frame.decode_s);
  m["frame.attributed_s"] = st.frame.seconds();
  const CodecPass framed =
      time_codec(null_codec_config(true), s, g, rec, "frame", "checksum");
  const CodecPass bare =
      time_codec(null_codec_config(false), s, g, rec, "frame", "bare");
  m["frame.checksum_share"] =
      1.0 - bare.seconds() / std::max(1e-12, framed.seconds());

  // The compressor itself: the workload's codec less framing.
  const bool null_codec = w.config.codec.compressor == "null";
  m["codec.encode_mbps"] = mb_per_s(st.codec.bytes, st.codec.encode_s);
  m["codec.decode_mbps"] = mb_per_s(st.codec.bytes, st.codec.decode_s);
  m["codec.attributed_s"] =
      null_codec ? 0.0
                 : std::max(0.0, st.codec.seconds() - st.frame.seconds());
  const CodecPass packed =
      null_codec ? framed
                 : time_codec(w.config.codec, s, g, rec, "codec",
                              w.config.codec.compressor.c_str());
  m["codec.ratio"] = packed.raw_bytes / std::max(1.0, packed.packed_bytes);
  const double codec_enc = packed.encode_s / n_chunks;
  const double codec_dec = packed.decode_s / n_chunks;

  // Chunk store bookkeeping beyond the codec: dedup, memo, blob index.
  const StorePass dedup = time_store(w, s, g, true, rec);
  const StorePass ram = time_store(w, s, g, false, rec);
  const StorePass& used = w.config.dedup ? dedup : ram;
  m["store.store_us_per_blob"] = used.store_s / n_chunks * 1e6;
  m["store.load_us_per_blob"] = used.load_s / n_chunks * 1e6;
  m["store.dedup_share"] =
      1.0 - (ram.store_s + ram.load_s) /
                std::max(1e-12, dedup.store_s + dedup.load_s);
  m["store.attributed_s"] = stores * (used.store_s / n_chunks - codec_enc) +
                            loads * (used.load_s / n_chunks - codec_dec);
  m["store.dedup_hits"] = static_cast<double>(t.dedup_hits);
  m["store.memo_hits"] = static_cast<double>(t.codec_memo_hits);
  m["store.constant_chunks"] = static_cast<double>(t.constant_chunks_stored);

  replay_blob(w, packed.blobs, t, rec, m);

  const double lookups = static_cast<double>(t.cache_hits + t.cache_misses);
  m["cache.lookups"] = lookups;
  m["cache.hit_rate"] =
      lookups > 0.0 ? static_cast<double>(t.cache_hits) / lookups : 0.0;
  m["cache.evictions"] = static_cast<double>(t.cache_evictions);
  m["cache.writebacks"] = static_cast<double>(t.cache_writebacks);

  replay_pager(w, s, g, rec, m);
  replay_device(w, s, g, t, rec, m);

  const double replayed = m["planner.plan_ms"] / 1e3 + m["kernels.busy_s"] +
                          m["frame.attributed_s"] + m["codec.attributed_s"] +
                          m["store.attributed_s"] + m["blob.attributed_s"] +
                          m["device.copy_s"];
  m["engine.traced_run_s"] = run.run_s;
  m["engine.unattributed_s"] = run.run_s - replayed;
  return m;
}

}  // namespace perfbench
