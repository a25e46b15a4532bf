// The repository benchmark: per-downloader latency, trial host cost and
// per-layer counters over two DAPES swarms.
//
// Each trial is assembled here from the same public pieces the protocol
// drivers use (harness::Topology, core::Peer, core::ForwarderNode,
// harness::CompletionTracker, harness::run_to_completion), mirroring
// harness::run_dapes_trial step for step. Owning the assembly is what
// lets the benchmark see every downloader's completion time, sample the
// scheduler queue and the heap, and time its own calls into each layer
// from the outside without touching src/. Trial 0 of every run is re-run
// through harness::run_trial(<driver>, params) and must agree on every
// deterministic TrialResult field, which proves the assembly is the
// program's own scenario.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trials <k>] [--sim-limit <s>] [--out-dir <dir>]
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see README.md). Exit status is 0 only when every
// correctness check passed.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/verify_cache.hpp"
#include "dapes/forwarder_node.hpp"
#include "dapes/peer.hpp"
#include "harness/driver.hpp"
#include "harness/scenario.hpp"
#include "harness/topology.hpp"
#include "ndn/packet.hpp"
#include "trace/events.hpp"
#include "trace/format.hpp"
#include "trace/query.hpp"

namespace {

using namespace dapes;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Heap bytes currently allocated (glibc arenas plus mmapped blocks).
size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// ------------------------------------------------------------ workloads

/// One named workload: the registered driver whose scenario it is, its
/// knobs, and the fixed number of trials the simulated metrics are taken
/// over (fixed, so they never depend on host speed).
struct Workload {
  std::string name;
  std::string driver;
  harness::ScenarioParams params;
  int trials = 1;
};

// Why these two (README.md has the measurements behind the choice):
//  * swarm.fig7 is the paper's Fig. 7 world unchanged: 44 nodes, 23
//    downloaders of a 1280-packet signed collection. Data-plane-bound:
//    every delivery pays NDN decode, PIT/CS, verify and DAPES strategy
//    work.
//  * swarm.onefile is the same world sharing one 128-packet file, run as
//    many short trials. Downloads are short, so discovery, metadata
//    retrieval, bitmap exchange and per-trial set-up and teardown weigh
//    far more next to data transfer, and the medium, verify cache and CS
//    see about an eighth of the frames.
// Both run on the serial engine (trial_threads = 0): the phase-parallel
// engine is excluded (README.md, "Known defect").
std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "swarm.fig7";
    w.driver = harness::ProtocolNames::kDapes;
    w.trials = 8;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "swarm.onefile";
    w.driver = harness::ProtocolNames::kDapes;
    w.params.files = 1;
    w.trials = 80;
    out.push_back(std::move(w));
  }
  for (auto& w : out) w.params.trial_threads = 0;
  return out;
}

// ---------------------------------------------------------------- spans

/// One benchmark-side span. Aggregated spans (calls > 1) stand for many
/// short intervals inside their parent; their duration is the sum.
struct Span {
  int trial = 0;
  int parent = -1;
  std::string name;
  double start_s = 0.0;  ///< since the benchmark's epoch
  double dur_s = 0.0;
  uint64_t calls = 1;
};

/// In-memory span log, written out once when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Start a span at @p at; its duration is set by close().
  int open(int trial, int parent, std::string name, Clock::time_point at) {
    spans_.push_back({trial, parent, std::move(name),
                      seconds_between(epoch_, at), 0.0, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span, Clock::time_point at) {
    spans_[span].dur_s = seconds_between(epoch_, at) - spans_[span].start_s;
  }
  int add(int trial, int parent, std::string name, Clock::time_point a,
          Clock::time_point b) {
    const int id = open(trial, parent, std::move(name), a);
    close(id, b);
    return id;
  }
  /// Many short intervals inside @p parent, recorded as one span whose
  /// duration is their sum.
  void add_aggregate(int trial, int parent, std::string name,
                     Clock::time_point at, double dur_s, uint64_t calls) {
    spans_.push_back({trial, parent, std::move(name),
                      seconds_between(epoch_, at), dur_s, calls});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_s;
    for (const auto& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.dur_s;
    }
    return self;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Times the Topology's delivery prewarm from outside: installed in its
/// place through Medium::set_prewarm, forwarding every call.
class TimedPrewarm : public sim::DeliveryPrewarm {
 public:
  explicit TimedPrewarm(sim::DeliveryPrewarm& inner) : inner_(inner) {}

  void stage(const sim::FramePtr* frames, size_t count) override {
    const auto a = Clock::now();
    inner_.stage(frames, count);
    stage_s += seconds_between(a, Clock::now());
    ++stage_calls;
  }
  void commit(const sim::Frame& frame) override {
    const auto a = Clock::now();
    inner_.commit(frame);
    commit_s += seconds_between(a, Clock::now());
    ++commit_calls;
  }
  void bind_worker() override { inner_.bind_worker(); }
  void unbind_worker() override { inner_.unbind_worker(); }

  double stage_s = 0.0;
  double commit_s = 0.0;
  uint64_t stage_calls = 0;
  uint64_t commit_calls = 0;

 private:
  sim::DeliveryPrewarm& inner_;
};

// --------------------------------------------------------------- trials

/// Everything one assembled trial yields: deterministic results and
/// counters (simulated, repeat exactly) and host timings (measured).
struct TrialRecord {
  uint64_t seed = 0;
  bool threw = false;
  std::vector<std::string> failures;

  harness::TrialResult result;
  int expected = 0;
  int completed = 0;
  std::vector<double> completion_s;  ///< sorted completion times

  // Host time, seconds.
  double topology_s = 0.0;
  double nodes_s = 0.0;
  double loop_s = 0.0;
  double teardown_s = 0.0;
  double tail_s = 0.0;  ///< last chunk to loop return (the trace flush)
  double prewarm_s = 0.0;
  /// Peak heap growth over the trial's starting level, sampled at every
  /// 5 s chunk and at the end of the loop (bytes).
  size_t heap_peak = 0;
  double setup_s() const { return topology_s + nodes_s; }
  double wall_s() const { return setup_s() + loop_s + teardown_s; }

  // sim
  uint64_t queue_peak = 0;
  uint64_t deliveries = 0;
  uint64_t losses = 0;
  uint64_t collision_drops = 0;
  uint64_t bytes_sent = 0;
  // crypto
  uint64_t digests_computed = 0;
  uint64_t digest_hits = 0, digest_misses = 0;
  uint64_t mac_hits = 0, mac_misses = 0;
  uint64_t evictions = 0;
  // ndn
  uint64_t decodes = 0, encodes = 0, wire_hits = 0;
  uint64_t interests_in = 0, cs_hits = 0, data_in = 0;
  uint64_t unsolicited = 0, pit_timeouts = 0;
  // dapes
  uint64_t data_interests = 0, interest_timeouts = 0;
  uint64_t packets_received = 0, bitmap_announcements = 0;
  uint64_t peba_collisions = 0;
  // trace (traced trials only)
  uint64_t trace_records = 0, trace_dropped = 0;
  std::vector<uint64_t> trace_by_type;
};

struct CodecSnapshot {
  uint64_t decodes, encodes, wire_hits, digests;
  static CodecSnapshot take() {
    const auto& c = ndn::codec_counters();
    return {c.interest_decodes + c.data_decodes,
            c.interest_encodes + c.data_encodes, c.wire_cache_hits.load(),
            crypto::verify_counters().content_digests_computed.load()};
  }
};

/// The per-trial world, declared in run_dapes_trial's order so teardown
/// destroys it in the same order.
struct World {
  std::unique_ptr<harness::Topology> topo;
  std::vector<std::unique_ptr<core::Peer>> downloaders;
  std::vector<std::unique_ptr<core::ForwarderNode>> forwarders;
  harness::CompletionTracker tracker;
  core::Peer* producer = nullptr;
  std::unique_ptr<TimedPrewarm> timed_prewarm;
  sim::DeliveryPrewarm* inner_prewarm = nullptr;
};

/// Place the nodes exactly as harness::run_dapes_trial does for a
/// fixed-population trial (same construction order, so the same RNG
/// draws and node ids). The fault wiring of the churn.* presets is not
/// assembled: no workload enables it, and build_nodes refuses it.
void build_nodes(const harness::ScenarioParams& params, World& w) {
  if (params.faults.any()) {
    throw std::invalid_argument("perfbench does not assemble fault wiring");
  }
  harness::Topology& topo = *w.topo;
  w.tracker.expected =
      params.stationary_downloaders + params.mobile_downloaders - 1;

  auto add_downloader = [&](sim::MobilityModel* mob, const std::string& id,
                            bool is_producer) {
    core::PeerOptions po = params.peer;
    po.id = id;
    auto peer = std::make_unique<core::Peer>(topo.sched, *topo.medium, mob,
                                             topo.rng.fork(), po);
    peer->keychain().import_key(topo.producer_key);
    peer->add_trust_anchor(topo.producer_key.id());
    if (is_producer) {
      peer->publish(topo.collection);
      w.producer = peer.get();
    } else {
      peer->subscribe(topo.collection);
      harness::CompletionTracker* tracker = &w.tracker;
      peer->set_completion_callback(
          [tracker](const ndn::Name&, sim::TimePoint t) {
            tracker->record(t.to_seconds());
          });
    }
    sim::Scheduler::OwnerScope own(topo.sched, peer->node());
    peer->start();
    w.downloaders.push_back(std::move(peer));
  };
  for (int i = 0; i < params.stationary_downloaders; ++i) {
    add_downloader(topo.stationary(params, i), "repo-" + std::to_string(i),
                   false);
  }
  for (int i = 0; i < params.mobile_downloaders; ++i) {
    add_downloader(topo.mobile(params), "peer-" + std::to_string(i), i == 0);
  }

  auto add_forwarder = [&](core::ForwarderKind kind) {
    core::ForwarderNode::Options fo;
    fo.kind = kind;
    fo.forward_probability =
        params.peer.multihop ? params.peer.forward_probability : 0.0;
    w.forwarders.push_back(std::make_unique<core::ForwarderNode>(
        topo.sched, *topo.medium, topo.mobile(params), topo.rng.fork(), fo));
  };
  for (int i = 0; i < params.pure_forwarders; ++i) {
    add_forwarder(core::ForwarderKind::kPureForwarder);
  }
  for (int i = 0; i < params.dapes_intermediates; ++i) {
    add_forwarder(core::ForwarderKind::kDapesIntermediate);
  }

  harness::apply_hetero_radios(params, *topo.medium);
}

std::unique_ptr<harness::Topology> make_topology(
    const harness::ScenarioParams& params) {
  return std::make_unique<harness::Topology>(params, params.seed,
                                             "/collection-1533783192",
                                             "/dapes/producer", "file-");
}

/// Set-up alone: build the world for @p seed, then drop it unrun.
/// Returns the set-up time (Topology through node construction).
double time_setup(const harness::ScenarioParams& base, uint64_t seed) {
  harness::ScenarioParams params = base;
  params.seed = seed;
  World w;
  const auto a = Clock::now();
  w.topo = make_topology(params);
  build_nodes(params, w);
  return seconds_between(a, Clock::now());
}

/// Run one assembled trial. @p traced installs the file sink at
/// @p trace_path and the timed prewarm wrapper, and records spans.
TrialRecord run_assembled_trial(const harness::ScenarioParams& base,
                                uint64_t seed, int trial_id, bool traced,
                                const std::string& trace_path, SpanLog* spans) {
  TrialRecord rec;
  rec.seed = seed;
  harness::ScenarioParams params = base;
  params.seed = seed;
  if (traced) {
    params.trace.sink = "file";
    params.trace.path = trace_path;
  }

  const CodecSnapshot before = CodecSnapshot::take();
  const size_t heap_before = heap_in_use();
  auto sample_heap = [&rec, heap_before] {
    const size_t now = heap_in_use();
    if (now > heap_before) {
      rec.heap_peak = std::max(rec.heap_peak, now - heap_before);
    }
  };
  auto world = std::make_unique<World>();
  World& w = *world;

  const auto t_start = Clock::now();
  int trial_span = -1;
  if (spans != nullptr) {
    trial_span = spans->open(trial_id, -1, "trial", t_start);
  }
  w.topo = make_topology(params);
  const auto t_topo = Clock::now();
  build_nodes(params, w);
  if (traced && w.topo->medium->prewarm() != nullptr) {
    w.inner_prewarm = w.topo->medium->prewarm();
    w.timed_prewarm = std::make_unique<TimedPrewarm>(*w.inner_prewarm);
    w.topo->medium->set_prewarm(w.timed_prewarm.get());
  }
  const auto t_nodes = Clock::now();

  int loop_span = -1;
  if (spans != nullptr) {
    spans->add(trial_id, trial_span, "topology", t_start, t_topo);
    spans->add(trial_id, trial_span, "nodes", t_topo, t_nodes);
    loop_span = spans->open(trial_id, trial_span, "loop", t_nodes);
  }
  Clock::time_point chunk_start = t_nodes;
  const auto sample = [&] {
    harness::StateSample s;
    for (const auto& p : w.downloaders) {
      s.state_bytes += p->state_bytes();
      s.knowledge_bytes += p->knowledge_bytes();
    }
    for (const auto& f : w.forwarders) s.state_bytes += f->state_bytes();
    rec.queue_peak =
        std::max<uint64_t>(rec.queue_peak, w.topo->sched.queued());
    sample_heap();
    if (spans != nullptr) {
      const auto now = Clock::now();
      const int chunk =
          spans->add(trial_id, loop_span, "loop.chunk", chunk_start, now);
      if (w.timed_prewarm) {
        TimedPrewarm& tp = *w.timed_prewarm;
        spans->add_aggregate(trial_id, chunk, "prewarm.stage", chunk_start,
                             tp.stage_s, tp.stage_calls);
        spans->add_aggregate(trial_id, chunk, "prewarm.commit", chunk_start,
                             tp.commit_s, tp.commit_calls);
        rec.prewarm_s += tp.stage_s + tp.commit_s;
        tp.stage_s = tp.commit_s = 0.0;
        tp.stage_calls = tp.commit_calls = 0;
      }
      chunk_start = now;
    }
    return s;
  };
  rec.result = harness::run_to_completion(params, *w.topo, w.tracker, sample);
  const auto t_loop = Clock::now();
  sample_heap();

  // driver-layered metric, as in run_dapes_trial
  uint64_t forwards = 0;
  uint64_t relay_timeouts = 0;
  for (const auto& f : w.forwarders) {
    forwards += f->strategy().forwards();
    relay_timeouts += f->strategy().relay_timeouts();
  }
  rec.result.forward_accuracy =
      forwards == 0 ? 0.0
                    : 1.0 - static_cast<double>(relay_timeouts) /
                                static_cast<double>(forwards);

  // Counters and correctness checks, between the loop and teardown.
  const CodecSnapshot after = CodecSnapshot::take();
  rec.decodes = after.decodes - before.decodes;
  rec.encodes = after.encodes - before.encodes;
  rec.wire_hits = after.wire_hits - before.wire_hits;
  rec.digests_computed = after.digests - before.digests;
  const sim::MediumStats& ms = w.topo->medium->stats();
  rec.deliveries = ms.deliveries;
  rec.losses = ms.losses;
  rec.collision_drops = ms.collision_drops;
  rec.bytes_sent = ms.bytes_sent;
  if (w.topo->verify_cache) {
    const auto vs = w.topo->verify_cache->stats();
    rec.digest_hits = vs.digest_hits;
    rec.digest_misses = vs.digest_misses;
    rec.mac_hits = vs.mac_hits;
    rec.mac_misses = vs.mac_misses;
    rec.evictions = vs.evictions;
  }
  auto add_forwarder_stats = [&rec](const ndn::Forwarder::Stats& fs) {
    rec.interests_in += fs.interests_in;
    rec.cs_hits += fs.cs_hits;
    rec.data_in += fs.data_in;
    rec.unsolicited += fs.unsolicited_data;
    rec.pit_timeouts += fs.pit_timeouts;
  };
  const ndn::Name& collection = w.topo->collection->name();
  int completed_honest = 0;
  for (const auto& p : w.downloaders) {
    add_forwarder_stats(p->forwarder().stats());
    const auto& ps = p->stats();
    rec.data_interests += ps.data_interests_sent;
    rec.interest_timeouts += ps.interest_timeouts;
    rec.packets_received += ps.data_packets_received;
    rec.bitmap_announcements += ps.bitmap_announcements_sent;
    rec.peba_collisions += ps.bitmap_collisions_detected;
    if (p.get() == w.producer) continue;
    if (p->completion_time(collection).has_value()) {
      ++completed_honest;
      if (p->progress(collection) != 1.0) {
        rec.failures.push_back(p->id() + ": completed with progress " +
                               std::to_string(p->progress(collection)));
      }
      if (ps.integrity_failures != 0 || ps.metadata_rejected != 0) {
        rec.failures.push_back(p->id() + ": integrity_failures=" +
                               std::to_string(ps.integrity_failures) +
                               " metadata_rejected=" +
                               std::to_string(ps.metadata_rejected));
      }
    }
  }
  for (const auto& f : w.forwarders) {
    add_forwarder_stats(f->forwarder().stats());
  }

  rec.expected = w.tracker.expected;
  rec.completed = w.tracker.completed;
  rec.completion_s = w.tracker.times;
  std::sort(rec.completion_s.begin(), rec.completion_s.end());
  if (completed_honest != rec.completed) {
    rec.failures.push_back("tracker counted " + std::to_string(rec.completed) +
                           " completions, peers report " +
                           std::to_string(completed_honest));
  }
  if (rec.completed > rec.expected) {
    rec.failures.push_back("more completions than downloaders");
  }
  for (double t : rec.completion_s) {
    if (!(t >= 0.0 && t <= params.sim_limit_s)) {
      rec.failures.push_back("completion time outside [0, sim_limit_s]");
      break;
    }
  }
  const auto t_checked = Clock::now();

  // Teardown: the world is destroyed in run_dapes_trial's order; the
  // original prewarm goes back in first so no dangling hook remains.
  if (w.timed_prewarm) w.topo->medium->set_prewarm(w.inner_prewarm);
  world.reset();
  const auto t_end = Clock::now();

  rec.topology_s = seconds_between(t_start, t_topo);
  rec.nodes_s = seconds_between(t_topo, t_nodes);
  rec.loop_s = seconds_between(t_nodes, t_loop);
  rec.tail_s = seconds_between(chunk_start, t_loop);
  rec.teardown_s = seconds_between(t_checked, t_end);

  if (spans != nullptr) {
    spans->add(trial_id, loop_span, "loop.flush", chunk_start, t_loop);
    spans->close(loop_span, t_loop);
    spans->add(trial_id, trial_span, "teardown", t_checked, t_end);
    spans->close(trial_span, t_end);
  }
  return rec;
}

// ----------------------------------------------------- equivalence check

/// Deterministic TrialResult fields (everything except wall_clock_s)
/// rendered canonically, for the driver re-run comparison and digests.
std::string deterministic_fields(const harness::TrialResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "download_time_s=%.17g completion_fraction=%.17g "
                "transmissions=%llu collided_frames=%llu "
                "peak_state_bytes=%zu total_state_bytes=%zu "
                "events_executed=%llu forward_accuracy=%.17g "
                "peak_knowledge_bytes=%zu context_switches=%llu "
                "system_calls=%llu page_faults=%llu",
                r.download_time_s, r.completion_fraction,
                static_cast<unsigned long long>(r.transmissions),
                static_cast<unsigned long long>(r.collided_frames),
                r.peak_state_bytes, r.total_state_bytes,
                static_cast<unsigned long long>(r.events_executed),
                r.forward_accuracy, r.peak_knowledge_bytes,
                static_cast<unsigned long long>(r.context_switches),
                static_cast<unsigned long long>(r.system_calls),
                static_cast<unsigned long long>(r.page_faults));
  std::string out = buf;
  std::map<std::string, uint64_t> kinds(r.tx_by_kind.begin(),
                                        r.tx_by_kind.end());
  for (const auto& [k, v] : kinds) {
    out += " tx[" + k + "]=" + std::to_string(v);
  }
  return out;
}

/// Every simulated value of a trial, canonically rendered: what the
/// digest covers and what repeats must reproduce exactly.
std::string simulated_fields(const TrialRecord& r) {
  std::string out = "seed=" + std::to_string(r.seed) + " " +
                    deterministic_fields(r.result);
  const uint64_t counts[] = {
      static_cast<uint64_t>(r.expected), static_cast<uint64_t>(r.completed),
      r.queue_peak, r.deliveries, r.losses, r.collision_drops, r.bytes_sent,
      r.digests_computed, r.digest_hits, r.digest_misses, r.mac_hits,
      r.mac_misses, r.evictions, r.decodes, r.encodes, r.wire_hits,
      r.interests_in, r.cs_hits, r.data_in, r.unsolicited, r.pit_timeouts,
      r.data_interests, r.interest_timeouts, r.packets_received,
      r.bitmap_announcements, r.peba_collisions};
  for (uint64_t c : counts) {
    out += ' ';
    out += std::to_string(c);
  }
  char buf[32];
  for (double t : r.completion_s) {
    std::snprintf(buf, sizeof buf, " %.17g", t);
    out += buf;
  }
  return out;
}

uint64_t fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ------------------------------------------------------------ reporting

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]) of a sorted sample.
double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-34s %20s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int trials = 0;           ///< 0 = the workload's fixed count
  double sim_limit_s = 0.0; ///< 0 = the workload's horizon
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trials <k>] [--sim-limit <s>] "
               "[--out-dir <dir>]\nworkloads:",
               why.c_str());
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
        used = v.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &used);
      } else if (flag == "--trials") {
        a.trials = std::stoi(v, &used);
      } else if (flag == "--sim-limit") {
        a.sim_limit_s = std::stod(v, &used);
      } else if (flag == "--out-dir") {
        a.out_dir = v;
        used = v.size();
      } else {
        usage("unknown flag " + flag);
      }
      if (used != v.size()) throw std::invalid_argument(v);
    } catch (const std::logic_error&) {
      usage("bad value \"" + v + "\" for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (a.seconds <= 0.0 || a.trials < 0 || a.sim_limit_s < 0.0) {
    usage("--seconds must be > 0, --trials and --sim-limit >= 0");
  }
  return a;
}

/// Host timings of one trial across repeated rounds: the per-trial value
/// is the median over its repeats.
struct HostSamples {
  std::vector<double> setup, wall, topology, nodes, loop, teardown, heap_mb;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Workload wl;
  bool found = false;
  for (auto& w : workloads()) {
    if (w.name == args.workload) {
      wl = w;
      found = true;
    }
  }
  if (!found) usage("unknown workload \"" + args.workload + "\"");
  if (args.trials > 0) wl.trials = args.trials;
  if (args.sim_limit_s > 0.0) wl.params.sim_limit_s = args.sim_limit_s;
  const int k = wl.trials;
  const bool traced_run = args.trace == 1;

  const auto epoch = Clock::now();
  std::vector<uint64_t> seeds;
  for (int i = 0; i < k; ++i) {
    seeds.push_back(common::derive_seed(args.seed, static_cast<uint64_t>(i)));
  }

  std::vector<std::string> failures;
  int attempted = 0;
  int failed_trials = 0;
  auto run_checked = [&](int i, bool traced, SpanLog* spans,
                         const std::string& trace_path) {
    ++attempted;
    TrialRecord rec;
    try {
      rec = run_assembled_trial(wl.params, seeds[i], i, traced, trace_path,
                                spans);
    } catch (const std::exception& e) {
      rec = TrialRecord{};
      rec.seed = seeds[i];
      rec.threw = true;
      rec.failures.push_back(std::string("trial threw: ") + e.what());
    }
    if (!rec.failures.empty()) {
      ++failed_trials;
      for (const auto& f : rec.failures) {
        failures.push_back("trial " + std::to_string(i) + ": " + f);
      }
    }
    std::fprintf(stderr,
                 "[%s] trial %d%s seed=%llu setup=%.3fs loop=%.3fs "
                 "teardown=%.3fs completed=%d/%d tx=%llu events=%llu\n",
                 wl.name.c_str(), i, traced ? " (traced)" : "",
                 static_cast<unsigned long long>(rec.seed), rec.setup_s(),
                 rec.loop_s, rec.teardown_s, rec.completed, rec.expected,
                 static_cast<unsigned long long>(rec.result.transmissions),
                 static_cast<unsigned long long>(rec.result.events_executed));
    return rec;
  };

  // Round 0 fixes every simulated metric. Further rounds re-run the same
  // trials while --seconds allows, adding host-time samples; each must
  // reproduce round 0's simulated results exactly.
  std::vector<TrialRecord> base;
  std::vector<HostSamples> host(k);
  // Set-up is milliseconds, so each trial's world is also built and
  // dropped kSetupRepeats more times; setup_s is the median of them all.
  constexpr int kSetupRepeats = 4;
  auto add_host = [&](int i, const TrialRecord& r) {
    host[i].setup.push_back(r.setup_s());
    try {
      for (int rep = 0; rep < kSetupRepeats; ++rep) {
        host[i].setup.push_back(time_setup(wl.params, seeds[i]));
      }
    } catch (const std::exception& e) {
      failures.push_back("trial " + std::to_string(i) +
                         ": set-up threw: " + e.what());
    }
    host[i].wall.push_back(r.wall_s());
    host[i].topology.push_back(r.topology_s);
    host[i].nodes.push_back(r.nodes_s);
    host[i].loop.push_back(r.loop_s);
    host[i].teardown.push_back(r.teardown_s);
    host[i].heap_mb.push_back(static_cast<double>(r.heap_peak) / (1 << 20));
  };
  for (int i = 0; i < k; ++i) {
    base.push_back(run_checked(i, false, nullptr, ""));
    add_host(i, base.back());
  }
  const double round_s = seconds_between(epoch, Clock::now());
  int rounds = 1;
  if (!traced_run) {
    while (seconds_between(epoch, Clock::now()) + round_s <= args.seconds) {
      for (int i = 0; i < k; ++i) {
        TrialRecord r = run_checked(i, false, nullptr, "");
        if (!r.threw && simulated_fields(r) != simulated_fields(base[i])) {
          failures.push_back("trial " + std::to_string(i) +
                             ": repeat diverged from round 0");
        }
        add_host(i, r);
      }
      ++rounds;
    }
  }

  // Traced run: the first kTracedTrials trials again with the file sink
  // and the timed prewarm, spans kept in memory and written out at the
  // end. Counters come from the untraced trials above; a file-sink trace
  // of a whole trial is hundreds of MB, so only a few are traced.
  constexpr int kTracedTrials = 2;
  SpanLog spans(epoch);
  std::vector<TrialRecord> traced;
  if (traced_run) {
    std::filesystem::create_directories(args.out_dir);
    for (int i = 0; i < std::min(k, kTracedTrials); ++i) {
      const std::string path = args.out_dir + "/trace-" + wl.name + "-s" +
                               std::to_string(args.seed) + "-t" +
                               std::to_string(i) + ".dtrc";
      TrialRecord r = run_checked(i, true, &spans, path);
      if (!r.threw) {
        if (deterministic_fields(r.result) !=
            deterministic_fields(base[i].result)) {
          failures.push_back("trial " + std::to_string(i) +
                             ": tracing changed the trial's results");
        }
        try {
          const trace::TraceData data = trace::read_trace_file(path);
          const trace::TraceStats st = trace::compute_stats(data);
          r.trace_records = st.records;
          r.trace_dropped = st.dropped;
          r.trace_by_type.assign(trace::kEventTypeCount, 0);
          for (const auto& ts : st.by_type) {
            if (ts.type < trace::kEventTypeCount) {
              r.trace_by_type[ts.type] = ts.count;
            }
          }
        } catch (const std::exception& e) {
          failures.push_back("trial " + std::to_string(i) +
                             ": trace read-back failed: " + e.what());
        }
      }
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
      traced.push_back(std::move(r));
    }
  }

  // Driver re-run: trial 0 through the registered driver must match the
  // assembled trial on every deterministic TrialResult field.
  {
    harness::ScenarioParams p = wl.params;
    p.seed = seeds[0];
    try {
      const harness::TrialResult ref = harness::run_trial(wl.driver, p);
      if (deterministic_fields(ref) != deterministic_fields(base[0].result)) {
        failures.push_back("driver " + wl.driver +
                           " disagrees with the assembled trial 0:\n  driver:    " +
                           deterministic_fields(ref) + "\n  assembled: " +
                           deterministic_fields(base[0].result));
      }
    } catch (const std::exception& e) {
      failures.push_back(std::string("driver re-run threw: ") + e.what());
    }
  }

  // ---- aggregate
  // Download latency: each trial's percentile over its honest downloaders
  // (one that never finished counts at sim_limit_s), averaged over trials.
  // Simulated and memory figures are deterministic per trial, so the mean
  // (the steadier estimator across seeds) is safe for them; host times
  // take the median, which host hiccups cannot drag.
  const double collection_bytes =
      static_cast<double>(wl.params.files * wl.params.file_size_bytes);
  std::vector<double> p50, p90;
  size_t download_samples = 0;
  uint64_t dl_attempted = 0, dl_completed = 0, bytes_sent = 0;
  std::vector<double> tx_k;
  for (const auto& r : base) {
    std::vector<double> times = r.completion_s;
    for (int j = r.completed; j < r.expected; ++j) {
      times.push_back(wl.params.sim_limit_s);
    }
    download_samples += times.size();
    p50.push_back(nearest_rank(times, 50));
    p90.push_back(nearest_rank(times, 90));
    dl_attempted += static_cast<uint64_t>(std::max(r.expected, 0));
    dl_completed += static_cast<uint64_t>(std::max(r.completed, 0));
    bytes_sent += r.bytes_sent;
    tx_k.push_back(static_cast<double>(r.result.transmissions) / 1000.0);
  }
  auto host_metric = [&](std::vector<double> HostSamples::*field) {
    std::vector<double> per_trial;
    for (const auto& h : host) per_trial.push_back(median(h.*field));
    return median(per_trial);
  };
  auto mean_of = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  std::vector<double> heap_mb;
  for (const auto& h : host) heap_mb.push_back(median(h.heap_mb));

  if (dl_completed == 0) {
    failures.push_back("no downloader completed in any trial");
  }

  std::string digest_text;
  for (const auto& r : base) digest_text += simulated_fields(r) + "\n";

  std::vector<Metric> metrics;
  if (!traced_run) {
    metrics = {
        {"setup_s", host_metric(&HostSamples::setup), "s"},
        {"trial_wall_s", host_metric(&HostSamples::wall), "s"},
        {"peak_heap_mb", mean_of(heap_mb), "MB"},
        {"download_p50_s", mean_of(p50), "s"},
        {"download_p90_s", mean_of(p90), "s"},
        {"completed_frac", ratio(dl_completed, dl_attempted), "ratio"},
        {"tx_k", median(tx_k), "kframes"},
        {"air_bytes_per_useful_byte",
         ratio(bytes_sent, static_cast<uint64_t>(
                               static_cast<double>(dl_completed) *
                               collection_bytes)),
         "B/B"},
    };
  } else {
    TrialRecord sum;
    std::vector<double> loop_untraced, loop_traced, flush, prewarm;
    uint64_t events = 0;
    double loop_total = 0.0;
    for (int i = 0; i < k; ++i) {
      const TrialRecord& r = base[i];
      events += r.result.events_executed;
      loop_total += r.loop_s;
      sum.result.transmissions += r.result.transmissions;
      sum.queue_peak = std::max(sum.queue_peak, r.queue_peak);
      sum.deliveries += r.deliveries;
      sum.losses += r.losses;
      sum.collision_drops += r.collision_drops;
      sum.digests_computed += r.digests_computed;
      sum.digest_hits += r.digest_hits;
      sum.digest_misses += r.digest_misses;
      sum.mac_hits += r.mac_hits;
      sum.mac_misses += r.mac_misses;
      sum.evictions += r.evictions;
      sum.decodes += r.decodes;
      sum.encodes += r.encodes;
      sum.wire_hits += r.wire_hits;
      sum.interests_in += r.interests_in;
      sum.cs_hits += r.cs_hits;
      sum.data_in += r.data_in;
      sum.unsolicited += r.unsolicited;
      sum.pit_timeouts += r.pit_timeouts;
      sum.data_interests += r.data_interests;
      sum.interest_timeouts += r.interest_timeouts;
      sum.packets_received += r.packets_received;
      sum.bitmap_announcements += r.bitmap_announcements;
      sum.peba_collisions += r.peba_collisions;
      sum.result.peak_state_bytes =
          std::max(sum.result.peak_state_bytes, r.result.peak_state_bytes);
      sum.result.peak_knowledge_bytes = std::max(
          sum.result.peak_knowledge_bytes, r.result.peak_knowledge_bytes);
    }
    for (size_t i = 0; i < traced.size(); ++i) {
      loop_untraced.push_back(base[i].loop_s);
      loop_traced.push_back(traced[i].loop_s);
      flush.push_back(traced[i].tail_s);
      prewarm.push_back(traced[i].prewarm_s);
      sum.trace_records += traced[i].trace_records;
      sum.trace_dropped += traced[i].trace_dropped;
    }
    auto mean = [k](uint64_t v) { return static_cast<double>(v) / k; };
    auto traced_mean = [&traced](uint64_t v) {
      return static_cast<double>(v) / static_cast<double>(traced.size());
    };
    metrics = {
        {"harness.topology_s", host_metric(&HostSamples::topology), "s"},
        {"harness.nodes_s", host_metric(&HostSamples::nodes), "s"},
        {"harness.loop_s", host_metric(&HostSamples::loop), "s"},
        {"harness.teardown_s", host_metric(&HostSamples::teardown), "s"},
        {"sim.events", mean(events), "count"},
        {"sim.events_per_s", static_cast<double>(events) / loop_total, "1/s"},
        {"sim.queue_peak", static_cast<double>(sum.queue_peak), "count"},
        {"sim.tx", mean(sum.result.transmissions), "count"},
        {"sim.rx_per_tx", ratio(sum.deliveries, sum.result.transmissions),
         "ratio"},
        {"sim.rx_ok_ratio",
         ratio(sum.deliveries,
               sum.deliveries + sum.losses + sum.collision_drops),
         "ratio"},
        {"crypto.prewarm_s", median(prewarm), "s"},
        {"crypto.digests_computed", mean(sum.digests_computed), "count"},
        {"crypto.digest_hit_ratio",
         ratio(sum.digest_hits, sum.digest_hits + sum.digest_misses), "ratio"},
        {"crypto.mac_hit_ratio",
         ratio(sum.mac_hits, sum.mac_hits + sum.mac_misses), "ratio"},
        {"crypto.evictions", mean(sum.evictions), "count"},
        {"ndn.decodes", mean(sum.decodes), "count"},
        {"ndn.encodes", mean(sum.encodes), "count"},
        {"ndn.wire_cache_hit_ratio",
         ratio(sum.wire_hits, sum.wire_hits + sum.encodes), "ratio"},
        {"ndn.interests_in", mean(sum.interests_in), "count"},
        {"ndn.cs_hit_ratio", ratio(sum.cs_hits, sum.interests_in), "ratio"},
        {"ndn.unsolicited_data_ratio", ratio(sum.unsolicited, sum.data_in),
         "ratio"},
        {"ndn.pit_timeouts", mean(sum.pit_timeouts), "count"},
        {"dapes.data_interests", mean(sum.data_interests), "count"},
        {"dapes.timeout_ratio",
         ratio(sum.interest_timeouts, sum.data_interests), "ratio"},
        {"dapes.useful_interest_ratio",
         ratio(sum.packets_received, sum.data_interests), "ratio"},
        {"dapes.bitmap_announcements", mean(sum.bitmap_announcements),
         "count"},
        {"dapes.peba_collisions", mean(sum.peba_collisions), "count"},
        {"dapes.peak_state_kb",
         static_cast<double>(sum.result.peak_state_bytes) / 1024.0, "kB"},
        {"dapes.peak_knowledge_kb",
         static_cast<double>(sum.result.peak_knowledge_bytes) / 1024.0, "kB"},
        {"trace.records", traced_mean(sum.trace_records), "count"},
        {"trace.dropped", traced_mean(sum.trace_dropped), "count"},
        {"trace.flush_s", median(flush), "s"},
        {"trace.overhead", median(loop_traced) / median(loop_untraced),
         "ratio"},
    };
    const auto& registry = trace::EventTypeRegistry::get();
    for (size_t t = 0; t < trace::kEventTypeCount; ++t) {
      uint64_t n = 0;
      for (const auto& r : traced) {
        if (t < r.trace_by_type.size()) n += r.trace_by_type[t];
      }
      metrics.push_back({"trace." + std::string(registry.name(
                                        static_cast<trace::EventType>(t))),
                         traced_mean(n), "count"});
    }
  }

  // ---- human-readable report
  std::printf("workload %s seed %llu: %d trials x %d round(s), %.1f s\n",
              wl.name.c_str(), static_cast<unsigned long long>(args.seed), k,
              rounds, seconds_between(epoch, Clock::now()));
  std::printf("downloads: %zu samples (%llu completed of %llu attempted)\n",
              download_samples, static_cast<unsigned long long>(dl_completed),
              static_cast<unsigned long long>(dl_attempted));
  std::printf("simulated digest: %016llx\n",
              static_cast<unsigned long long>(fnv1a(digest_text)));
  if (traced_run) {
    std::string trace_text;
    for (const auto& r : traced) {
      for (uint64_t c : r.trace_by_type) trace_text += std::to_string(c) + " ";
      trace_text += "\n";
    }
    std::printf("trace digest: %016llx\n",
                static_cast<unsigned long long>(fnv1a(trace_text)));

    // Span self times, summed over traced trials, and the check that the
    // loop's subtree accounts for the loop span.
    const std::vector<double> self = spans.self_times();
    std::map<std::string, std::pair<double, uint64_t>> by_name;
    double loop_dur = 0.0, loop_subtree_self = 0.0;
    for (size_t i = 0; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      by_name[s.name].first += self[i];
      by_name[s.name].second += s.calls;
      if (s.name == "loop") loop_dur += s.dur_s;
      if (s.name.rfind("loop", 0) == 0 || s.name.rfind("prewarm", 0) == 0) {
        loop_subtree_self += self[i];
      }
    }
    std::printf("span self times (s, summed over %zu traced trials):\n",
                traced.size());
    for (const auto& [name, v] : by_name) {
      std::printf("  %-16s %12.6f  calls=%llu\n", name.c_str(), v.first,
                  static_cast<unsigned long long>(v.second));
    }
    std::printf("  loop subtree self / loop = %.6f\n",
                loop_dur > 0.0 ? loop_subtree_self / loop_dur : 0.0);

    const std::string spans_path = args.out_dir + "/spans-" + wl.name + "-s" +
                                   std::to_string(args.seed) + ".json";
    if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
      std::fprintf(f, "[\n");
      bool first = true;
      for (size_t i = 0; i < spans.spans().size(); ++i) {
        const Span& s = spans.spans()[i];
        std::fprintf(f,
                     "%s{\"id\":%zu,\"trial\":%d,\"parent\":%d,\"name\":\"%s\","
                     "\"start_s\":%s,\"dur_s\":%s,\"self_s\":%s,"
                     "\"calls\":%llu}",
                     first ? "" : ",\n", i, s.trial, s.parent,
                     json_escape(s.name).c_str(),
                     json_number(s.start_s).c_str(),
                     json_number(s.dur_s).c_str(),
                     json_number(self[i]).c_str(),
                     static_cast<unsigned long long>(s.calls));
        first = false;
      }
      std::fprintf(f, "\n]\n");
      std::fclose(f);
      std::printf("spans written to %s\n", spans_path.c_str());
    } else {
      failures.push_back("cannot write " + spans_path);
    }
  }
  print_metrics(metrics);
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  const bool correct = failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed_trials) +
          ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            json_escape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
