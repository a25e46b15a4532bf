// Unit tests for the NFD-lite forwarding pipeline (paper Fig. 1):
// CS hit -> PIT aggregation -> strategy forwarding; data return paths;
// unsolicited data handling; hop limits and loop suppression. At the
// bottom, a randomized equivalence suite replays the name-keyed pipeline
// over the std::map reference tables against the Forwarder's one-probe,
// entry-threaded pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/tables_ref.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ndn {
namespace {

using common::bytes_of;

/// A face that records what the forwarder pushes into it and exposes
/// inject helpers (stands in for both app and network endpoints).
class MockFace : public Face {
 public:
  explicit MockFace(bool local) : local_(local) {}

  void send_interest(const Interest& interest) override {
    sent_interests.push_back(interest);
  }
  void send_data(const Data& data) override { sent_data.push_back(data); }
  bool is_local() const override { return local_; }

  void inject(const Interest& interest) { deliver_interest(interest); }
  void inject(const Data& data) { deliver_data(data); }

  std::vector<Interest> sent_interests;
  std::vector<Data> sent_data;

 private:
  bool local_;
};

/// Strategy stub: floods to every other face, records calls.
class RecordingStrategy : public ForwardingStrategy {
 public:
  void after_receive_interest(Forwarder& fw, FaceId in_face,
                              const Interest& interest,
                              PitEntry& /*entry*/) override {
    ++interests_handled;
    for (const auto& face : fw.faces()) {
      if (face->id() != in_face) fw.send_interest_to(face->id(), interest);
    }
  }
  void on_interest_timeout(Forwarder&, const Name&) override { ++timeouts; }
  bool cache_unsolicited(Forwarder&, FaceId, const Data&) override {
    ++unsolicited;
    return cache_unsolicited_flag;
  }
  void on_overhear_interest(Forwarder&, FaceId, const Interest&) override {
    ++overheard_interests;
  }
  void on_overhear_data(Forwarder&, FaceId, const Data&) override {
    ++overheard_data;
  }

  int interests_handled = 0;
  int timeouts = 0;
  int unsolicited = 0;
  int overheard_interests = 0;
  int overheard_data = 0;
  bool cache_unsolicited_flag = false;
};

struct ForwarderTest : ::testing::Test {
  sim::Scheduler sched;
  Forwarder fw{sched};
  std::shared_ptr<MockFace> wifi = std::make_shared<MockFace>(false);
  std::shared_ptr<MockFace> app = std::make_shared<MockFace>(true);
  RecordingStrategy* strategy = nullptr;

  void SetUp() override {
    fw.add_face(wifi);
    fw.add_face(app);
    auto s = std::make_unique<RecordingStrategy>();
    strategy = s.get();
    fw.set_strategy(std::move(s));
  }

  Interest interest(const std::string& uri, uint32_t nonce = 1) {
    Interest i{Name(uri)};
    i.set_nonce(nonce);
    i.set_lifetime(common::Duration::milliseconds(500));
    return i;
  }

  Data data(const std::string& uri) {
    Data d{Name(uri)};
    d.set_content(bytes_of("payload"));
    d.set_freshness(common::Duration::seconds(100.0));
    return d;
  }
};

TEST_F(ForwarderTest, InterestReachesStrategyAndForwards) {
  app->inject(interest("/a/1"));
  EXPECT_EQ(strategy->interests_handled, 1);
  ASSERT_EQ(wifi->sent_interests.size(), 1u);
  EXPECT_EQ(wifi->sent_interests[0].name().to_uri(), "/a/1");
}

TEST_F(ForwarderTest, CsHitAnswersWithoutStrategy) {
  // Prime the CS via a satisfied exchange.
  app->inject(interest("/a/1", 1));
  wifi->inject(data("/a/1"));
  ASSERT_EQ(app->sent_data.size(), 1u);

  // Second interest (different nonce) hits the CS.
  app->inject(interest("/a/1", 2));
  EXPECT_EQ(strategy->interests_handled, 1);  // not called again
  EXPECT_EQ(app->sent_data.size(), 2u);
  EXPECT_EQ(fw.stats().cs_hits, 1u);
}

TEST_F(ForwarderTest, PitAggregatesSameName) {
  wifi->inject(interest("/agg/1", 10));
  app->inject(interest("/agg/1", 11));
  EXPECT_EQ(strategy->interests_handled, 1);
  EXPECT_EQ(fw.stats().pit_aggregated, 1u);
  // Data satisfies both in-faces.
  wifi->inject(data("/agg/1"));
  EXPECT_EQ(app->sent_data.size(), 1u);
  // The wifi face was the data's in-face, so it is not echoed back.
  EXPECT_TRUE(wifi->sent_data.empty());
}

TEST_F(ForwarderTest, DuplicateNonceDropped) {
  wifi->inject(interest("/loop/1", 42));
  wifi->inject(interest("/loop/1", 42));
  EXPECT_EQ(fw.stats().loops_dropped, 1u);
  EXPECT_EQ(strategy->interests_handled, 1);
}

TEST_F(ForwarderTest, DeadNonceStopsLateLoops) {
  wifi->inject(interest("/dead/1", 7));
  wifi->inject(data("/dead/1"));  // satisfies + records dead nonce
  wifi->inject(interest("/dead/1", 7));
  EXPECT_EQ(fw.stats().loops_dropped, 1u);
}

TEST_F(ForwarderTest, UnsolicitedDataHitsStrategyHook) {
  wifi->inject(data("/nobody/asked"));
  EXPECT_EQ(strategy->unsolicited, 1);
  EXPECT_EQ(fw.stats().unsolicited_data, 1u);
  EXPECT_FALSE(fw.cs().contains(Name("/nobody/asked")));
}

TEST_F(ForwarderTest, UnsolicitedDataCachedWhenStrategySaysSo) {
  strategy->cache_unsolicited_flag = true;
  wifi->inject(data("/pure/forwarder/cache"));
  EXPECT_TRUE(fw.cs().contains(Name("/pure/forwarder/cache")));
}

TEST_F(ForwarderTest, OverhearHooksFireOnlyForNetworkFaces) {
  wifi->inject(interest("/o/1", 1));
  app->inject(interest("/o/2", 2));
  EXPECT_EQ(strategy->overheard_interests, 1);
  wifi->inject(data("/o/1"));
  EXPECT_EQ(strategy->overheard_data, 1);
}

TEST_F(ForwarderTest, HopLimitExhaustedInterestDropped) {
  Interest i = interest("/hops/1");
  i.set_hop_limit(0);
  wifi->inject(i);
  EXPECT_EQ(fw.stats().hop_limit_drops, 1u);
  EXPECT_EQ(strategy->interests_handled, 0);
}

TEST_F(ForwarderTest, HopLimitDecrementsFromNetworkOnly) {
  Interest i = interest("/hops/2");
  i.set_hop_limit(5);
  wifi->inject(i);
  ASSERT_FALSE(app->sent_interests.empty());
  EXPECT_EQ(app->sent_interests[0].hop_limit(), 4);

  Interest j = interest("/hops/3");
  j.set_hop_limit(5);
  app->inject(j);
  ASSERT_FALSE(wifi->sent_interests.empty());
  EXPECT_EQ(wifi->sent_interests.back().hop_limit(), 5);  // local: no decrement
}

TEST_F(ForwarderTest, PitExpiryFiresStrategyTimeout) {
  wifi->inject(interest("/exp/1"));
  sched.run_until(common::TimePoint{2000000});
  EXPECT_EQ(strategy->timeouts, 1);
  EXPECT_EQ(fw.stats().pit_timeouts, 1u);
  EXPECT_EQ(fw.pit().size(), 0u);
}

TEST_F(ForwarderTest, DataCancelsPitExpiry) {
  wifi->inject(interest("/sat/1"));
  wifi->inject(data("/sat/1"));
  sched.run_until(common::TimePoint{2000000});
  EXPECT_EQ(strategy->timeouts, 0);
}

TEST_F(ForwarderTest, CanBePrefixSatisfiedByLongerName) {
  Interest i = interest("/pre");
  i.set_can_be_prefix(true);
  app->inject(i);
  wifi->inject(data("/pre/long/name"));
  ASSERT_EQ(app->sent_data.size(), 1u);
  EXPECT_EQ(app->sent_data[0].name().to_uri(), "/pre/long/name");
}

TEST_F(ForwarderTest, SolicitedDataIsCached) {
  app->inject(interest("/cache/1"));
  wifi->inject(data("/cache/1"));
  EXPECT_TRUE(fw.cs().contains(Name("/cache/1")));
}

TEST_F(ForwarderTest, MulticastStrategyUsesFib) {
  // Swap in the default strategy and register a route.
  fw.set_strategy(std::make_unique<MulticastStrategy>());
  fw.fib().add_route(Name("/fib"), wifi->id());
  app->inject(interest("/fib/x"));
  ASSERT_EQ(wifi->sent_interests.size(), 1u);
  // No route for other names.
  app->inject(interest("/nowhere"));
  EXPECT_EQ(wifi->sent_interests.size(), 1u);
}

// --------------------------------------------- pipeline equivalence suite

/// What a face was asked to send, in order, across every face of one
/// pipeline: "I<face> <uri>" / "D<face> <uri>".
using SendLog = std::vector<std::string>;

/// One SendLog line.
std::string send_record(char kind, FaceId face, const Name& name) {
  std::string line(1, kind);
  line += std::to_string(face);
  line += ' ';
  line += name.to_uri();
  return line;
}

/// A face that appends every send to a shared log.
class LoggingFace : public Face {
 public:
  LoggingFace(bool local, SendLog& log) : local_(local), log_(log) {}
  void send_interest(const Interest& interest) override {
    log_.push_back(send_record('I', id(), interest.name()));
  }
  void send_data(const Data& data) override {
    log_.push_back(send_record('D', id(), data.name()));
  }
  bool is_local() const override { return local_; }
  void inject(const Interest& interest) { deliver_interest(interest); }
  void inject(const Data& data) { deliver_data(data); }

 private:
  bool local_;
  SendLog& log_;
};

/// Caching rule shared by both pipelines: pure forwarders cache
/// overheard data; here, data with an even component count.
bool caches_unsolicited(const Data& data) {
  return data.name().size() % 2 == 0;
}

/// MulticastStrategy plus caches_unsolicited().
class CachingMulticast : public MulticastStrategy {
 public:
  bool cache_unsolicited(Forwarder&, FaceId, const Data& data) override {
    return caches_unsolicited(data);
  }
};

/// The name-keyed pipeline the Forwarder ran before it resolved each
/// packet's name once: on_incoming_interest / on_incoming_data /
/// on_pit_expiry verbatim (every stage probes its own table by name),
/// over the std::map reference tables, with CachingMulticast's
/// decisions inlined. Faces are ids 1..N; `local[id - 1]` says which
/// are local.
class RefPipeline {
 public:
  RefPipeline(sim::Scheduler& sched, std::vector<bool> local,
              size_t cs_capacity)
      : cs(cs_capacity), sched_(sched), local_(std::move(local)) {}

  void on_incoming_interest(FaceId in_face, Interest interest) {
    ++stats.interests_in;
    const bool from_network = !local_[in_face - 1];
    if (from_network) {
      if (interest.hop_limit() == 0) {
        ++stats.hop_limit_drops;
        return;
      }
      interest.set_hop_limit(interest.hop_limit() - 1);
    }
    if (pit.has_nonce(interest.name(), interest.nonce())) {
      ++stats.loops_dropped;
      return;
    }
    if (auto cached = cs.find(interest.name(), interest.can_be_prefix(),
                              sched_.now())) {
      ++stats.cs_hits;
      ++stats.data_forwarded;
      send_data(in_face, *cached);
      return;
    }
    PitEntry* existing = pit.find(interest.name());
    if (existing != nullptr) {
      ++stats.pit_aggregated;
      existing->nonces.insert(interest.nonce());
      if (std::find(existing->in_faces.begin(), existing->in_faces.end(),
                    in_face) == existing->in_faces.end()) {
        existing->in_faces.push_back(in_face);
      }
      return;
    }
    PitEntry& entry = pit.insert(interest.name());
    entry.can_be_prefix = interest.can_be_prefix();
    entry.in_faces.push_back(in_face);
    entry.nonces.insert(interest.nonce());
    entry.expiry = sched_.now() + interest.lifetime();
    Name name = interest.name();
    entry.expiry_event = sched_.schedule(interest.lifetime(),
                                         [this, name] { on_pit_expiry(name); });
    // MulticastStrategy::after_receive_interest.
    for (FaceId out : fib.lookup(interest.name())) {
      if (out == in_face) continue;
      ++stats.interests_forwarded;
      log.push_back(send_record('I', out, interest.name()));
    }
  }

  void on_incoming_data(FaceId in_face, const Data& data) {
    ++stats.data_in;
    std::vector<Name> matched = pit.matches_for_data(data.name());
    if (matched.empty()) {
      ++stats.unsolicited_data;
      if (caches_unsolicited(data)) cs.insert(data, sched_.now());
      return;
    }
    cs.insert(data, sched_.now());  // cache_solicited
    std::set<FaceId> out_faces;
    for (const Name& name : matched) {
      PitEntry* entry = pit.find(name);
      if (entry == nullptr) continue;
      for (FaceId f : entry->in_faces) {
        if (f != in_face) {
          out_faces.insert(f);
          continue;
        }
        if (entry->relayed_to_network && !local_[f - 1]) out_faces.insert(f);
      }
      for (uint32_t nonce : entry->nonces) pit.record_dead_nonce(name, nonce);
      sched_.cancel(entry->expiry_event);
      pit.erase(name);
    }
    for (FaceId out : out_faces) {
      ++stats.data_forwarded;
      send_data(out, data);
    }
  }

  void on_pit_expiry(Name name) {
    PitEntry* entry = pit.find(name);
    if (entry == nullptr) return;
    ++stats.pit_timeouts;
    for (uint32_t nonce : entry->nonces) pit.record_dead_nonce(name, nonce);
    pit.erase(name);
  }

  ref::ContentStore cs;
  ref::Pit pit;
  ref::Fib fib;
  Forwarder::Stats stats;
  SendLog log;

 private:
  void send_data(FaceId out, const Data& data) {
    log.push_back(send_record('D', out, data.name()));
  }

  sim::Scheduler& sched_;
  std::vector<bool> local_;
};

/// A Forwarder and a RefPipeline driven in lockstep, each on its own
/// scheduler; every step compares sends (in order), Stats and table
/// sizes.
class PipelinePair {
 public:
  static constexpr size_t kFaces = 3;  // 1 local (app), 2 and 3 network

  explicit PipelinePair(size_t cs_capacity)
      : fw_(fw_sched_, Forwarder::Options{cs_capacity, true}),
        ref_(ref_sched_, {true, false, false}, cs_capacity) {
    for (size_t i = 0; i < kFaces; ++i) {
      faces_.push_back(std::make_shared<LoggingFace>(i == 0, log_));
      fw_.add_face(faces_.back());
    }
    fw_.set_strategy(std::make_unique<CachingMulticast>());
  }

  void interest(FaceId in_face, const Interest& interest) {
    faces_[in_face - 1]->inject(interest);
    ref_.on_incoming_interest(in_face, interest);
    compare();
  }
  void data(FaceId in_face, const Data& data) {
    faces_[in_face - 1]->inject(data);
    ref_.on_incoming_data(in_face, data);
    compare();
  }
  void advance_to(TimePoint t) {
    fw_sched_.run_until(t);
    ref_sched_.run_until(t);
    compare();
  }
  void add_route(const Name& prefix, FaceId face) {
    fw_.fib().add_route(prefix, face);
    ref_.fib.add_route(prefix, face);
  }
  void remove_route(const Name& prefix, FaceId face) {
    fw_.fib().remove_route(prefix, face);
    ref_.fib.remove_route(prefix, face);
  }
  /// Mark a pending Interest as relayed to the network (what a relaying
  /// strategy does); false when no entry is pending.
  bool mark_relayed(const Name& name) {
    PitEntry* a = fw_.pit().find(name);
    PitEntry* b = ref_.pit.find(name);
    EXPECT_EQ(a != nullptr, b != nullptr);
    if (a == nullptr || b == nullptr) return false;
    a->relayed_to_network = b->relayed_to_network = true;
    return true;
  }
  /// Erase a pending entry from outside the pipeline without cancelling
  /// its expiry timer; returns the stale timer's deadline (zero when no
  /// entry was pending).
  TimePoint erase_pit_entry(const Name& name) {
    PitEntry* a = fw_.pit().find(name);
    EXPECT_EQ(a != nullptr, ref_.pit.find(name) != nullptr);
    if (a == nullptr) return TimePoint::zero();
    const TimePoint stale = a->expiry;
    fw_.pit().erase(name);
    ref_.pit.erase(name);
    compare();
    return stale;
  }

  Forwarder& forwarder() { return fw_; }
  TimePoint now() const { return fw_sched_.now(); }

 private:
  void compare() {
    ASSERT_EQ(log_, ref_.log);
    const Forwarder::Stats& a = fw_.stats();
    const Forwarder::Stats& b = ref_.stats;
    ASSERT_EQ(a.interests_in, b.interests_in);
    ASSERT_EQ(a.data_in, b.data_in);
    ASSERT_EQ(a.cs_hits, b.cs_hits);
    ASSERT_EQ(a.pit_aggregated, b.pit_aggregated);
    ASSERT_EQ(a.loops_dropped, b.loops_dropped);
    ASSERT_EQ(a.hop_limit_drops, b.hop_limit_drops);
    ASSERT_EQ(a.interests_forwarded, b.interests_forwarded);
    ASSERT_EQ(a.data_forwarded, b.data_forwarded);
    ASSERT_EQ(a.unsolicited_data, b.unsolicited_data);
    ASSERT_EQ(a.pit_timeouts, b.pit_timeouts);
    ASSERT_EQ(fw_.cs().size(), ref_.cs.size());
    ASSERT_EQ(fw_.cs().content_bytes(), ref_.cs.content_bytes());
    ASSERT_EQ(fw_.pit().size(), ref_.pit.size());
    ASSERT_EQ(fw_.fib().size(), ref_.fib.size());
  }

  sim::Scheduler fw_sched_;
  sim::Scheduler ref_sched_;
  SendLog log_;
  std::vector<std::shared_ptr<LoggingFace>> faces_;
  Forwarder fw_;
  RefPipeline ref_;
};

Interest make_interest(const Name& name, uint32_t nonce, bool can_be_prefix,
                       common::Duration lifetime, uint8_t hop_limit) {
  Interest i{name};
  i.set_nonce(nonce);
  i.set_can_be_prefix(can_be_prefix);
  i.set_lifetime(lifetime);
  i.set_hop_limit(hop_limit);
  return i;
}

Data make_data(const Name& name, size_t bytes, common::Duration freshness) {
  Data d{name};
  d.set_content(common::Bytes(bytes, 0x5a));
  d.set_freshness(freshness);
  return d;
}

TEST(PipelineEquivalence, ExpiredCsHitThenPitInsertOfTheSameName) {
  // The CS exact hit is expired: erasing it prunes the name's entry (and
  // the root), so the PIT insert that follows must not use the entry the
  // pipeline resolved on arrival.
  PipelinePair p(16);
  const Name name("/x/1");
  p.add_route(Name("/x"), 2);
  p.interest(1, make_interest(name, 1, false,
                              common::Duration::milliseconds(500), 4));
  p.data(2, make_data(name, 8, common::Duration::milliseconds(10)));
  p.remove_route(Name("/x"), 2);
  ASSERT_EQ(p.forwarder().name_tree().size(), 3u);  // root, /x, /x/1 (CS)
  p.advance_to(TimePoint{50'000});
  p.interest(1, make_interest(name, 2, false,
                              common::Duration::milliseconds(500), 4));
  ASSERT_NE(p.forwarder().pit().find(name), nullptr);
  EXPECT_EQ(p.forwarder().cs().size(), 0u);
  EXPECT_EQ(p.forwarder().name_tree().size(), 3u);
  // The new entry's timer is live: it expires on schedule.
  p.advance_to(TimePoint{1'000'000});
  EXPECT_EQ(p.forwarder().stats().pit_timeouts, 1u);
  EXPECT_EQ(p.forwarder().name_tree().size(), 0u);
}

TEST(PipelineEquivalence, PitExpiryAfterItsEntrySlotWasReused) {
  // A stale expiry timer whose pooled entry was pruned and handed to
  // another name must not expire that name's Interest.
  PipelinePair p(16);
  const Name a("/a");
  const Name b("/b");
  p.interest(2, make_interest(a, 1, false,
                              common::Duration::milliseconds(100), 4));
  NameTree::Entry* slot = p.forwarder().name_tree().find_exact(a);
  ASSERT_NE(slot, nullptr);
  p.erase_pit_entry(a);  // the timer stays scheduled
  p.interest(2, make_interest(b, 2, false, common::Duration::seconds(1.0), 4));
  ASSERT_EQ(p.forwarder().name_tree().find_exact(b), slot);  // reused
  p.advance_to(TimePoint{150'000});  // /a's stale timer fires
  EXPECT_NE(p.forwarder().pit().find(b), nullptr);
  EXPECT_EQ(p.forwarder().stats().pit_timeouts, 0u);
  p.advance_to(TimePoint{1'200'000});
  EXPECT_EQ(p.forwarder().stats().pit_timeouts, 1u);
}

/// Names dense in prefix relations: depth 0..4 over a small alphabet.
Name random_pipeline_name(common::Rng& rng) {
  static const char* kComps[] = {"a", "b", "file"};
  Name n;
  const size_t depth = rng.next_below(5);
  for (size_t i = 0; i < depth; ++i) {
    if (rng.chance(0.4)) {
      n.append_number(rng.next_below(3));
    } else {
      n.append(kComps[rng.next_below(3)]);
    }
  }
  return n;
}

class PipelineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineEquivalence, ForwarderMatchesNameKeyedReference) {
  common::Rng rng(GetParam());
  // Small caches so insertions evict (and eviction prunes held entries).
  PipelinePair p(1 + rng.next_below(12));
  // Names whose PIT entry was erased from outside, with the deadline of
  // the stale timer left behind. A stale timer resolves its entry handle
  // where the reference looks the name up, and the two differ only if
  // the same name is pending again when it fires (the reference would
  // expire the newcomer early): such names sit out until then.
  std::vector<std::pair<Name, TimePoint>> stale;
  auto sitting_out = [&](const Name& n) {
    for (const auto& [name, until] : stale) {
      if (name == n && p.now() <= until) return true;
    }
    return false;
  };

  for (int op = 0; op < 3000; ++op) {
    SCOPED_TRACE(op);
    Name name = random_pipeline_name(rng);
    const FaceId face = static_cast<FaceId>(1 + rng.next_below(3));
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2: {  // Interest: few nonces (loops, dead nonces), hop limits
        if (sitting_out(name)) break;
        const auto lifetime = common::Duration::milliseconds(
            static_cast<int64_t>(20 + rng.next_below(400)));
        p.interest(face, make_interest(
                             name, static_cast<uint32_t>(rng.next_below(24)),
                             rng.chance(0.3), lifetime,
                             static_cast<uint8_t>(rng.next_below(3))));
        break;
      }
      case 3:
      case 4:
      case 5: {  // Data: short freshness expires, long one stays
        const auto freshness =
            rng.chance(0.5) ? common::Duration::milliseconds(
                                  static_cast<int64_t>(1 + rng.next_below(80)))
                            : common::Duration::seconds(60.0);
        p.data(face, make_data(name, 1 + rng.next_below(16), freshness));
        break;
      }
      case 6: {  // time passes: PIT timers fire, CS entries go stale
        p.advance_to(p.now() + common::Duration::microseconds(
                                   static_cast<int64_t>(
                                       rng.next_below(150'000))));
        break;
      }
      case 7: {  // routes come and go
        if (rng.chance(0.7)) {
          p.add_route(name, face);
        } else {
          p.remove_route(name, face);
        }
        break;
      }
      case 8: {  // a relaying strategy marks the pending Interest
        p.mark_relayed(name);
        break;
      }
      default: {  // erased from outside: its timer goes stale
        if (rng.chance(0.5)) {
          const TimePoint until = p.erase_pit_entry(name);
          if (until != TimePoint::zero()) stale.emplace_back(name, until);
        }
        break;
      }
    }
    if (HasFatalFailure()) return;
  }
  p.advance_to(p.now() + common::Duration::seconds(10.0));
  EXPECT_EQ(p.forwarder().pit().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dapes::ndn
