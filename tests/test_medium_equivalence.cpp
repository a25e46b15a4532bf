// Property tests: the spatial-grid medium is observably *identical* to
// the retained brute-force reference.
//
// Each case builds the same randomized world twice — same node count,
// field, range, loss, capture, mobility mix (stationary / random
// direction / random waypoint / group convoys), same per-node RNG streams
// and the same scripted event list — once with the grid (the default) and
// once with Params::brute_force. Every observable is then compared:
// per-frame receiver sets and delivery order, TxReports, neighbor sets,
// carrier-sense answers, and the aggregate MediumStats. Any divergence in
// pruning, iteration order, or RNG draw order shows up as a log mismatch.
//
// The world construction is shared with the channel-layer suite
// (tests/medium_test_world.hpp), whose golden-hash test additionally pins
// these exact worlds to their pre-channel-layer behavior.
#include <gtest/gtest.h>

#include "medium_test_world.hpp"

namespace dapes::sim {
namespace {

using testworld::World;
using testworld::build_world;

class MediumEquivalence : public ::testing::TestWithParam<uint64_t> {};

void expect_identical(const World& grid, const World& brute) {
  ASSERT_EQ(grid.log.size(), brute.log.size());
  for (size_t i = 0; i < grid.log.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(grid.log[i], brute.log[i]);
  }

  const MediumStats& g = grid.medium->stats();
  const MediumStats& b = brute.medium->stats();
  EXPECT_EQ(g.transmissions, b.transmissions);
  EXPECT_EQ(g.deliveries, b.deliveries);
  EXPECT_EQ(g.losses, b.losses);
  EXPECT_EQ(g.collision_drops, b.collision_drops);
  EXPECT_EQ(g.collided_frames, b.collided_frames);
  EXPECT_EQ(g.bytes_sent, b.bytes_sent);
  EXPECT_EQ(g.tx_by_kind, b.tx_by_kind);
}

TEST_P(MediumEquivalence, GridMatchesBruteForceExactly) {
  World grid, brute;
  build_world(grid, GetParam(), /*brute=*/false);
  build_world(brute, GetParam(), /*brute=*/true);
  grid.sched.run();
  brute.sched.run();
  expect_identical(grid, brute);
}

TEST_P(MediumEquivalence, GridMatchesBruteForceWhenReceiversTransmit) {
  // Receivers transmit from inside their receive callbacks, so the
  // in-flight table grows while a delivery is still walking its
  // receivers.
  World grid, brute;
  build_world(grid, GetParam(), /*brute=*/false, nullptr, false,
              /*relays=*/true);
  build_world(brute, GetParam(), /*brute=*/true, nullptr, false,
              /*relays=*/true);
  grid.sched.run();
  brute.sched.run();
  expect_identical(grid, brute);
  EXPECT_GT(grid.medium->stats().tx_by_kind.count("relay"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dapes::sim
