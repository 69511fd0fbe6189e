// Tests for the incremental reward-maintenance states: event-by-event
// equivalence with the batch mechanisms, binary-depth maintenance, and
// the bit-exactness contract of dirty-set batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/geometric.h"
#include "core/incremental.h"
#include "tree/generators.h"
#include "tree/io.h"
#include "tree/subtree_sums.h"
#include "util/strings.h"

namespace itree {
namespace {

IncrementalSubtreeState geometric_state(double decay) {
  return IncrementalSubtreeState(
      IncrementalSubtreeState::Config{.decay = decay});
}

TEST(IncrementalAggregate, RejectsBadDecay) {
  EXPECT_THROW(geometric_state(0.0), std::invalid_argument);
  EXPECT_THROW(geometric_state(-0.5), std::invalid_argument);
  EXPECT_THROW(geometric_state(1.5), std::invalid_argument);
  EXPECT_NO_THROW(geometric_state(1.0));  // plain totals
}

TEST(IncrementalAggregate, MatchesBatchOnHandExample) {
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 5.0);
  const NodeId b = state.add_leaf(a, 3.0);
  state.add_leaf(b, 4.0);
  state.add_leaf(a, 2.0);
  const std::vector<double> batch =
      geometric_subtree_sums(state.tree(), 0.5);
  for (NodeId u = 0; u < state.tree().node_count(); ++u) {
    EXPECT_NEAR(state.subtree_aggregate(u), batch[u], 1e-12)
        << "node " << u;
  }
}

TEST(IncrementalAggregate, ContributionUpdatesBubbleUp) {
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 1.0);
  const NodeId b = state.add_leaf(a, 1.0);
  state.add_contribution(b, 2.0);
  EXPECT_NEAR(state.subtree_aggregate(b), 3.0, 1e-12);
  EXPECT_NEAR(state.subtree_aggregate(a), 1.0 + 0.5 * 3.0, 1e-12);
}

void random_event(IncrementalSubtreeState& state, Rng& rng) {
  if (state.tree().participant_count() == 0 || rng.bernoulli(0.6)) {
    const NodeId parent =
        state.tree().participant_count() == 0 || rng.bernoulli(0.15)
            ? kRoot
            : static_cast<NodeId>(
                  1 + rng.index(state.tree().participant_count()));
    state.add_leaf(parent, rng.uniform(0.0, 3.0));
  } else {
    const NodeId u = static_cast<NodeId>(
        1 + rng.index(state.tree().participant_count()));
    state.add_contribution(u, rng.uniform(0.0, 2.0));
  }
}

TEST(IncrementalAggregate, RandomEventStreamMatchesBatch) {
  Rng rng(51);
  IncrementalSubtreeState state = geometric_state(0.4);
  for (int event = 0; event < 400; ++event) {
    random_event(state, rng);
  }
  const std::vector<double> batch =
      geometric_subtree_sums(state.tree(), 0.4);
  double expected_total = 0.0;
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    EXPECT_NEAR(state.subtree_aggregate(u), batch[u], 1e-9);
    expected_total += batch[u];
  }
  EXPECT_NEAR(state.total_aggregate(), expected_total, 1e-9);
}

TEST(IncrementalAggregate, BuildsFromExistingTree) {
  const Tree tree = parse_tree("(5 (3 (4)) (2))");
  IncrementalSubtreeState state(
      IncrementalSubtreeState::Config{.decay = 0.5}, tree);
  const std::vector<double> batch = geometric_subtree_sums(tree, 0.5);
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    EXPECT_NEAR(state.subtree_aggregate(u), batch[u], 1e-12);
  }
  // And keeps tracking after construction.
  state.add_leaf(1, 7.0);
  const std::vector<double> after =
      geometric_subtree_sums(state.tree(), 0.5);
  EXPECT_NEAR(state.subtree_aggregate(1), after[1], 1e-12);
}

TEST(IncrementalAggregate, GeometricRewardMatchesMechanism) {
  const BudgetParams budget{.Phi = 0.5, .phi = 0.05};
  const GeometricMechanism mechanism(budget, 0.5, 0.2);
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 5.0);
  state.add_leaf(a, 3.0);
  const RewardVector batch = mechanism.compute(state.tree());
  const NodeAggregates aggregates{.own = state.x_of(a),
                                  .subtree = state.subtree_aggregate(a)};
  EXPECT_NEAR(mechanism.reward_from_aggregates(aggregates), batch[a],
              1e-12);
}

TEST(IncrementalAggregate, RejectsRootQueriesAndBadUpdates) {
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 1.0);
  EXPECT_THROW(state.x_of(kRoot), std::invalid_argument);
  EXPECT_THROW(state.add_contribution(a, -1.0), std::invalid_argument);
  EXPECT_THROW(state.add_contribution(99, 1.0), std::invalid_argument);
  EXPECT_THROW(state.binary_depth(a), std::invalid_argument)
      << "binary depth must be rejected when not tracked";
}

TEST(IncrementalSubtree, MatchesBatchOnRandomStream) {
  Rng rng(52);
  IncrementalSubtreeState state;
  for (int event = 0; event < 300; ++event) {
    random_event(state, rng);
  }
  const SubtreeData batch = compute_subtree_data(state.tree());
  for (NodeId u = 0; u < state.tree().node_count(); ++u) {
    EXPECT_NEAR(state.subtree_contribution(u),
                batch.subtree_contribution[u], 1e-9);
  }
}

TEST(IncrementalSubtree, XYSplitMatchesDefinition) {
  IncrementalSubtreeState state;
  const NodeId a = state.add_leaf(kRoot, 2.0);
  const NodeId b = state.add_leaf(a, 3.0);
  state.add_leaf(b, 1.5);
  EXPECT_DOUBLE_EQ(state.x_of(a), 2.0);
  EXPECT_DOUBLE_EQ(state.y_of(a), 4.5);
  EXPECT_DOUBLE_EQ(state.y_of(b), 1.5);
  EXPECT_THROW(state.x_of(kRoot), std::invalid_argument);
}

TEST(IncrementalSubtree, BuildsFromExistingTree) {
  const Tree tree = parse_tree("(2 (3 (1.5)))");
  IncrementalSubtreeState state(tree);
  EXPECT_DOUBLE_EQ(state.subtree_contribution(1), 6.5);
  EXPECT_DOUBLE_EQ(state.subtree_contribution(2), 4.5);
}

// --- binary-depth maintenance --------------------------------------

IncrementalSubtreeState depth_state() {
  return IncrementalSubtreeState(
      IncrementalSubtreeState::Config{.decay = 1.0,
                                      .track_binary_depth = true});
}

TEST(IncrementalBinaryDepth, MatchesBatchKernelOnHandExample) {
  IncrementalSubtreeState state = depth_state();
  // A chain never raises BD beyond... check every insertion.
  const NodeId a = state.add_leaf(kRoot, 1.0);
  EXPECT_EQ(state.binary_depth(a), 1u);
  const NodeId b = state.add_leaf(a, 1.0);
  EXPECT_EQ(state.binary_depth(a), 1u) << "one child: still a chain";
  const NodeId c = state.add_leaf(a, 1.0);
  EXPECT_EQ(state.binary_depth(a), 2u) << "two leaf children embed depth 2";
  state.add_leaf(b, 1.0);
  state.add_leaf(b, 1.0);
  EXPECT_EQ(state.binary_depth(b), 2u);
  EXPECT_EQ(state.binary_depth(a), 2u)
      << "needs BOTH children at depth 2 for depth 3";
  state.add_leaf(c, 1.0);
  state.add_leaf(c, 1.0);
  EXPECT_EQ(state.binary_depth(c), 2u);
  EXPECT_EQ(state.binary_depth(a), 3u);
  const std::vector<std::uint32_t> batch =
      binary_subtree_depths(state.tree());
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    EXPECT_EQ(state.binary_depth(u), batch[u]) << "node " << u;
  }
}

TEST(IncrementalBinaryDepth, MatchesBatchKernelOnRandomStreams) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    Rng rng(seed);
    IncrementalSubtreeState state = depth_state();
    for (int event = 0; event < 500; ++event) {
      random_event(state, rng);
    }
    const std::vector<std::uint32_t> batch =
        binary_subtree_depths(state.tree());
    for (NodeId u = 1; u < state.tree().node_count(); ++u) {
      ASSERT_EQ(state.binary_depth(u), batch[u])
          << "seed " << seed << " node " << u;
    }
  }
}

TEST(IncrementalBinaryDepth, RebuiltFromTreeMatchesMaintained) {
  Rng rng(12);
  IncrementalSubtreeState state = depth_state();
  for (int event = 0; event < 300; ++event) {
    random_event(state, rng);
  }
  const IncrementalSubtreeState rebuilt(
      IncrementalSubtreeState::Config{.decay = 1.0,
                                      .track_binary_depth = true},
      state.tree());
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    ASSERT_EQ(state.binary_depth(u), rebuilt.binary_depth(u));
  }
}

// --- dirty-set batching --------------------------------------------

std::string aggregate_bits(const IncrementalSubtreeState& state) {
  return hex_doubles(state.export_aggregates());
}

TEST(IncrementalBatching, BatchedStreamIsBitIdenticalToPerEvent) {
  for (double decay : {1.0, 0.4}) {
    Rng per_event_rng(77);
    Rng batched_rng(77);
    IncrementalSubtreeState per_event = geometric_state(decay);
    IncrementalSubtreeState batched = geometric_state(decay);
    for (int burst = 0; burst < 20; ++burst) {
      batched.begin_batch();
      for (int event = 0; event < 25; ++event) {
        random_event(per_event, per_event_rng);
        random_event(batched, batched_rng);
      }
      EXPECT_GT(batched.pending_walks(), 0u);
      batched.flush_batch();
      ASSERT_EQ(aggregate_bits(per_event), aggregate_bits(batched))
          << "decay " << decay << " burst " << burst;
    }
  }
}

TEST(IncrementalBatching, QueriesRequireAFlush) {
  IncrementalSubtreeState state = geometric_state(1.0);
  const NodeId a = state.add_leaf(kRoot, 1.0);
  state.begin_batch();
  state.add_contribution(a, 2.0);
  EXPECT_THROW(state.subtree_aggregate(a), std::invalid_argument);
  EXPECT_THROW(state.total_aggregate(), std::invalid_argument);
  EXPECT_THROW(state.export_aggregates(), std::invalid_argument);
  state.flush_batch();
  EXPECT_DOUBLE_EQ(state.subtree_aggregate(a), 3.0);
  EXPECT_FALSE(state.batching());
}

TEST(IncrementalBatching, RctBatchedJoinsAreBitIdenticalToPerEvent) {
  const TdrmParams params{};
  auto rct_event = [](IncrementalRctState& state, Rng& rng) {
    if (state.tree().participant_count() == 0 || rng.bernoulli(0.7)) {
      const NodeId parent =
          state.tree().participant_count() == 0 || rng.bernoulli(0.1)
              ? kRoot
              : static_cast<NodeId>(
                    1 + rng.index(state.tree().participant_count()));
      state.add_leaf(parent, rng.uniform(0.0, 4.0));
    } else {
      // Purchases drain the pending queue internally (they must read
      // current chain state) and then apply eagerly — still in order.
      state.add_contribution(
          static_cast<NodeId>(
              1 + rng.index(state.tree().participant_count())),
          rng.uniform(0.0, 2.0));
    }
  };
  Rng per_event_rng(91);
  Rng batched_rng(91);
  IncrementalRctState per_event(params, 0.05);
  IncrementalRctState batched(params, 0.05);
  for (int burst = 0; burst < 15; ++burst) {
    batched.begin_batch();
    for (int event = 0; event < 30; ++event) {
      rct_event(per_event, per_event_rng);
      rct_event(batched, batched_rng);
    }
    batched.flush_batch();
    ASSERT_EQ(hex_doubles(per_event.export_aggregates()),
              hex_doubles(batched.export_aggregates()))
        << "burst " << burst;
  }
}

TEST(IncrementalBatching, RctQueriesRequireAFlush) {
  const TdrmParams params{};
  IncrementalRctState state(params, 0.05);
  const NodeId a = state.add_leaf(kRoot, 1.0);
  state.begin_batch();
  state.add_leaf(a, 2.0);
  EXPECT_EQ(state.pending_walks(), 1u);
  EXPECT_THROW(state.reward(a), std::invalid_argument);
  EXPECT_THROW(state.total_reward(), std::invalid_argument);
  state.flush_batch();
  EXPECT_NO_THROW(state.reward(a));
}

// --- adopt-then-grow ----------------------------------------------
//
// A restore adopts a checkpointed tree, imports its aggregate blob and
// keeps ingesting. The suffixes below join several times more nodes than
// the adopted state holds, so each engine's record array grows past the
// capacity it was sized to at adopt time; every reading must stay
// bit-identical to one state that ran the whole history, whether the
// suffix arrives per event or in batches.

constexpr int kPrefixEvents = 150;
constexpr int kSuffixBursts = 30;
constexpr int kBurstEvents = 25;

template <typename State, typename Event>
void run_suffix(State& state, const Event& event, std::uint64_t seed,
                bool batched) {
  Rng rng(seed);
  for (int burst = 0; burst < kSuffixBursts; ++burst) {
    if (batched) {
      state.begin_batch();
    }
    for (int e = 0; e < kBurstEvents; ++e) {
      event(state, rng);
    }
    if (batched) {
      state.flush_batch();
    }
  }
}

TEST(IncrementalAdopt, RctAdoptThenGrowIsBitIdenticalToFullHistory) {
  const TdrmParams params{};
  // Joins dominate; purchases reach several mu, so N_u > 1 (multi-node
  // eps-chains) and rebuild_chain resizes chains mid-stream.
  auto rct_event = [&params](IncrementalRctState& state, Rng& rng) {
    const std::size_t count = state.tree().participant_count();
    if (count == 0 || rng.bernoulli(0.75)) {
      const NodeId parent =
          count == 0 || rng.bernoulli(0.05)
              ? kRoot
              : static_cast<NodeId>(1 + rng.index(count));
      state.add_leaf(parent, rng.uniform(0.0, 3.0 * params.mu));
    } else {
      state.add_contribution(static_cast<NodeId>(1 + rng.index(count)),
                             rng.uniform(0.0, 5.0 * params.mu));
    }
  };
  IncrementalRctState full(params, 0.05);
  Rng prefix_rng(301);
  for (int e = 0; e < kPrefixEvents; ++e) {
    rct_event(full, prefix_rng);
  }
  const Tree checkpoint = full.tree();
  const std::vector<double> blob = full.export_aggregates();
  run_suffix(full, rct_event, 302, false);
  ASSERT_GT(full.tree().node_count(), 3 * checkpoint.node_count());

  std::size_t max_chain = 0;
  for (NodeId u = 1; u < full.tree().node_count(); ++u) {
    max_chain = std::max(max_chain, full.chain_length(u));
  }
  ASSERT_GT(max_chain, 3u);

  for (const bool batched : {false, true}) {
    IncrementalRctState adopted(params, 0.05);
    adopted.adopt_tree(Tree(checkpoint));
    adopted.import_aggregates(blob);
    run_suffix(adopted, rct_event, 302, batched);
    ASSERT_EQ(adopted.tree().node_count(), full.tree().node_count());
    ASSERT_EQ(hex_doubles(adopted.export_aggregates()),
              hex_doubles(full.export_aggregates()))
        << "batched " << batched;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(adopted.total_reward()),
              std::bit_cast<std::uint64_t>(full.total_reward()));
    for (NodeId u = 1; u < full.tree().node_count(); ++u) {
      ASSERT_EQ(adopted.chain_length(u), full.chain_length(u)) << u;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(adopted.reward(u)),
                std::bit_cast<std::uint64_t>(full.reward(u)))
          << "node " << u << " batched " << batched;
    }
  }
}

TEST(IncrementalAdopt, SubtreeAdoptThenGrowIsBitIdenticalToFullHistory) {
  const IncrementalSubtreeState::Config config{.decay = 0.6,
                                               .track_binary_depth = true};
  IncrementalSubtreeState full(config);
  Rng prefix_rng(311);
  for (int e = 0; e < kPrefixEvents; ++e) {
    random_event(full, prefix_rng);
  }
  const Tree checkpoint = full.tree();
  const std::vector<double> blob = full.export_aggregates();
  run_suffix(full, random_event, 312, false);
  ASSERT_GT(full.tree().node_count(), 3 * checkpoint.node_count());

  for (const bool batched : {false, true}) {
    IncrementalSubtreeState adopted(config);
    adopted.adopt_tree(Tree(checkpoint));
    adopted.import_aggregates(blob);
    run_suffix(adopted, random_event, 312, batched);
    ASSERT_EQ(adopted.tree().node_count(), full.tree().node_count());
    ASSERT_EQ(aggregate_bits(adopted), aggregate_bits(full))
        << "batched " << batched;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(adopted.total_aggregate()),
              std::bit_cast<std::uint64_t>(full.total_aggregate()));
    for (NodeId u = 1; u < full.tree().node_count(); ++u) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(adopted.subtree_aggregate(u)),
                std::bit_cast<std::uint64_t>(full.subtree_aggregate(u)))
          << "node " << u << " batched " << batched;
      ASSERT_EQ(adopted.binary_depth(u), full.binary_depth(u)) << u;
    }
  }
}

}  // namespace
}  // namespace itree
