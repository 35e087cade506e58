// ProfileStore tests: content-hash interning (dedup to one allocation),
// collision-guard equality, weak-entry eviction (the store never extends
// a profile's lifetime, and dead entries of distinct profiles are swept),
// and the obs counters.
#include "engine/profile_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "engine/tracker_engine.h"
#include "obs/sink.h"
#include "tests/core/test_helpers.h"

namespace vihot::engine {
namespace {

using core::testing::synthetic_profile;

TEST(ProfileStoreTest, ContentHashIsAFunctionOfContentOnly) {
  const core::CsiProfile a = synthetic_profile(3);
  const core::CsiProfile b = synthetic_profile(3);  // rebuilt, same bytes
  core::CsiProfile c = synthetic_profile(3);
  c.positions[1].fingerprint_phase += 1e-12;  // any bit flip must show
  EXPECT_EQ(ProfileStore::content_hash(a), ProfileStore::content_hash(b));
  EXPECT_NE(ProfileStore::content_hash(a), ProfileStore::content_hash(c));
  EXPECT_TRUE(profiles_equal(a, b));
  EXPECT_FALSE(profiles_equal(a, c));
}

TEST(ProfileStoreTest, IdenticalProfilesInternToOneAllocation) {
  obs::Sink sink;
  ProfileStore store(&sink.profile_store);
  const auto first = store.intern(synthetic_profile(4));
  const auto second = store.intern(synthetic_profile(4));
  EXPECT_EQ(first.get(), second.get());  // THE dedup guarantee
  EXPECT_EQ(store.live_count(), 1u);
  EXPECT_EQ(sink.profile_store.interned.value(), 1u);
  EXPECT_EQ(sink.profile_store.dedup_hits.value(), 1u);

  const auto other = store.intern(synthetic_profile(5));
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(sink.profile_store.interned.value(), 2u);
}

TEST(ProfileStoreTest, UnreferencedProfilesAreReleasedAndSwept) {
  obs::Sink sink;
  ProfileStore store(&sink.profile_store);
  std::weak_ptr<const core::CsiProfile> watch;
  {
    const auto p = store.intern(synthetic_profile(3));
    watch = p;
    EXPECT_EQ(store.live_count(), 1u);
  }
  // The store held only a weak entry: the profile died with its last
  // external reference — the store must NOT have kept it alive.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_EQ(store.index_size(), 1u);  // dead entry awaiting a sweep

  // Re-interning after death allocates afresh (no stale-entry hit) and
  // sweeps the dead entry out of its bucket.
  const auto again = store.intern(synthetic_profile(3));
  EXPECT_EQ(store.index_size(), 1u);
  EXPECT_EQ(store.live_count(), 1u);
  EXPECT_EQ(sink.profile_store.evicted.value(), 1u);
  EXPECT_EQ(sink.profile_store.interned.value(), 2u);
  EXPECT_EQ(sink.profile_store.dedup_hits.value(), 0u);
}

TEST(ProfileStoreTest, DeadEntriesOfDistinctProfilesAreSwept) {
  // Each distinct profile hashes to its own bucket, so the bucket sweep
  // alone never revisits a dead one: a serving process interning one
  // profile per driver would grow the index forever. The amortized full
  // sweep keeps it within about twice the live profiles.
  obs::Sink sink;
  ProfileStore store(&sink.profile_store);
  constexpr int kProfiles = 10000;
  constexpr std::size_t kSlack = 64;
  std::vector<std::shared_ptr<const core::CsiProfile>> kept;
  for (int i = 0; i < kProfiles; ++i) {
    core::CsiProfile p = synthetic_profile(2);
    p.reference_phase = 1e-3 * static_cast<double>(i);
    const auto live = store.intern(std::move(p));
    if (i % 100 == 0) kept.push_back(live);  // every 100th stays live
    ASSERT_LE(store.index_size(), 2 * store.live_count() + kSlack)
        << "after intern " << i;
  }
  EXPECT_EQ(store.live_count(), kept.size());
  EXPECT_EQ(sink.profile_store.interned.value(),
            static_cast<std::uint64_t>(kProfiles));
  EXPECT_EQ(sink.profile_store.evicted.value() + store.index_size(),
            static_cast<std::uint64_t>(kProfiles));
}

TEST(ProfileStoreTest, InternSweepsExpiredEntriesOpportunistically) {
  ProfileStore store;
  { (void)store.intern(synthetic_profile(3)); }  // dies immediately
  // Same hash bucket: the next intern of identical content sweeps the
  // corpse instead of leaking index entries.
  const auto live = store.intern(synthetic_profile(3));
  EXPECT_EQ(store.index_size(), 1u);
  EXPECT_EQ(store.live_count(), 1u);
}

TEST(ProfileStoreTest, ConcurrentInternsDedupeToOneAllocation) {
  ProfileStore store;
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const core::CsiProfile>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = store.intern(synthetic_profile(4)); });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get());
  }
  EXPECT_EQ(store.live_count(), 1u);
}

TEST(ProfileStoreTest, EngineAddProfileDedupesAndDoesNotPin) {
  // The engine-facing contract: add_profile of identical content yields
  // one allocation (counted via the sink), and the engine keeps no
  // strong reference of its own — destroy the sessions and drop the
  // caller's pointer, and the profile memory is released.
  obs::Sink sink;
  TrackerEngine::Config cfg;
  cfg.sink = &sink;
  TrackerEngine engine(cfg);
  std::weak_ptr<const core::CsiProfile> watch;
  {
    const auto a = engine.add_profile(synthetic_profile(3));
    const auto b = engine.add_profile(synthetic_profile(3));
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(sink.profile_store.dedup_hits.value(), 1u);
    watch = a;
    const SessionId id = engine.create_session(a);
    EXPECT_TRUE(engine.destroy_session(id));
  }
  EXPECT_TRUE(watch.expired());  // nothing pins the profile anymore
}

}  // namespace
}  // namespace vihot::engine
