#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "support/metrics.hpp"

namespace tq::metrics {
namespace {

TEST(Registry, CountersAccumulate) {
  Registry registry;
  registry.add("a.count", 2);
  registry.add("a.count", 3);
  registry.add("b.count", 0);  // creation at zero still registers the name
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[0].second, 5u);
  EXPECT_EQ(snap.counters[1].first, "b.count");
  EXPECT_EQ(snap.counters[1].second, 0u);
}

TEST(Registry, GaugeSetMaxAndHighWater) {
  Registry registry;
  registry.set_gauge("g", 10);
  registry.set_gauge("g", 4);  // value drops, high-water stays
  registry.max_gauge("m", 7);
  registry.max_gauge("m", 3);  // lower value ignored
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].second.value, 4u);
  EXPECT_EQ(snap.gauges[0].second.high_water, 10u);
  EXPECT_EQ(snap.gauges[1].second.value, 7u);
  EXPECT_EQ(snap.gauges[1].second.high_water, 7u);
}

TEST(Render, TextIsSortedAndStable) {
  Registry registry;
  registry.add("z.last", 1);
  registry.add("a.first", 2);
  registry.add("m.middle", 3);
  const std::string text = registry.render_text();
  const std::size_t a = text.find("a.first");
  const std::size_t m = text.find("m.middle");
  const std::size_t z = text.find("z.last");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(Render, TextShowsGaugeHighWater) {
  Registry registry;
  registry.add("c", 5);
  registry.set_gauge("g", 9);
  registry.set_gauge("g", 2);
  EXPECT_EQ(registry.render_text(), "c 5\ng 2 (high 9)\n");
}

TEST(Render, JsonKeysStableAcrossEquivalentRuns) {
  // Two registries populated in different orders with the same names must
  // render byte-identical JSON (std::map iteration sorts the keys).
  Registry first;
  first.add("b", 1);
  first.add("a", 2);
  first.set_gauge("g", 3);
  first.max_gauge("m", 4);
  Registry second;
  second.max_gauge("m", 4);
  second.set_gauge("g", 3);
  second.add("a", 2);
  second.add("b", 1);
  EXPECT_EQ(first.render_json(), second.render_json());
}

TEST(Render, JsonEscapesAndStructure) {
  Registry registry;
  registry.add("plain", 7);
  registry.add("quo\"te", 1);
  registry.set_gauge("g", 3);
  EXPECT_EQ(registry.render_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"plain\": 7,\n"
            "    \"quo\\\"te\": 1\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": {\"value\": 3, \"high_water\": 3}\n"
            "  }\n"
            "}\n");
}

TEST(Render, EmptyJsonHasBothSections) {
  EXPECT_EQ(Registry().render_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {}\n}\n");
}

}  // namespace
}  // namespace tq::metrics
