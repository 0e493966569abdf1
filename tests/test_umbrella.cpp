// Compile-and-run check of the umbrella header: a downstream user's
// end-to-end flow using only #include "manywalks.hpp".
#include "manywalks.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace manywalks {
namespace {

TEST(Umbrella, EndToEndFlow) {
  // Build a family instance, profile it, measure a speed-up, classify the
  // regime, serialize the graph, and read it back.
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 48);
  EXPECT_TRUE(is_connected(inst.graph));

  McOptions mc;
  mc.min_trials = 60;
  mc.max_trials = 60;
  mc.seed = 123;
  const std::vector<unsigned> ks = {2, 4, 8};
  const auto curve = estimate_speedup_curve(inst.graph, inst.start, ks, mc);
  const RegimeFit fit = classify_speedup_regime(curve);
  EXPECT_EQ(fit.regime, SpeedupRegime::kLinear);

  const auto h = hitting_extremes(inst.graph);
  EXPECT_NEAR(h.h_max, complete_hitting_time(48), 1e-6);
  EXPECT_LE(curve[0].single.ci.mean,
            matthews_upper_bound(h.h_max, 48) * 1.2);

  std::stringstream ss;
  write_edge_list(ss, inst.graph);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.num_edges(), inst.graph.num_edges());

  ResultTable table("smoke", "smoke");
  table.add_column("k").add_column("S");
  for (const auto& p : curve) {
    table.begin_row().count(p.k).mean_pm(p);
  }
  EXPECT_EQ(table.rows().size(), 3u);
  EXPECT_NE(table_text(table).find("smoke\n"), std::string::npos);
}

}  // namespace
}  // namespace manywalks
