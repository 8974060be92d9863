#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/head_queue.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/torus_coord.hpp"
#include "util/vec3.hpp"

namespace anton::util {
namespace {

TEST(Vec3, Arithmetic) {
  Vec3 a{1, 2, 3};
  Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_EQ(a.cross(b), Vec3(-3, 6, -3));
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
}

// Pops come out in push order across a drain to empty and a refill, and a
// push made while items are queued lands behind them.
TEST(HeadQueue, KeepsPushOrderAcrossDrainAndRefill) {
  HeadQueue<int> q;
  EXPECT_TRUE(q.empty());
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.pop(), 1);
  q.push(3);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front(), 2);
  for (int& v : q.items()) v *= 10;
  EXPECT_EQ(q.pop(), 20);
  EXPECT_EQ(q.pop(), 30);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.items().empty());
  q.push(4);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_TRUE(q.empty());
}

TEST(TorusCoord, Wrap) {
  EXPECT_EQ(wrap(5, 8), 5);
  EXPECT_EQ(wrap(8, 8), 0);
  EXPECT_EQ(wrap(-1, 8), 7);
  EXPECT_EQ(wrap(-9, 8), 7);
  EXPECT_EQ(wrap(17, 8), 1);
}

TEST(TorusCoord, SignedDelta) {
  // Shortest signed displacement with wraparound, ties broken positive.
  EXPECT_EQ(signedTorusDelta(0, 3, 8), 3);
  EXPECT_EQ(signedTorusDelta(0, 5, 8), -3);
  EXPECT_EQ(signedTorusDelta(0, 4, 8), 4);   // tie -> positive
  EXPECT_EQ(signedTorusDelta(7, 0, 8), 1);   // wrap forward
  EXPECT_EQ(signedTorusDelta(0, 7, 8), -1);  // wrap backward
  EXPECT_EQ(signedTorusDelta(3, 3, 8), 0);
}

TEST(TorusCoord, Hops) {
  TorusShape s{8, 8, 8};
  EXPECT_EQ(torusHops({0, 0, 0}, {0, 0, 0}, s), 0);
  EXPECT_EQ(torusHops({0, 0, 0}, {1, 0, 0}, s), 1);
  EXPECT_EQ(torusHops({0, 0, 0}, {7, 0, 0}, s), 1);
  // Maximum distance in an 8x8x8 torus is 4+4+4 = 12 (SC10 Fig. 5 caption).
  EXPECT_EQ(torusHops({0, 0, 0}, {4, 4, 4}, s), 12);
}

TEST(TorusCoord, IndexRoundTrip) {
  TorusShape s{3, 4, 5};
  for (int i = 0; i < s.size(); ++i) {
    EXPECT_EQ(torusIndex(torusCoordOf(i, s), s), i);
  }
  EXPECT_EQ(torusIndex({1, 2, 3}, s), 1 + 3 * (2 + 4 * 3));
}

TEST(TorusCoord, Neighbor) {
  TorusShape s{4, 4, 4};
  EXPECT_EQ(torusNeighbor({0, 0, 0}, 0, -1, s), (TorusCoord{3, 0, 0}));
  EXPECT_EQ(torusNeighbor({3, 0, 0}, 0, +1, s), (TorusCoord{0, 0, 0}));
  EXPECT_EQ(torusNeighbor({1, 1, 1}, 2, +1, s), (TorusCoord{1, 1, 2}));
}

TEST(Stats, Summary) {
  std::vector<double> xs = {4, 1, 3, 2};
  Summary s = summarize(xs);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
}

TEST(Stats, SummaryEmpty) {
  Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20);
  EXPECT_DOUBLE_EQ(percentile(xs, 37.5), 25);
}

TEST(Stats, LinearFit) {
  std::vector<double> xs = {0, 1, 2, 3};
  std::vector<double> ys = {1, 3, 5, 7};  // y = 1 + 2x
  LinearFit f = fitLine(xs, ys);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
}

TEST(Stats, LinearFitDegenerate) {
  std::vector<double> xs = {2, 2};
  std::vector<double> ys = {1, 3};
  LinearFit f = fitLine(xs, ys);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 2.0);
}

TEST(Table, Renders) {
  TablePrinter t({"a", "long-header"});
  t.addRow({"x", "1"});
  t.addRow({"yyyy"});
  std::ostringstream os;
  t.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("yyyy"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumFormat) {
  EXPECT_EQ(TablePrinter::num(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(5, 0), "5");
}

TEST(Json, NestingIsCappedWithAnOrdinaryParseError) {
  auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  // At the cap: parses, for arrays and for objects.
  json::Value v = json::parse(arrays(json::kMaxDepth));
  int depth = 1;
  for (const json::Value* p = &v; !p->arr.empty(); p = &p->arr[0]) ++depth;
  EXPECT_EQ(depth, json::kMaxDepth);
  std::string objects;
  for (int d = 1; d < json::kMaxDepth; ++d) objects += "{\"k\":";
  objects += "{}" + std::string(std::size_t(json::kMaxDepth - 1), '}');
  EXPECT_EQ(json::parse(objects).type, json::Value::kObject);

  // One past the cap, and a million deep (a stack overflow without the cap):
  // the parser's usual runtime_error, prefixed by the caller's context.
  for (std::size_t d :
       {std::size_t(json::kMaxDepth) + 1, std::size_t(1000000)}) {
    SCOPED_TRACE(d);
    try {
      json::parse(arrays(d), "deep");
      FAIL() << "over-deep document must throw";
    } catch (const std::runtime_error& e) {
      std::string what = e.what();
      EXPECT_EQ(what.rfind("deep: nesting deeper than", 0), 0u) << what;
    }
  }
}

}  // namespace
}  // namespace anton::util
