#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ghd/decomposition.h"
#include "ghd/fractional_edge_cover.h"
#include "ghd/simplex.h"
#include "query/queries.h"
#include "query/query.h"

namespace adj::ghd {
namespace {

using query::Query;

TEST(SimplexTest, SolvesTinyLp) {
  // min x0 + x1  s.t. x0 + x1 >= 1, x0 >= 0.3.
  LinearProgram lp;
  lp.c = {1.0, 1.0};
  lp.a = {{1.0, 1.0}, {1.0, 0.0}};
  lp.b = {1.0, 0.3};
  auto sol = SolveMinCover(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 1.0, 1e-6);
}

TEST(SimplexTest, FractionalOptimum) {
  // Triangle cover LP: three vars, each pair covers one vertex.
  LinearProgram lp;
  lp.c = {1.0, 1.0, 1.0};
  lp.a = {{1, 0, 1}, {1, 1, 0}, {0, 1, 1}};
  lp.b = {1.0, 1.0, 1.0};
  auto sol = SolveMinCover(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, 1.5, 1e-6);
  for (double x : sol->x) EXPECT_NEAR(x, 0.5, 1e-6);
}

TEST(FecTest, SingleEdge) {
  auto cover = FractionalEdgeCover(0b11, {0b11});
  ASSERT_TRUE(cover.ok());
  EXPECT_NEAR(cover->rho, 1.0, 1e-6);
}

TEST(FecTest, TriangleIsThreeHalves) {
  auto cover = FractionalEdgeCover(0b111, {0b011, 0b110, 0b101});
  ASSERT_TRUE(cover.ok());
  EXPECT_NEAR(cover->rho, 1.5, 1e-6);
}

TEST(FecTest, FourCycleIsTwo) {
  auto cover = FractionalEdgeCover(0b1111, {0b0011, 0b0110, 0b1100, 0b1001});
  ASSERT_TRUE(cover.ok());
  EXPECT_NEAR(cover->rho, 2.0, 1e-6);
}

TEST(FecTest, FourCliqueIsTwo) {
  auto q = query::MakeBenchmarkQuery(2);
  query::Hypergraph h(*q);
  auto cover = FractionalEdgeCover(q->AllAttrs(), h.edges());
  ASSERT_TRUE(cover.ok());
  EXPECT_NEAR(cover->rho, 2.0, 1e-6);
}

TEST(FecTest, FiveCliqueIsFiveHalves) {
  auto q = query::MakeBenchmarkQuery(3);
  query::Hypergraph h(*q);
  auto cover = FractionalEdgeCover(q->AllAttrs(), h.edges());
  ASSERT_TRUE(cover.ok());
  EXPECT_NEAR(cover->rho, 2.5, 1e-6);
}

TEST(FecTest, UncoveredVertexFails) {
  EXPECT_FALSE(FractionalEdgeCover(0b111, {0b011}).ok());
}

/// Bags (atoms/attrs/rho), join-tree parents and width of a
/// decomposition, in one comparable line.
std::string Fingerprint(const Decomposition& d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "w=%.3f p=", d.width);
  std::string out = buf;
  for (size_t v = 0; v < d.parent.size(); ++v) {
    if (v > 0) out += ',';
    out += std::to_string(d.parent[v]);
  }
  out += " bags=";
  for (size_t v = 0; v < d.bags.size(); ++v) {
    std::snprintf(buf, sizeof(buf), "%s%#x/%#x/%.3f", v > 0 ? "," : "",
                  d.bags[v].atoms, d.bags[v].attrs, d.bags[v].rho);
    out += buf;
  }
  return out;
}

// The search must keep its enumeration order and tie-breaks: these
// decompositions were recorded from the partition search before it
// moved to dense per-mask tables, and the plans of every query depend
// on them (bag numbering included).
TEST(GhdTest, GoldenDecompositions) {
  const char* kGolden[11] = {
      "w=1.500 p=-1 bags=0x7/0x7/1.500",
      "w=2.000 p=-1,0,0,0 bags=0x7/0xf/2.000,0x8/0x9/1.000,0x10/0x5/1.000,"
      "0x20/0xa/1.000",
      "w=2.500 p=-1,0,0,0,0,0 bags=0x1f/0x1f/2.500,0x20/0xa/1.000,"
      "0x40/0x12/1.000,0x80/0x5/1.000,0x100/0x14/1.000,0x200/0x9/1.000",
      "w=2.000 p=-1,0,0 bags=0x13/0x17/2.000,0xc/0x1c/2.000,0x20/0x12/1.000",
      "w=2.000 p=-1,0,0,0 bags=0x19/0x1b/2.000,0x6/0xe/2.000,0x20/0x12/1.000,"
      "0x40/0xa/1.000",
      "w=2.000 p=1,-1,1,1,1 bags=0x11/0x13/2.000,0xe/0x1e/2.000,"
      "0x20/0x12/1.000,0x40/0xa/1.000,0x80/0x14/1.000",
      "w=1.000 p=1,-1 bags=0x1/0x3/1.000,0x2/0x6/1.000",
      "w=1.000 p=1,2,-1 bags=0x1/0x3/1.000,0x2/0x5/1.000,0x4/0x9/1.000",
      "w=1.000 p=1,-1,1 bags=0x1/0x3/1.000,0x2/0x6/1.000,0x4/0xc/1.000",
      "w=2.000 p=1,-1 bags=0x7/0xf/2.000,0x8/0x9/1.000",
      "w=1.500 p=1,-1 bags=0x7/0x7/1.500,0x8/0xc/1.000",
  };
  for (int qi = 1; qi <= 11; ++qi) {
    auto q = query::MakeBenchmarkQuery(qi);
    ASSERT_TRUE(q.ok());
    auto d = FindOptimalGhd(*q);
    ASSERT_TRUE(d.ok()) << "Q" << qi;
    EXPECT_EQ(Fingerprint(*d), kGolden[qi - 1]) << "Q" << qi;
  }
  const std::pair<const char*, const char*> kOthers[] = {
      {"R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)",
       "w=2.000 p=-1,0,0 bags=0x3/0xf/2.000,0x4/0xc/1.000,0x18/0x16/2.000"},
      {"R(a,b) S(b,c) T(c,d) U(d,e) V(e,f) W(f,a)",
       "w=2.000 p=1,-1 bags=0x7/0xf/2.000,0x38/0x39/2.000"},
      {"R(a,b) S(b,c) T(a,c) U(c,d) V(d,e) W(c,e)",
       "w=1.500 p=1,-1 bags=0x7/0x7/1.500,0x38/0x1c/1.500"},
      {"R(a,b,c) S(c,d,e) T(e,f,a) U(b,d,f)",
       "w=2.000 p=1,-1 bags=0x3/0x1f/2.000,0xc/0x3b/2.000"},
  };
  for (const auto& [text, golden] : kOthers) {
    auto q = Query::Parse(text);
    ASSERT_TRUE(q.ok()) << text;
    auto d = FindOptimalGhd(*q);
    ASSERT_TRUE(d.ok()) << text;
    EXPECT_EQ(Fingerprint(*d), golden) << text;
  }
  // The second call of each shape is a memo hit; it and a fresh search
  // give the golden decomposition too.
  for (int qi = 1; qi <= 11; ++qi) {
    auto q = query::MakeBenchmarkQuery(qi);
    ASSERT_TRUE(q.ok());
    auto hit = FindOptimalGhd(*q);
    auto fresh = SearchOptimalGhd(*q);
    ASSERT_TRUE(hit.ok() && fresh.ok()) << "Q" << qi;
    EXPECT_EQ(Fingerprint(*hit), kGolden[qi - 1]) << "Q" << qi;
    EXPECT_EQ(Fingerprint(*fresh), kGolden[qi - 1]) << "Q" << qi;
  }
}

/// The memo is keyed by shape: renaming relations and attributes hits
/// the same entry, while a different shape gets its own search.
TEST(GhdTest, MemoKeysOnShapeOnly) {
  auto a = Query::Parse("R(a,b) S(b,c) T(a,c) U(c,d)");
  auto b = Query::Parse("X(p,q) Y(q,r) Z(p,r) W(r,s)");
  auto c = Query::Parse("R(a,b) S(b,c) T(c,d) U(a,d)");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  auto da = FindOptimalGhd(*a);
  auto db = FindOptimalGhd(*b);
  auto dc = FindOptimalGhd(*c);
  ASSERT_TRUE(da.ok() && db.ok() && dc.ok());
  EXPECT_EQ(Fingerprint(*da), Fingerprint(*db));
  EXPECT_EQ(Fingerprint(*dc), Fingerprint(*SearchOptimalGhd(*c)));
  EXPECT_NE(Fingerprint(*da), Fingerprint(*dc));
}

/// Concurrent callers (memo misses and hits racing on one mutex) all
/// get the fresh search's decomposition.
TEST(GhdTest, ConcurrentCallersAgreeWithFreshSearch) {
  std::vector<Query> queries;
  std::vector<std::string> want;
  for (int qi = 1; qi <= 11; ++qi) {
    auto q = query::MakeBenchmarkQuery(qi);
    ASSERT_TRUE(q.ok());
    auto d = SearchOptimalGhd(*q);
    ASSERT_TRUE(d.ok());
    queries.push_back(*q);
    want.push_back(Fingerprint(*d));
  }
  // Shapes no other test plans, so the first calls here are misses.
  for (const char* text : {"R(a,b) S(b,c) T(c,d) U(d,e) V(e,a) W(a,c)",
                           "R(a,b) S(b,c) T(c,d) U(d,a) V(a,e) W(e,b)"}) {
    auto q = Query::Parse(text);
    ASSERT_TRUE(q.ok());
    auto d = SearchOptimalGhd(*q);
    ASSERT_TRUE(d.ok());
    queries.push_back(*q);
    want.push_back(Fingerprint(*d));
  }
  std::vector<std::vector<std::string>> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        for (size_t i = 0; i < queries.size(); ++i) {
          // Each thread walks the shapes from its own offset.
          const Query& q = queries[(i + 3 * t) % queries.size()];
          auto d = FindOptimalGhd(q);
          got[t].push_back(d.ok() ? Fingerprint(*d) : d.status().ToString());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), 3 * queries.size());
    for (size_t j = 0; j < got[t].size(); ++j) {
      const size_t i = (j % queries.size() + 3 * t) % queries.size();
      EXPECT_EQ(got[t][j], want[i]) << "thread " << t << " shape " << i;
    }
  }
}

TEST(GhdTest, PaperExampleDecomposition) {
  // Q of Eq. (2): R1(a,b,c), R2(a,d), R3(c,d), R4(b,e), R5(c,e).
  auto q = Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  ASSERT_TRUE(q.ok());
  auto d = FindOptimalGhd(*q);
  ASSERT_TRUE(d.ok());
  // The paper's T: three bags {R1}, {R2,R3}, {R4,R5}, width 2.
  EXPECT_EQ(d->num_bags(), 3);
  EXPECT_NEAR(d->width, 2.0, 1e-6);
  // One bag must be exactly {R1} (single atom), the others pairs.
  int singles = 0, pairs = 0;
  for (const Bag& bag : d->bags) {
    if (PopCount(bag.atoms) == 1) ++singles;
    if (PopCount(bag.atoms) == 2) ++pairs;
  }
  EXPECT_EQ(singles, 1);
  EXPECT_EQ(pairs, 2);
}

TEST(GhdTest, AcyclicQueryGetsSingletonBags) {
  auto q = Query::Parse("R(a,b) S(b,c) T(c,d)");
  auto d = FindOptimalGhd(*q);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_bags(), 3);
  EXPECT_NEAR(d->width, 1.0, 1e-6);
  for (const Bag& bag : d->bags) EXPECT_TRUE(bag.IsSingleAtom());
}

TEST(GhdTest, TriangleIsOneBag) {
  auto q = query::MakeBenchmarkQuery(1);
  auto d = FindOptimalGhd(*q);
  ASSERT_TRUE(d.ok());
  // No grouping of a triangle is acyclic except the single bag.
  EXPECT_EQ(d->num_bags(), 1);
  EXPECT_NEAR(d->width, 1.5, 1e-6);
}

TEST(GhdTest, RunningIntersectionHolds) {
  for (int qi : {2, 4, 5, 6}) {
    auto q = query::MakeBenchmarkQuery(qi);
    auto d = FindOptimalGhd(*q);
    ASSERT_TRUE(d.ok()) << "Q" << qi;
    // Every attribute must induce a connected subtree of the join tree.
    for (int a = 0; a < q->num_attrs(); ++a) {
      uint32_t with_a = 0;
      for (int v = 0; v < d->num_bags(); ++v) {
        if (d->bags[size_t(v)].attrs & (AttrMask(1) << a)) with_a |= 1u << v;
      }
      ASSERT_NE(with_a, 0u);
      // BFS over tree restricted to with_a.
      uint32_t visited = 1u << LowestBit(with_a);
      bool grew = true;
      while (grew) {
        grew = false;
        for (int v = 0; v < d->num_bags(); ++v) {
          if ((with_a & (1u << v)) == 0 || (visited & (1u << v))) continue;
          for (int u : d->Neighbors(v)) {
            if (visited & (1u << u)) {
              visited |= 1u << v;
              grew = true;
              break;
            }
          }
        }
      }
      EXPECT_EQ(visited, with_a) << "Q" << qi << " attr " << a;
    }
  }
}

TEST(GhdTest, BagsCoverAllAtoms) {
  for (int qi = 1; qi <= 11; ++qi) {
    auto q = query::MakeBenchmarkQuery(qi);
    auto d = FindOptimalGhd(*q);
    ASSERT_TRUE(d.ok()) << "Q" << qi;
    AtomMask all = 0;
    for (const Bag& bag : d->bags) {
      EXPECT_EQ(all & bag.atoms, 0u) << "bags overlap";
      all |= bag.atoms;
    }
    EXPECT_EQ(all, (AtomMask(1) << q->num_atoms()) - 1);
  }
}

TEST(TraversalTest, PathTreeTraversals) {
  auto q = Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  auto d = FindOptimalGhd(*q);
  ASSERT_TRUE(d.ok());
  auto orders = TraversalOrders(*d);
  // Every traversal keeps a connected prefix.
  for (const auto& t : orders) {
    EXPECT_EQ(t.size(), size_t(d->num_bags()));
  }
  EXPECT_GE(orders.size(), 2u);
  // All traversals distinct.
  auto sorted = orders;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ValidOrderTest, PaperExampleValidAndInvalid) {
  auto q = Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  auto d = FindOptimalGhd(*q);
  ASSERT_TRUE(d.ok());
  // Sec. III-A: a<b<c<d<e is valid; a<b<e<d<c is invalid.
  EXPECT_TRUE(IsValidOrder(*d, *q, {0, 1, 2, 3, 4}));
  EXPECT_FALSE(IsValidOrder(*d, *q, {0, 1, 4, 3, 2}));
}

TEST(ValidOrderTest, ValidOrdersAreSubsetOfAll) {
  for (int qi : {4, 5, 6}) {
    auto q = query::MakeBenchmarkQuery(qi);
    auto d = FindOptimalGhd(*q);
    ASSERT_TRUE(d.ok());
    auto valid = ValidAttributeOrders(*d, *q);
    ASSERT_FALSE(valid.empty()) << "Q" << qi;
    auto all = query::AllOrders(q->AllAttrs());
    EXPECT_LE(valid.size(), all.size());
    for (const auto& o : valid) {
      EXPECT_TRUE(IsValidOrder(*d, *q, o)) << "Q" << qi;
    }
  }
}

TEST(ValidOrderTest, SegmentsPartitionOrder) {
  auto q = Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  auto d = FindOptimalGhd(*q);
  ASSERT_TRUE(d.ok());
  auto segs = OrderBagSegments(*d, *q, {0, 1, 2, 3, 4});
  ASSERT_FALSE(segs.empty());
  int total = 0;
  for (int s : segs) total += s;
  EXPECT_EQ(total, 5);
}

TEST(ValidOrderTest, SingleBagAcceptsEverything) {
  auto q = query::MakeBenchmarkQuery(1);
  auto d = FindOptimalGhd(*q);
  ASSERT_TRUE(d.ok());
  for (const auto& o : query::AllOrders(q->AllAttrs())) {
    EXPECT_TRUE(IsValidOrder(*d, *q, o));
  }
}

}  // namespace
}  // namespace adj::ghd
