#include <gtest/gtest.h>

#include "query/attribute_order.h"
#include "query/hypergraph.h"
#include "query/queries.h"
#include "query/query.h"

namespace adj::query {
namespace {

TEST(QueryParseTest, Triangle) {
  auto q = Query::Parse("R1(a,b) R2(b,c) R3(a,c)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_attrs(), 3);
  EXPECT_EQ(q->num_atoms(), 3);
  EXPECT_EQ(q->attr_name(0), "a");
  EXPECT_EQ(q->attr_name(2), "c");
  EXPECT_EQ(q->atom(0).relation, "R1");
  EXPECT_EQ(q->atom(1).schema.attrs(), (std::vector<AttrId>{1, 2}));
}

TEST(QueryParseTest, AttrIdsAreAlphabetical) {
  auto q = Query::Parse("R(e,a) S(c,a)");
  ASSERT_TRUE(q.ok());
  // Names sorted: a=0, c=1, e=2.
  EXPECT_EQ(q->atom(0).schema.attrs(), (std::vector<AttrId>{2, 0}));
  EXPECT_EQ(q->atom(1).schema.attrs(), (std::vector<AttrId>{1, 0}));
}

TEST(QueryParseTest, CommasAndWhitespaceFlexible) {
  auto q = Query::Parse("  R ( a , b ) ,  S(b,c)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_atoms(), 2);
}

TEST(QueryParseTest, Failures) {
  EXPECT_FALSE(Query::Parse("").ok());
  EXPECT_FALSE(Query::Parse("R").ok());
  EXPECT_FALSE(Query::Parse("R(").ok());
  EXPECT_FALSE(Query::Parse("R()").ok());
  EXPECT_FALSE(Query::Parse("R(a,a)").ok());  // repeated attribute
  EXPECT_FALSE(Query::Parse("R(a) %").ok());
}

TEST(QueryTest, AtomsWith) {
  auto q = Query::Parse("R(a,b) S(b,c) T(a,c)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->AtomsWith(0), AtomMask(0b101));  // R and T contain a
  EXPECT_EQ(q->AtomsWith(1), AtomMask(0b011));
}

TEST(QueryTest, AttrByName) {
  auto q = Query::Parse("R(a,b)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q->AttrByName("b"), 1);
  EXPECT_FALSE(q->AttrByName("z").ok());
}

TEST(QueryTest, ToStringRoundTripsShape) {
  auto q = Query::Parse("R1(a,b) R2(b,c)");
  ASSERT_TRUE(q.ok());
  std::string s = q->ToString();
  EXPECT_NE(s.find("R1(a,b)"), std::string::npos);
  EXPECT_NE(s.find("R2(b,c)"), std::string::npos);
}

TEST(BenchmarkQueriesTest, AllParse) {
  for (int i = 1; i <= 11; ++i) {
    auto q = MakeBenchmarkQuery(i);
    ASSERT_TRUE(q.ok()) << "Q" << i;
    EXPECT_GE(q->num_atoms(), 2) << "Q" << i;
  }
  EXPECT_FALSE(MakeBenchmarkQuery(0).ok());
  EXPECT_FALSE(MakeBenchmarkQuery(12).ok());
}

TEST(BenchmarkQueriesTest, ShapesMatchPaper) {
  EXPECT_EQ(MakeBenchmarkQuery(1)->num_atoms(), 3);    // triangle
  EXPECT_EQ(MakeBenchmarkQuery(2)->num_atoms(), 6);    // 4-clique
  EXPECT_EQ(MakeBenchmarkQuery(2)->num_attrs(), 4);
  EXPECT_EQ(MakeBenchmarkQuery(3)->num_atoms(), 10);   // 5-clique
  EXPECT_EQ(MakeBenchmarkQuery(3)->num_attrs(), 5);
  EXPECT_EQ(MakeBenchmarkQuery(4)->num_atoms(), 6);
  EXPECT_EQ(MakeBenchmarkQuery(5)->num_atoms(), 7);
  EXPECT_EQ(MakeBenchmarkQuery(6)->num_atoms(), 8);
}

TEST(HypergraphTest, FromQuery) {
  auto q = Query::Parse("R(a,b) S(b,c) T(a,c)");
  Hypergraph h(*q);
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.edge(0), AttrMask(0b011));
}

TEST(HypergraphTest, EdgesConnected) {
  auto q = Query::Parse("R(a,b) S(b,c) T(d,e)");
  Hypergraph h(*q);
  EXPECT_TRUE(h.EdgesConnected(0b011));   // R,S share b
  EXPECT_FALSE(h.EdgesConnected(0b101));  // R,T disjoint
  EXPECT_TRUE(h.EdgesConnected(0b100));   // single edge
  EXPECT_TRUE(h.EdgesConnected(0));       // empty
}

TEST(HypergraphTest, GyoAcyclicOnTree) {
  // Path query a-b, b-c, c-d: acyclic.
  std::vector<AttrMask> edges = {0b0011, 0b0110, 0b1100};
  std::vector<int> parent(edges.size());
  EXPECT_TRUE(Hypergraph::GyoAcyclic(edges, parent.data()));
  // Exactly one root.
  int roots = 0;
  for (int p : parent) {
    if (p == -1) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(HypergraphTest, GyoRejectsTriangle) {
  std::vector<AttrMask> edges = {0b011, 0b110, 0b101};
  EXPECT_FALSE(Hypergraph::GyoAcyclic(edges, nullptr));
}

TEST(HypergraphTest, GyoAcceptsContainedEdge) {
  // (a,b,c) with (a,b) inside it.
  std::vector<AttrMask> edges = {0b111, 0b011};
  std::vector<int> parent(edges.size());
  EXPECT_TRUE(Hypergraph::GyoAcyclic(edges, parent.data()));
  // One of the two edges roots the join tree, the other hangs off it.
  EXPECT_TRUE((parent[0] == -1 && parent[1] == 0) ||
              (parent[0] == 1 && parent[1] == -1));
}

TEST(HypergraphTest, GyoPaperExampleGroupedSchemas) {
  // Example 3: bags {a,b,c}, {a,c,d}, {b,c,e} are acyclic.
  std::vector<AttrMask> edges = {0b00111, 0b01101, 0b10110};
  std::vector<int> parent(edges.size());
  EXPECT_TRUE(Hypergraph::GyoAcyclic(edges, parent.data()));
}

TEST(HypergraphTest, VerticesOf) {
  auto q = Query::Parse("R(a,b) S(b,c)");
  Hypergraph h(*q);
  EXPECT_EQ(h.VerticesOf(0b11), AttrMask(0b111));
  EXPECT_EQ(h.VerticesOf(0b01), AttrMask(0b011));
}

TEST(AttributeOrderTest, RankOf) {
  AttributeOrder order = {2, 0, 1};
  std::vector<int> rank = RankOf(order, 4);
  EXPECT_EQ(rank[2], 0);
  EXPECT_EQ(rank[0], 1);
  EXPECT_EQ(rank[1], 2);
  EXPECT_EQ(rank[3], -1);
}

TEST(AttributeOrderTest, AllOrdersCountsFactorial) {
  EXPECT_EQ(AllOrders(0b111).size(), 6u);
  EXPECT_EQ(AllOrders(0b11111).size(), 120u);
  EXPECT_EQ(AllOrders(0b1).size(), 1u);
}

TEST(AttributeOrderTest, AllOrdersCoverMaskOnly) {
  for (const AttributeOrder& o : AllOrders(0b101)) {
    ASSERT_EQ(o.size(), 2u);
    for (AttrId a : o) EXPECT_TRUE(a == 0 || a == 2);
  }
}

TEST(AttributeOrderTest, OrderToString) {
  auto q = Query::Parse("R(a,b) S(b,c)");
  EXPECT_EQ(OrderToString({0, 1, 2}, *q), "a < b < c");
}

}  // namespace
}  // namespace adj::query
