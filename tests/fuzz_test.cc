// Differential fuzzing harness tests: the generator is deterministic and
// produces parseable SQL, the shrinker converges to a minimal failing
// spec against a fake oracle, and -- the regression bar -- a fixed-seed
// batch of generated queries replays through the full differential runner
// (30 configurations, verifiers armed) with zero divergences.
#include "tools/fuzz/fuzzer.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/binder.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace bornsql::fuzz {
namespace {

TEST(FuzzGeneratorTest, SameSeedSameQuery) {
  for (uint64_t i = 0; i < 50; ++i) {
    Rng a(DeriveSeed(123, i));
    Rng b(DeriveSeed(123, i));
    EXPECT_EQ(RenderQuery(GenerateQuery(a)), RenderQuery(GenerateQuery(b)));
  }
}

TEST(FuzzGeneratorTest, DifferentIndexesGiveDifferentQueries) {
  std::set<std::string> queries;
  for (uint64_t i = 0; i < 50; ++i) {
    Rng rng(DeriveSeed(123, i));
    queries.insert(RenderQuery(GenerateQuery(rng)));
  }
  // Grammar space is large; near-total distinctness is expected.
  EXPECT_GT(queries.size(), 45u);
}

TEST(FuzzGeneratorTest, DeriveSeedSeparatesNearbyInputs) {
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_NE(DeriveSeed(0, 0), 0u);
}

TEST(FuzzGeneratorTest, GeneratedQueriesParseAndRunOnOneDatabase) {
  engine::Database db;
  BORNSQL_ASSERT_OK(LoadFixture(&db));
  for (uint64_t i = 0; i < 50; ++i) {
    Rng rng(DeriveSeed(7, i));
    const std::string sql = RenderQuery(GenerateQuery(rng));
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
  }
}

TEST(FuzzConfigTest, MatrixCoversStrategiesAndRules) {
  const std::vector<FuzzConfig> configs = AllConfigs();
  EXPECT_EQ(configs.size(), 30u);
  EXPECT_EQ(configs[0].name, "hash/all_on");  // the baseline
  std::set<std::string> names;
  for (const FuzzConfig& c : configs) names.insert(c.name);
  EXPECT_EQ(names.size(), configs.size());
  EXPECT_EQ(names.count("nestedloop/off_filter_reorder"), 1u);
  EXPECT_EQ(names.count("sortmerge/inline_ctes"), 1u);
  EXPECT_EQ(names.count("hash/all_off"), 1u);
  EXPECT_EQ(names.count("hash/vector1"), 1u);
  // The vector1 scalar-compat lanes survive a chunk-size override; every
  // other lane takes the overridden size.
  const std::vector<FuzzConfig> swept = AllConfigs(3);
  EXPECT_EQ(swept.size(), 30u);
  for (const FuzzConfig& c : swept) {
    const bool is_vec1 = c.name.find("/vector1") != std::string::npos;
    EXPECT_EQ(c.config.vector_size, is_vec1 ? 1u : 3u) << c.name;
  }
  // --verify-chunks arms the chunk verifier in every lane.
  for (const FuzzConfig& c : AllConfigs(0, /*verify_chunks=*/true)) {
    EXPECT_TRUE(c.config.verify_chunks) << c.name;
  }
}

TEST(FuzzShrinkTest, ShrinksToAMinimalFailingSpec) {
  // Fake oracle: the query "fails" whenever its WHERE clause still
  // mentions t0.b. Everything else must be stripped.
  QuerySpec spec;
  spec.cte_sqls.push_back("c0 AS (SELECT 1 AS s0)");
  spec.distinct = true;
  spec.select_items = {"t0.a AS c0", "t0.b AS c1"};
  spec.from.push_back({"docs t0", "t0", false, ""});
  spec.where = {"t0.a > 1", "t0.b < 5", "t0.c = 2"};
  spec.having = "";
  spec.order_by = {"1"};

  auto still_fails = [](const QuerySpec& q) {
    for (const std::string& w : q.where) {
      if (w.find("t0.b") != std::string::npos) return true;
    }
    return false;
  };
  const QuerySpec shrunk = Shrink(spec, still_fails);
  EXPECT_EQ(shrunk.where, (std::vector<std::string>{"t0.b < 5"}));
  EXPECT_TRUE(shrunk.order_by.empty());
  EXPECT_FALSE(shrunk.distinct);
  EXPECT_TRUE(shrunk.cte_sqls.empty());
  EXPECT_EQ(shrunk.select_items.size(), 1u);
}

TEST(FuzzShrinkTest, NeverAcceptsAPassingReduction) {
  QuerySpec spec;
  spec.select_items = {"t0.a AS c0"};
  spec.from.push_back({"docs t0", "t0", false, ""});
  spec.where = {"t0.a > 1", "t0.b < 5"};
  // Oracle: fails only with BOTH conjuncts present.
  auto still_fails = [](const QuerySpec& q) { return q.where.size() >= 2; };
  const QuerySpec shrunk = Shrink(spec, still_fails);
  EXPECT_EQ(shrunk.where.size(), 2u);
}

// ---- BindsTo agrees with BindExpr ---------------------------------------
//
// BindsTo is the allocation-free probe the planner uses for predicate
// placement; it must accept exactly the expressions BindExpr binds.

void CollectSelectExprs(const sql::SelectStmt& stmt,
                        std::vector<const sql::Expr*>* out);

// Every subtree of `e`, subquery bodies included.
void CollectExprs(const sql::Expr& e, std::vector<const sql::Expr*>* out) {
  out->push_back(&e);
  if (e.left) CollectExprs(*e.left, out);
  if (e.right) CollectExprs(*e.right, out);
  for (const auto& a : e.args) CollectExprs(*a, out);
  for (const auto& p : e.partition_by) CollectExprs(*p, out);
  for (const auto& [oe, desc] : e.window_order_by) CollectExprs(*oe, out);
  for (const auto& [w, t] : e.when_clauses) {
    CollectExprs(*w, out);
    CollectExprs(*t, out);
  }
  if (e.else_clause) CollectExprs(*e.else_clause, out);
  if (e.subquery) CollectSelectExprs(*e.subquery, out);
}

void CollectSelectExprs(const sql::SelectStmt& stmt,
                        std::vector<const sql::Expr*>* out) {
  for (const sql::CommonTableExpr& cte : stmt.ctes) {
    CollectSelectExprs(*cte.select, out);
  }
  for (const sql::SelectCore& core : stmt.cores) {
    for (const sql::SelectItem& item : core.items) {
      if (item.expr) CollectExprs(*item.expr, out);
    }
    for (const sql::TableRef& ref : core.from) {
      if (ref.subquery) CollectSelectExprs(*ref.subquery, out);
      if (ref.join_condition) CollectExprs(*ref.join_condition, out);
    }
    if (core.where) CollectExprs(*core.where, out);
    for (const auto& g : core.group_by) CollectExprs(*g, out);
    if (core.having) CollectExprs(*core.having, out);
  }
  for (const sql::OrderItem& o : stmt.order_by) CollectExprs(*o.expr, out);
}

// Scopes the generated expressions resolve in, and fail to: each fixture
// table under the generator's aliases and its own name, joined pairs, a
// self-join that makes every unqualified name ambiguous, and the empty
// scope of a constant.
std::vector<Schema> FixtureSchemas(engine::Database* db) {
  const char* tables[] = {"docs", "tokens", "vocab", "weights"};
  std::vector<Schema> bases;
  std::vector<Schema> out = {Schema()};
  for (const char* table : tables) {
    auto t = db->catalog().GetTable(table);
    EXPECT_TRUE(t.ok()) << table;
    if (!t.ok()) continue;
    const Schema& schema = (*t)->schema();
    for (const char* alias : {"t0", "t1", "t2", "b", table}) {
      out.push_back(schema.WithQualifier(alias));
    }
    bases.push_back(schema.WithQualifier("t0"));
    out.push_back(Schema::Concat(schema.WithQualifier("t0"),
                                 schema.WithQualifier("t1")));
    out.push_back(Schema::Concat(schema.WithQualifier("t0"),
                                 schema.WithQualifier("t0")));
  }
  for (size_t i = 0; i + 1 < bases.size(); ++i) {
    Schema right;
    for (const Column& c : bases[i + 1].columns()) {
      right.Add(Column{"t1", c.name, c.type});
    }
    out.push_back(Schema::Concat(bases[i], right));
  }
  return out;
}

// Checks BindsTo == BindExpr(...).ok() for `e` against every schema;
// returns the number of disagreements and describes the first.
size_t CountDisagreements(const sql::Expr& e,
                          const std::vector<Schema>& schemas,
                          std::string* first) {
  size_t bad = 0;
  for (const Schema& schema : schemas) {
    const bool probe = engine::BindsTo(e, schema);
    const auto bound = engine::BindExpr(e, schema);
    if (probe == bound.ok()) continue;
    if (bad++ == 0 && first != nullptr) {
      *first = "BindsTo=" + std::to_string(probe) + " but BindExpr says " +
               bound.status().ToString() + " against columns [";
      for (const Column& c : schema.columns()) {
        *first += c.qualifier + "." + c.name + " ";
      }
      *first += "]";
    }
  }
  return bad;
}

TEST(BindsToTest, AgreesWithBindExprOnGeneratedExpressions) {
  engine::Database db;
  BORNSQL_ASSERT_OK(LoadFixture(&db));
  const std::vector<Schema> schemas = FixtureSchemas(&db);
  size_t expressions = 0;
  size_t accepted = 0;
  for (uint64_t i = 0; expressions < 12000; ++i) {
    ASSERT_LT(i, 5000u) << "generator yields too few expressions";
    Rng rng(DeriveSeed(20260806, i));
    const std::string sql = RenderQuery(GenerateQuery(rng));
    auto stmt = sql::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\n" << sql;
    ASSERT_NE(stmt->select, nullptr);
    std::vector<const sql::Expr*> exprs;
    CollectSelectExprs(*stmt->select, &exprs);
    for (const sql::Expr* e : exprs) {
      std::string first;
      ASSERT_EQ(CountDisagreements(*e, schemas, &first), 0u)
          << first << "\nin query " << i << ": " << sql;
      for (const Schema& schema : schemas) {
        accepted += engine::BindsTo(*e, schema);
      }
    }
    expressions += exprs.size();
  }
  // Both outcomes must be well represented for the agreement to mean
  // anything.
  const size_t probes = expressions * schemas.size();
  EXPECT_GT(accepted, probes / 10);
  EXPECT_LT(accepted, probes - probes / 10);
}

TEST(BindsToTest, AgreesWithBindExprOnHandWrittenCases) {
  engine::Database db;
  BORNSQL_ASSERT_OK(LoadFixture(&db));
  auto docs = db.catalog().GetTable("docs");
  auto tokens = db.catalog().GetTable("tokens");
  ASSERT_TRUE(docs.ok() && tokens.ok());
  // docs d, tokens t: doc_id is in both, so unqualified it is ambiguous.
  const Schema joined = Schema::Concat((*docs)->schema().WithQualifier("d"),
                                       (*tokens)->schema().WithQualifier("t"));
  const struct {
    const char* expr;
    bool binds;
  } cases[] = {
      {"d.doc_id", true},
      {"D.DOC_ID + T.tf", true},  // case-insensitive qualifier and name
      {"doc_id", false},          // ambiguous
      {"t.doc_id = d.doc_id", true},
      {"x.doc_id", false},  // unknown qualifier
      {"d.term_id", false},  // column of the other side
      {"term_id * 2", true},
      {"nosuch", false},
      {"SUM(tf)", false},    // aggregate
      {"count(*)", false},
      {"abs(*)", false},     // star outside COUNT(*)
      {"ROW_NUMBER() OVER (ORDER BY tf)", false},  // window
      {"(SELECT 1)", false},                       // scalar subquery
      {"tf IN (SELECT term_id FROM vocab)", false},
      {"EXISTS (SELECT 1)", false},
      {"nosuchfn(tf)", false},  // unknown function
      {"pow(tf)", false},       // wrong arity
      {"round(tf, 1, 2)", false},
      {"round(tf)", true},
      {"coalesce(tf, term_id, 0, 1)", true},
      {"lower(label)", true},
      {"CASE WHEN tf > 1 THEN label ELSE 0 END", true},
      {"CASE WHEN tf > 1 THEN label ELSE nosuch END", false},
      {"CASE WHEN tf > 1 THEN SUM(tf) END", false},
      {"tf IN (1, 2, 3)", true},
      {"tf IN (1, nosuch)", false},
      {"tf NOT IN (1, 2)", true},
      {"label IS NOT NULL", true},
      {"doc_id IS NULL", false},
      {"NOT (tf = 1) AND score > 0.5", true},
      {"-tf || 'x'", true},
      {"tf BETWEEN 1 AND term_id", true},
      {"name LIKE 'a%'", false},
      {"CAST(tf AS DOUBLE)", true},
      {"42", true},
      {"NULL", true},
  };
  const Schema empty;
  for (const auto& c : cases) {
    auto e = sql::ParseExpression(c.expr);
    ASSERT_TRUE(e.ok()) << c.expr << ": " << e.status().ToString();
    EXPECT_EQ(engine::BindsTo(**e, joined), c.binds) << c.expr;
    for (const Schema* schema : {&joined, &empty}) {
      std::string first;
      EXPECT_EQ(CountDisagreements(**e, {*schema}, &first), 0u)
          << c.expr << ": " << first;
    }
  }
}

// The regression bar: a fixed-seed batch through the full differential
// matrix. Any optimizer or join-strategy miscompilation that this grammar
// can express fails here with a shrunk counterexample in the message.
TEST(FuzzDifferentialTest, FixedSeedBatchHasNoDivergence) {
  RunOptions opts;
  opts.seed = 20260806;
  opts.queries = 200;
  const RunReport report = RunDifferential(opts);
  EXPECT_EQ(report.executed, 200u);
  EXPECT_FALSE(report.diverged)
      << "query " << report.divergent_index << ":\n"
      << report.divergent_query << "\n"
      << report.detail;
}

// The same fixed-seed batch with the execution-contract chunk verifier
// (BSV020-025) armed in all 30 lanes across the three join strategies.
// A contract violation fails the query only in the lanes whose operators
// break it, which surfaces as a status divergence with the BSVnnn code in
// the detail — so this batch is a dynamic proof that every operator of
// every strategy honors the chunk contract on real query shapes.
TEST(FuzzDifferentialTest, FixedSeedBatchCleanUnderChunkVerifier) {
  RunOptions opts;
  opts.seed = 20260806;
  opts.queries = 200;
  opts.verify_chunks = true;
  const RunReport report = RunDifferential(opts);
  EXPECT_EQ(report.executed, 200u);
  EXPECT_FALSE(report.diverged)
      << "query " << report.divergent_index << ":\n"
      << report.divergent_query << "\n"
      << report.detail;
}

}  // namespace
}  // namespace bornsql::fuzz
