#include "sql/parser.h"

#include <gtest/gtest.h>

#include "sql/lexer.h"

namespace bornsql::sql {
namespace {

Statement MustParse(std::string_view s) {
  auto r = ParseStatement(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nsql: " << s;
  return r.ok() ? std::move(r).value() : Statement{};
}

TEST(ParserTest, SimpleSelect) {
  Statement st = MustParse("SELECT a, b FROM t WHERE a = 1");
  ASSERT_EQ(st.kind, StatementKind::kSelect);
  const SelectCore& core = st.select->cores[0];
  EXPECT_EQ(core.items.size(), 2u);
  EXPECT_EQ(core.items[0].expr->column, "a");
  ASSERT_EQ(core.from.size(), 1u);
  EXPECT_EQ(core.from[0].table_name, "t");
  ASSERT_NE(core.where, nullptr);
  EXPECT_EQ(core.where->binary_op, BinaryOp::kEq);
}

TEST(ParserTest, SelectStarAndQualifiedStar) {
  Statement st = MustParse("SELECT *, t.* FROM t");
  const SelectCore& core = st.select->cores[0];
  EXPECT_TRUE(core.items[0].is_star);
  EXPECT_TRUE(core.items[1].is_star);
  EXPECT_EQ(core.items[1].star_qualifier, "t");
}

TEST(ParserTest, AliasWithAndWithoutAs) {
  Statement st = MustParse("SELECT a AS x, b y FROM t");
  const SelectCore& core = st.select->cores[0];
  EXPECT_EQ(core.items[0].alias, "x");
  EXPECT_EQ(core.items[1].alias, "y");
}

TEST(ParserTest, OperatorPrecedence) {
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  // Must parse as 1 + (2 * 3).
  EXPECT_EQ((*e)->binary_op, BinaryOp::kAdd);
  EXPECT_EQ((*e)->right->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, ComparisonBindsLooserThanArithmetic) {
  auto e = ParseExpression("a + 1 < b * 2");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->binary_op, BinaryOp::kLt);
}

TEST(ParserTest, AndOrPrecedence) {
  auto e = ParseExpression("a OR b AND c");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->binary_op, BinaryOp::kOr);
  EXPECT_EQ((*e)->right->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, ConcatOperator) {
  auto e = ParseExpression("'pubname:' || pubname");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->binary_op, BinaryOp::kConcat);
}

TEST(ParserTest, FunctionCall) {
  auto e = ParseExpression("POW(x, 2)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kFunctionCall);
  EXPECT_EQ((*e)->func_name, "POW");
  EXPECT_EQ((*e)->args.size(), 2u);
}

TEST(ParserTest, CountStar) {
  auto e = ParseExpression("COUNT(*)");
  ASSERT_TRUE(e.ok());
  ASSERT_EQ((*e)->args.size(), 1u);
  EXPECT_EQ((*e)->args[0]->kind, ExprKind::kStar);
}

TEST(ParserTest, WindowFunction) {
  Statement st = MustParse(
      "SELECT n, ROW_NUMBER() OVER(PARTITION BY n ORDER BY w DESC) AS r "
      "FROM HWX_nk");
  const auto& item = st.select->cores[0].items[1];
  EXPECT_EQ(item.expr->kind, ExprKind::kWindow);
  EXPECT_EQ(item.expr->partition_by.size(), 1u);
  ASSERT_EQ(item.expr->window_order_by.size(), 1u);
  EXPECT_TRUE(item.expr->window_order_by[0].second);  // DESC
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  Statement st = MustParse(
      "SELECT n, SUM(w) AS w FROM t GROUP BY n HAVING SUM(w) > 0 "
      "ORDER BY w DESC LIMIT 10 OFFSET 5");
  const SelectCore& core = st.select->cores[0];
  EXPECT_EQ(core.group_by.size(), 1u);
  ASSERT_NE(core.having, nullptr);
  EXPECT_EQ(st.select->order_by.size(), 1u);
  EXPECT_TRUE(st.select->order_by[0].desc);
  ASSERT_NE(st.select->limit, nullptr);
  ASSERT_NE(st.select->offset, nullptr);
}

TEST(ParserTest, CommaJoinList) {
  Statement st = MustParse("SELECT 1 FROM a, b, c WHERE a.x = b.x");
  EXPECT_EQ(st.select->cores[0].from.size(), 3u);
  EXPECT_EQ(st.select->cores[0].from[1].join_kind, TableRef::JoinKind::kComma);
}

TEST(ParserTest, ExplicitJoins) {
  Statement st = MustParse(
      "SELECT 1 FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y "
      "CROSS JOIN d");
  const auto& from = st.select->cores[0].from;
  ASSERT_EQ(from.size(), 4u);
  EXPECT_EQ(from[1].join_kind, TableRef::JoinKind::kInner);
  EXPECT_EQ(from[2].join_kind, TableRef::JoinKind::kLeft);
  EXPECT_EQ(from[3].join_kind, TableRef::JoinKind::kCross);
  EXPECT_NE(from[1].join_condition, nullptr);
  EXPECT_EQ(from[3].join_condition, nullptr);
}

TEST(ParserTest, DerivedTableRequiresAlias) {
  EXPECT_FALSE(ParseStatement("SELECT 1 FROM (SELECT 1)").ok());
  EXPECT_TRUE(ParseStatement("SELECT 1 FROM (SELECT 1 AS x) AS s").ok());
}

TEST(ParserTest, WithCte) {
  Statement st = MustParse(
      "WITH a AS (SELECT 1 AS x), b AS (SELECT x FROM a) SELECT x FROM b");
  ASSERT_EQ(st.select->ctes.size(), 2u);
  EXPECT_EQ(st.select->ctes[0].name, "a");
  EXPECT_EQ(st.select->ctes[1].name, "b");
}

TEST(ParserTest, UnionAll) {
  Statement st = MustParse("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3");
  EXPECT_EQ(st.select->cores.size(), 3u);
}

TEST(ParserTest, PlainUnionRejected) {
  EXPECT_FALSE(ParseStatement("SELECT 1 UNION SELECT 2").ok());
}

TEST(ParserTest, CreateTable) {
  Statement st = MustParse(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, w REAL)");
  ASSERT_EQ(st.kind, StatementKind::kCreateTable);
  const CreateTableStmt& ct = *st.create_table;
  EXPECT_EQ(ct.table, "t");
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_TRUE(ct.columns[0].primary_key);
  EXPECT_EQ(ct.columns[0].type, ValueType::kInt);
  EXPECT_EQ(ct.columns[1].type, ValueType::kText);
  EXPECT_EQ(ct.columns[2].type, ValueType::kDouble);
}

TEST(ParserTest, CreateTableCompositeKey) {
  Statement st = MustParse(
      "CREATE TABLE corpus (j TEXT, k INTEGER, w REAL, PRIMARY KEY (j, k))");
  EXPECT_EQ(st.create_table->primary_key.size(), 2u);
}

TEST(ParserTest, CreateTableIfNotExistsAndAsSelect) {
  Statement st = MustParse("CREATE TABLE IF NOT EXISTS t AS SELECT 1 AS x");
  EXPECT_TRUE(st.create_table->if_not_exists);
  EXPECT_NE(st.create_table->as_select, nullptr);
}

TEST(ParserTest, DropTable) {
  Statement st = MustParse("DROP TABLE IF EXISTS t");
  EXPECT_TRUE(st.drop_table->if_exists);
}

TEST(ParserTest, InsertValues) {
  Statement st = MustParse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_EQ(st.kind, StatementKind::kInsert);
  EXPECT_EQ(st.insert->columns.size(), 2u);
  EXPECT_EQ(st.insert->values.size(), 2u);
}

TEST(ParserTest, InsertSelectWithOnConflict) {
  Statement st = MustParse(
      "INSERT INTO corpus (j, k, w) SELECT j, k, w FROM P_jk "
      "ON CONFLICT (j, k) DO UPDATE SET w = corpus.w + excluded.w");
  ASSERT_NE(st.insert->select, nullptr);
  ASSERT_NE(st.insert->on_conflict, nullptr);
  EXPECT_EQ(st.insert->on_conflict->target_columns.size(), 2u);
  ASSERT_EQ(st.insert->on_conflict->set_clauses.size(), 1u);
  EXPECT_EQ(st.insert->on_conflict->set_clauses[0].first, "w");
}

TEST(ParserTest, OnConflictDoNothing) {
  Statement st = MustParse(
      "INSERT INTO t (a) VALUES (1) ON CONFLICT (a) DO NOTHING");
  EXPECT_TRUE(st.insert->on_conflict->do_nothing);
}

TEST(ParserTest, UpdateAndDelete) {
  Statement st = MustParse("UPDATE params SET a = 0.5, b = 1 WHERE model = 'm'");
  ASSERT_EQ(st.kind, StatementKind::kUpdate);
  EXPECT_EQ(st.update->set_clauses.size(), 2u);
  Statement st2 = MustParse("DELETE FROM t WHERE id < 10");
  ASSERT_EQ(st2.kind, StatementKind::kDelete);
  EXPECT_NE(st2.del->where, nullptr);
}

TEST(ParserTest, CaseExpression) {
  auto e = ParseExpression(
      "CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kCase);
  EXPECT_EQ((*e)->when_clauses.size(), 2u);
  EXPECT_NE((*e)->else_clause, nullptr);
}

TEST(ParserTest, CaseWithOperandDesugars) {
  auto e = ParseExpression("CASE x WHEN 1 THEN 'a' END");
  ASSERT_TRUE(e.ok());
  // Desugared to (x = 1).
  EXPECT_EQ((*e)->when_clauses[0].first->binary_op, BinaryOp::kEq);
}

TEST(ParserTest, BetweenDesugarsToAnd) {
  auto e = ParseExpression("x BETWEEN 1 AND 5");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, InListAndIsNull) {
  auto e = ParseExpression("x IN (1, 2, 3)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kInList);
  auto e2 = ParseExpression("x IS NOT NULL");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e2)->kind, ExprKind::kIsNull);
  EXPECT_TRUE((*e2)->negated);
}

TEST(ParserTest, CastLowersToFunction) {
  auto e = ParseExpression("CAST(x AS INTEGER)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kFunctionCall);
  EXPECT_EQ((*e)->func_name, "cast");
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto r = ParseScript("SELECT 1; SELECT 2;; SELECT 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

TEST(ParserTest, ScriptParsesFromLexedTokens) {
  auto tokens = Lex("CREATE TABLE t (a INTEGER); DROP TABLE t;");
  ASSERT_TRUE(tokens.ok());
  auto r = ParseScriptTokens(std::move(tokens).value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].kind, StatementKind::kCreateTable);
  EXPECT_EQ((*r)[1].kind, StatementKind::kDropTable);
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(ParseStatement("SELECT 1 FROM t blah blah").ok());
}

TEST(ParserTest, PaperQueriesParse) {
  // Every listing from the paper's Section 3 must parse.
  const char* queries[] = {
      // (16) XY_njk
      "SELECT X_nj.n AS n, X_nj.j AS j, Y_nk.k AS k, X_nj.w * Y_nk.w AS w "
      "FROM X_nj, Y_nk WHERE X_nj.n = Y_nk.n",
      // (17) XY_n
      "SELECT n, SUM(w) AS w FROM XY_njk GROUP BY n",
      // (18) P_jk
      "SELECT XY_njk.j AS j, XY_njk.k AS k, "
      "SUM(W_n.w * XY_njk.w / XY_n.w) AS w FROM XY_njk, XY_n, W_n "
      "WHERE XY_njk.n = XY_n.n AND XY_njk.n = W_n.n "
      "GROUP BY XY_njk.j, XY_njk.k",
      // corpus upsert
      "INSERT INTO model_corpus (j, k, w) SELECT j, k, w FROM P_jk "
      "ON CONFLICT (j, k) DO UPDATE SET w = model_corpus.w + excluded.w",
      // (19) ABH
      "SELECT a, b, h FROM params WHERE model = 'model'",
      // (22) W_jk
      "SELECT P_jk.j AS j, P_jk.k AS k, "
      "P_jk.w / (POW(P_k.w, b) * POW(P_j.w, 1 - b)) AS w "
      "FROM P_jk, P_j, P_k, ABH WHERE P_jk.j = P_j.j AND P_jk.k = P_k.k",
      // argmax via ROW_NUMBER
      "SELECT R_nk.n, R_nk.k FROM (SELECT n, k, ROW_NUMBER() OVER("
      "PARTITION BY n ORDER BY w DESC) AS r FROM HWX_nk) AS R_nk "
      "WHERE r = 1",
      // preprocessing q_x with prefixes
      "SELECT id as n, 'pubname:'||pubname as j, 1.0 as w FROM publication",
      // subsampling
      "SELECT id as n FROM publication WHERE id % 10 <= 0",
  };
  for (const char* q : queries) {
    EXPECT_TRUE(ParseStatement(q).ok()) << q;
  }
}

}  // namespace
}  // namespace bornsql::sql
