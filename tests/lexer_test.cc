#include "sql/lexer.h"

#include <gtest/gtest.h>

namespace bornsql::sql {
namespace {

std::vector<Token> MustLex(std::string_view s) {
  auto r = Lex(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : std::vector<Token>{};
}

TEST(LexerTest, EmptyInputIsJustEof) {
  auto tokens = MustLex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEof);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = MustLex("select SeLeCt SELECT");
  ASSERT_EQ(tokens.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kKeyword);
    EXPECT_EQ(tokens[i].text, "SELECT");
  }
}

TEST(LexerTest, IdentifiersKeepSpelling) {
  auto tokens = MustLex("X_nj pubName");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "X_nj");
  EXPECT_EQ(tokens[1].text, "pubName");
}

TEST(LexerTest, FunctionNamesAreNotKeywords) {
  // POW/SUM/ROW_NUMBER must stay identifiers so they can be column names.
  auto tokens = MustLex("sum pow row_number count");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kIdentifier) << i;
  }
}

TEST(LexerTest, IntAndDoubleLiterals) {
  auto tokens = MustLex("42 1.5 2e3 7.25e-1 .5");
  EXPECT_EQ(tokens[0].type, TokenType::kIntLiteral);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 1.5);
  EXPECT_EQ(tokens[2].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 2000.0);
  EXPECT_DOUBLE_EQ(tokens[3].double_value, 0.725);
  EXPECT_DOUBLE_EQ(tokens[4].double_value, 0.5);
}

TEST(LexerTest, StringLiteralWithEscapedQuote) {
  auto tokens = MustLex("'it''s'");
  ASSERT_EQ(tokens[0].type, TokenType::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, QuotedIdentifier) {
  auto tokens = MustLex("\"weird name\"");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "weird name");
}

TEST(LexerTest, Operators) {
  auto tokens = MustLex("<> != <= >= || = < > + - * / %");
  EXPECT_EQ(tokens[0].type, TokenType::kNotEq);
  EXPECT_EQ(tokens[1].type, TokenType::kNotEq);
  EXPECT_EQ(tokens[2].type, TokenType::kLtEq);
  EXPECT_EQ(tokens[3].type, TokenType::kGtEq);
  EXPECT_EQ(tokens[4].type, TokenType::kConcat);
  EXPECT_EQ(tokens[5].type, TokenType::kEq);
  EXPECT_EQ(tokens[6].type, TokenType::kLt);
  EXPECT_EQ(tokens[7].type, TokenType::kGt);
  EXPECT_EQ(tokens[8].type, TokenType::kPlus);
  EXPECT_EQ(tokens[9].type, TokenType::kMinus);
  EXPECT_EQ(tokens[10].type, TokenType::kStar);
  EXPECT_EQ(tokens[11].type, TokenType::kSlash);
  EXPECT_EQ(tokens[12].type, TokenType::kPercent);
}

TEST(LexerTest, LineAndBlockComments) {
  auto tokens = MustLex("1 -- comment to end\n2 /* block\nspanning */ 3");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].int_value, 1);
  EXPECT_EQ(tokens[1].int_value, 2);
  EXPECT_EQ(tokens[2].int_value, 3);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("'abc").ok());
}

TEST(LexerTest, UnterminatedBlockCommentFails) {
  EXPECT_FALSE(Lex("/* open").ok());
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_FALSE(Lex("SELECT @x").ok());
}

TEST(LexerTest, OffsetsTrackSource) {
  auto tokens = MustLex("a  bb");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 3u);
}

TEST(LexerTest, MixedCaseKeywordsLexToCanonicalText) {
  auto tokens = MustLex("sElEcT Distinct partition TEMPORARY analyze oN");
  const char* expected[] = {"SELECT",    "DISTINCT", "PARTITION",
                            "TEMPORARY", "ANALYZE",  "ON"};
  ASSERT_EQ(tokens.size(), 7u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kKeyword) << i;
    EXPECT_EQ(tokens[i].text, expected[i]) << i;
  }
  for (const char* word : expected) EXPECT_TRUE(IsKeyword(word)) << word;
}

TEST(LexerTest, KeywordLookalikesStayIdentifiers) {
  // Keyword prefixes and extensions, words with '_' or digits, words longer
  // than any keyword, and a quoted keyword all keep their spelling.
  auto tokens = MustLex(
      "selected order_id indexes PARTITIONS \"select\" as1 _on temporarys");
  const char* expected[] = {"selected", "order_id", "indexes", "PARTITIONS",
                            "select",   "as1",      "_on",     "temporarys"};
  ASSERT_EQ(tokens.size(), 9u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kIdentifier) << i;
    EXPECT_EQ(tokens[i].text, expected[i]) << i;
  }
  for (const char* word : {"", "S", "selected", "sel ect", "s\xc3\xa9lect"}) {
    EXPECT_FALSE(IsKeyword(word)) << word;
  }
}

TEST(LexerTest, LineAndColumnTrackSource) {
  auto tokens = MustLex("SELECT a,\n  'x''y' -- note\n\tFROM t /* c\n */ 12");
  struct Where {
    size_t line, column;
  };
  const Where expected[] = {{1, 1}, {1, 8}, {1, 9}, {2, 3},
                            {3, 2}, {3, 7}, {4, 5}, {4, 7}};
  ASSERT_EQ(tokens.size(), 8u);
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].line, expected[i].line) << i;
    EXPECT_EQ(tokens[i].column, expected[i].column) << i;
  }
  EXPECT_EQ(tokens[3].text, "x'y");
  EXPECT_EQ(tokens[6].int_value, 12);
}

}  // namespace
}  // namespace bornsql::sql
