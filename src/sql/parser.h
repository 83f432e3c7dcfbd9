// Recursive-descent parser for the BornSQL dialect.
#ifndef BORNSQL_SQL_PARSER_H_
#define BORNSQL_SQL_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace bornsql::sql {

// Parses a single statement (a trailing ';' is allowed).
Result<Statement> ParseStatement(std::string_view sql);

// Same, from an already-lexed token stream (must end with a kEof token).
// Lets callers that also need the raw tokens — e.g. for statement-text
// normalization — lex once instead of twice.
Result<Statement> ParseStatementTokens(std::vector<Token> tokens);

// Parses a ';'-separated script.
Result<std::vector<Statement>> ParseScript(std::string_view sql);

// Same, from an already-lexed token stream (must end with a kEof token).
Result<std::vector<Statement>> ParseScriptTokens(std::vector<Token> tokens);

// Parses just an expression (used by tests).
Result<ExprPtr> ParseExpression(std::string_view sql);

}  // namespace bornsql::sql

#endif  // BORNSQL_SQL_PARSER_H_
