/**
 * @file
 * Plumbing shared by the command-line tools (april, april-mc):
 * --name=value option parsing, file slurping, report-file writing
 * with the "wrote X" confirmation, and the check mode's
 * schema-plus-invariants validation loop.
 */

#ifndef APRIL_TOOLS_CLI_COMMON_HH
#define APRIL_TOOLS_CLI_COMMON_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/json_parse.hh"
#include "common/parse_int.hh"

namespace april::cli
{

/** Value of a "--name=" option: the text after @p prefix when @p arg
 *  starts with it, nullptr otherwise (so `if (const char *v = ...)`
 *  chains read like april-mc's parser). */
const char *optValue(const std::string &arg, const char *prefix);

/** Slurp @p path; fatal("<tool>: cannot open <path>") on failure. */
std::string readFile(const char *tool, const std::string &path);

/** When @p path is non-empty: open it, run @p writer on the stream,
 *  print "wrote <path>"; fatal when it cannot be opened or written. */
void writeReportFile(const char *tool, const std::string &path,
                     const std::function<void(std::ostream &)> &writer);

/** Extra invariant pass run by checkReport after schema validation;
 *  append human-readable violations to the error list. */
using ExtraCheck =
    std::function<void(const json::Json &, std::vector<std::string> &)>;

/**
 * A tool's check mode: parse @p file and @p schema_path, validate
 * the report against the schema subset, run @p extra (may be null),
 * then print "<file>: ok (<what>)" or every violation to stderr.
 * @return process exit code: 0 ok, 1 violation.
 */
int checkReport(const char *tool, const std::string &file,
                const std::string &schema_path, const char *what,
                const ExtraCheck &extra);

} // namespace april::cli

#endif // APRIL_TOOLS_CLI_COMMON_HH
