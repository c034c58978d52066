#include "cli_common.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/json_schema.hh"
#include "common/logging.hh"

namespace april::cli
{

const char *
optValue(const std::string &arg, const char *prefix)
{
    size_t n = std::strlen(prefix);
    return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
}

std::string
readFile(const char *tool, const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal(tool, ": cannot open ", path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
writeReportFile(const char *tool, const std::string &path,
                const std::function<void(std::ostream &)> &writer)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        fatal(tool, ": cannot write ", path);
    writer(os);
    if (!os.flush())
        fatal(tool, ": cannot write ", path);
    std::printf("wrote %s\n", path.c_str());
}

int
checkReport(const char *tool, const std::string &file,
            const std::string &schema_path, const char *what,
            const ExtraCheck &extra)
{
    json::Json report = json::parseJson(readFile(tool, file));
    json::Json schema = json::parseJson(readFile(tool, schema_path));
    std::vector<std::string> errors;
    json::validateSchema(report, schema, "", errors);
    if (extra)
        extra(report, errors);
    if (errors.empty()) {
        std::printf("%s: ok (%s)\n", file.c_str(), what);
        return 0;
    }
    for (const std::string &e : errors)
        std::fprintf(stderr, "%s: %s\n", file.c_str(), e.c_str());
    return 1;
}

} // namespace april::cli
