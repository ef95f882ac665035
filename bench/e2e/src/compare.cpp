#include "compare.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace hima::e2e {
namespace {

/** A parsed JSON value (just enough of JSON for the result files). */
struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object; ///< in file order

    const Json *
    find(const std::string &key) const
    {
        for (const auto &[name, value] : object)
            if (name == key)
                return &value;
        return nullptr;
    }

    double
    numberAt(const std::string &key) const
    {
        const Json *v = find(key);
        return v && v->kind == Kind::Number ? v->number : std::nan("");
    }

    std::string
    stringAt(const std::string &key) const
    {
        const Json *v = find(key);
        return v && v->kind == Kind::String ? v->string : std::string();
    }
};

/** Recursive-descent parser; any syntax error makes ok() false. */
class Parser
{
  public:
    explicit Parser(std::string text) : s_(std::move(text)) {}

    Json
    parse()
    {
        Json value = parseValue();
        skipSpace();
        if (pos_ != s_.size())
            ok_ = false;
        return value;
    }

    bool ok() const { return ok_; }

  private:
    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    std::string
    parseString()
    {
        std::string out;
        if (!consume('"')) {
            ok_ = false;
            return out;
        }
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\' && pos_ < s_.size()) {
                const char e = s_[pos_++];
                c = e == 'n' ? '\n' : e == 't' ? '\t' : e;
            }
            out += c;
        }
        if (pos_ >= s_.size())
            ok_ = false;
        ++pos_;
        return out;
    }

    Json
    parseValue()
    {
        Json v;
        skipSpace();
        if (!ok_ || pos_ >= s_.size()) {
            ok_ = false;
            return v;
        }
        const char c = s_[pos_];
        if (c == '{') {
            v.kind = Json::Kind::Object;
            ++pos_;
            if (consume('}'))
                return v;
            do {
                std::string key = parseString();
                if (!consume(':')) {
                    ok_ = false;
                    return v;
                }
                v.object.emplace_back(std::move(key), parseValue());
            } while (ok_ && consume(','));
            if (!consume('}'))
                ok_ = false;
        } else if (c == '[') {
            v.kind = Json::Kind::Array;
            ++pos_;
            if (consume(']'))
                return v;
            do {
                v.array.push_back(parseValue());
            } while (ok_ && consume(','));
            if (!consume(']'))
                ok_ = false;
        } else if (c == '"') {
            v.kind = Json::Kind::String;
            v.string = parseString();
        } else if (literal("true") || literal("false")) {
            v.kind = Json::Kind::Bool;
            v.boolean = c == 't';
        } else if (literal("null")) {
            v.kind = Json::Kind::Null;
        } else {
            const char *begin = s_.c_str() + pos_;
            char *end = nullptr;
            v.kind = Json::Kind::Number;
            v.number = std::strtod(begin, &end);
            if (end == begin)
                ok_ = false;
            pos_ += static_cast<std::size_t>(end - begin);
        }
        return v;
    }

    std::string s_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

bool
loadJson(const std::string &path, Json &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "hima_e2e: cannot read %s\n", path.c_str());
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    Parser parser(text.str());
    out = parser.parse();
    if (!parser.ok() || !out.find("workloads")) {
        std::fprintf(stderr, "hima_e2e: %s is not an aggregate result file\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace

int
compareFiles(const std::string &basePath, const std::string &newPath)
{
    Json base;
    Json next;
    if (!loadJson(basePath, base) || !loadJson(newPath, next))
        return 2;
    std::printf("base %s (git %s)  vs  new %s (git %s)\n", basePath.c_str(),
                base.stringAt("git_sha").c_str(), newPath.c_str(),
                next.stringAt("git_sha").c_str());
    std::printf("%-16s %-22s %12s %7s %12s %7s %8s %6s  %-10s %s\n",
                "workload", "metric", "base", "iqr", "new", "iqr", "delta",
                "bound", "verdict", "steal base/new");
    int worse = 0;
    for (const auto &[workload, b] : base.find("workloads")->object) {
        const Json *n = next.find("workloads")->find(workload);
        const Json *bMetrics = b.find("end_to_end");
        const Json *nMetrics = n ? n->find("end_to_end") : nullptr;
        if (!bMetrics || !nMetrics) {
            std::printf("%-16s (missing from one side)\n", workload.c_str());
            continue;
        }
        const double bSteal = b.numberAt("steal_share_median");
        const double nSteal = n->numberAt("steal_share_median");
        for (const auto &[metric, bm] : bMetrics->object) {
            const Json *nm = nMetrics->find(metric);
            if (!nm)
                continue;
            const double bMed = bm.numberAt("median");
            const double nMed = nm->numberAt("median");
            const double bIqr = bm.numberAt("iqr_share");
            const double nIqr = nm->numberAt("iqr_share");
            const double bound = bm.numberAt("bound");
            const bool lowerBetter = bm.stringAt("better") != "higher";
            const double delta = bMed != 0.0 ? (nMed - bMed) / bMed : 0.0;
            const double regress = lowerBetter ? delta : -delta;
            const char *verdict = "same";
            if (!(bIqr <= bound && nIqr <= bound)) {
                verdict = "unresolved";
            } else if (regress > bound) {
                verdict = "worse";
                ++worse;
            } else if (-regress > bound) {
                verdict = "better";
            }
            std::printf("%-16s %-22s %12.4g %6.1f%% %12.4g %6.1f%% %+7.1f%% "
                        "%5.0f%%  %-10s %.3f/%.3f\n",
                        workload.c_str(), metric.c_str(), bMed, 100.0 * bIqr,
                        nMed, 100.0 * nIqr, 100.0 * delta, 100.0 * bound,
                        verdict, bSteal, nSteal);
        }
    }
    if (worse > 0)
        std::printf("%d metric(s) regressed past their bound\n", worse);
    return worse > 0 ? 1 : 0;
}

} // namespace hima::e2e
