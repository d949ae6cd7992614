// nf_lint engine: file discovery, fault-catalog parsing, rule dispatch,
// suppression filtering, and report output (lint.hpp, rules_internal.hpp).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "nf_lint/rules_internal.hpp"

namespace neurfill::lint {

namespace fs = std::filesystem;

namespace {

bool has_lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp";
}

/// Directories never scanned, wherever they appear: build trees and the
/// linter's own deliberately-violating test corpus.
bool skipped_directory(const std::string& name) {
  return name == "build" || name == "lint_fixtures" || name == ".git";
}

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string to_rel(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  return (ec || rel.empty() ? path : rel).generic_string();
}

void collect_files(const fs::path& p, const fs::path& root,
                   std::vector<fs::path>* out) {
  if (fs::is_directory(p)) {
    for (fs::recursive_directory_iterator it(p), end; it != end; ++it) {
      if (it->is_directory()) {
        if (skipped_directory(it->path().filename().string()))
          it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && has_lintable_extension(it->path()))
        out->push_back(it->path());
    }
    return;
  }
  if (fs::is_regular_file(p)) out->push_back(p);
  (void)root;
}

/// Parses the fault-site catalog: markdown-table rows (`| \`site\` | ...`)
/// between the heading containing "Fault-site catalog" and the next
/// heading.  Only the first backticked span of each row counts, and it must
/// look like a site name ([a-z0-9_.] with at least one '.') — the document
/// has other tables whose cells must not be mistaken for sites.
void parse_catalog(const fs::path& doc, Project* proj) {
  std::string text;
  if (!read_file(doc, &text)) return;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool in_section = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line[0] == '#') {
      in_section = line.find("Fault-site catalog") != std::string::npos;
      continue;
    }
    if (!in_section) continue;
    const std::size_t bar = line.find_first_not_of(" \t");
    if (bar == std::string::npos || line[bar] != '|') continue;
    const std::size_t open = line.find('`');
    if (open == std::string::npos) continue;
    const std::size_t close = line.find('`', open + 1);
    if (close == std::string::npos) continue;
    const std::string site = line.substr(open + 1, close - open - 1);
    if (site.find('.') == std::string::npos) continue;
    if (site.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_.") !=
        std::string::npos)
      continue;
    proj->catalog.push_back({site, lineno});
    proj->catalog_found = true;
  }
}

/// Parses "nf-lint: allow(rule1, rule2)" / "nf-lint: allow-file(rule)" out
/// of one comment body; appends the named rules to `rules`.  Returns true
/// when the comment held an annotation of the requested flavor.
bool parse_allow(const std::string& comment, const char* flavor,
                 std::vector<std::string>* rules) {
  const std::string marker = std::string("nf-lint:");
  std::size_t pos = comment.find(marker);
  if (pos == std::string::npos) return false;
  pos = comment.find_first_not_of(" \t", pos + marker.size());
  if (pos == std::string::npos) return false;
  const std::string kw(flavor);
  if (comment.compare(pos, kw.size(), kw) != 0) return false;
  std::size_t open = comment.find('(', pos + kw.size());
  if (open == std::string::npos) return false;
  // "allow(" must directly follow the keyword — keeps "allow-file" from
  // matching the "allow" flavor.
  if (comment.find_first_not_of(" \t", pos + kw.size()) != open) return false;
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return false;
  std::string list = comment.substr(open + 1, close - open - 1);
  std::string item;
  std::istringstream items(list);
  bool any = false;
  while (std::getline(items, item, ',')) {
    const std::size_t b = item.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const std::size_t e = item.find_last_not_of(" \t");
    rules->push_back(item.substr(b, e - b + 1));
    any = true;
  }
  return any;
}

/// Drops findings covered by suppression comments: same line as the
/// finding, the line directly above it, or an allow-file annotation.
void apply_suppressions(const Project& proj, std::vector<Finding>* findings) {
  struct FileSuppressions {
    std::set<std::string> file_wide;
    std::map<int, std::set<std::string>> by_line;  // suppressed line -> rules
  };
  std::map<std::string, FileSuppressions> per_file;
  for (const SourceFile& f : proj.files) {
    FileSuppressions sup;
    for (const Comment& c : f.comments) {
      std::vector<std::string> rules;
      if (parse_allow(c.text, "allow-file", &rules)) {
        sup.file_wide.insert(rules.begin(), rules.end());
        continue;
      }
      rules.clear();
      if (parse_allow(c.text, "allow", &rules)) {
        for (const std::string& r : rules) {
          sup.by_line[c.line].insert(r);          // trailing comment
          sup.by_line[c.end_line + 1].insert(r);  // comment-above style
        }
      }
    }
    if (!sup.file_wide.empty() || !sup.by_line.empty())
      per_file.emplace(f.rel_path, std::move(sup));
  }
  auto suppressed = [&](const Finding& fd) {
    auto it = per_file.find(fd.file);
    if (it == per_file.end()) return false;
    if (it->second.file_wide.count(fd.rule)) return true;
    auto line_it = it->second.by_line.find(fd.line);
    return line_it != it->second.by_line.end() &&
           line_it->second.count(fd.rule) > 0;
  };
  findings->erase(
      std::remove_if(findings->begin(), findings->end(), suppressed),
      findings->end());
}


}  // namespace

std::vector<RuleInfo> rule_infos() {
  std::vector<RuleInfo> infos;
  for (const RuleEntry& r : rule_table()) infos.push_back({r.name, r.description});
  return infos;
}

bool run_lint(const Options& options, Report* report, std::string* error) {
  report->findings.clear();
  report->files_scanned = 0;

  const fs::path root(options.root);
  if (!fs::is_directory(root)) {
    *error = "root '" + options.root + "' is not a directory";
    return false;
  }
  // Resolve the rule selection first so an unknown name is a usage error.
  std::vector<const RuleEntry*> selected;
  for (const RuleEntry& r : rule_table()) {
    if (options.rules.empty() ||
        std::find(options.rules.begin(), options.rules.end(), r.name) !=
            options.rules.end())
      selected.push_back(&r);
  }
  for (const std::string& name : options.rules) {
    bool known = false;
    for (const RuleEntry& r : rule_table()) known = known || name == r.name;
    if (!known) {
      *error = "unknown rule '" + name + "' (see --list-rules)";
      return false;
    }
  }

  Project proj;
  proj.root = options.root;
  proj.catalog_rel = options.catalog_path;
  proj.full_scan = options.paths.empty();
  std::vector<std::string> scan = options.paths;
  if (scan.empty()) scan = {"src", "tools", "tests"};

  std::vector<fs::path> paths;
  for (const std::string& p : scan) {
    fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    if (!fs::exists(abs)) {
      // The default directories are optional (a tree may have no tests/);
      // an explicitly requested path that is missing is a usage error.
      if (options.paths.empty()) continue;
      *error = "path '" + abs.string() + "' does not exist";
      return false;
    }
    collect_files(abs, root, &paths);
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  for (const fs::path& p : paths) {
    std::string text;
    if (!read_file(p, &text)) {
      *error = "cannot read '" + p.string() + "'";
      return false;
    }
    SourceFile sf;
    sf.rel_path = to_rel(p, root);
    sf.tokens = tokenize(text, &sf.comments);
    proj.files.push_back(std::move(sf));
  }
  report->files_scanned = proj.files.size();

  parse_catalog(root / options.catalog_path, &proj);

  for (const RuleEntry* r : selected) r->fn(proj, report->findings);
  apply_suppressions(proj, &report->findings);
  std::sort(report->findings.begin(), report->findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return true;
}

std::string report_to_json(const Report& report) {
  std::string out = "{\"files_scanned\":";
  out += std::to_string(report.files_scanned);
  out += ",\"count\":";
  out += std::to_string(report.findings.size());
  out += ",\"findings\":[";
  bool first = true;
  for (const Finding& f : report.findings) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":\"";
    out += json_escape(f.rule);
    out += "\",\"file\":\"";
    out += json_escape(f.file);
    out += "\",\"line\":";
    out += std::to_string(f.line);
    out += ",\"message\":\"";
    out += json_escape(f.message);
    out += "\"}";
  }
  out += "]}\n";
  return out;
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  std::string root = ".";
  std::string only;
  std::string rules_csv;
  std::string json_path;
  std::string catalog = "docs/robustness.md";
  bool list_rules = false;

  ArgParser parser(
      "nf_lint",
      "Project-invariant static analyzer: lints src/, tools/, and tests/ "
      "against the rules in docs/static_analysis.md.  Exit codes: 0 clean, "
      "1 findings, 2 usage error.");
  parser.add_string("--root", "DIR",
                    "project root to lint (default: current directory)",
                    &root);
  parser.add_string("--only", "PATHS",
                    "comma-separated files/dirs relative to the root "
                    "(default: src,tools,tests)",
                    &only);
  parser.add_string("--rule", "NAMES",
                    "comma-separated rule names to run (default: all)",
                    &rules_csv);
  parser.add_string("--json", "FILE",
                    "also write a machine-readable findings report", &json_path);
  parser.add_string("--catalog", "PATH",
                    "fault-site catalog document, relative to the root",
                    &catalog);
  parser.add_flag("--list-rules", "print the registered rules and exit",
                  &list_rules);

  switch (parser.parse(argc, argv, out, err)) {
    case ArgParser::Result::kHelp: return 0;
    case ArgParser::Result::kError: return 2;
    case ArgParser::Result::kOk: break;
  }
  if (list_rules) {
    for (const RuleInfo& r : rule_infos())
      out << r.name << "\n    " << r.description << "\n";
    return 0;
  }

  Options options;
  options.root = root;
  options.catalog_path = catalog;
  auto split_csv = [](const std::string& csv, std::vector<std::string>* dst) {
    std::istringstream in(csv);
    std::string item;
    while (std::getline(in, item, ','))
      if (!item.empty()) dst->push_back(item);
  };
  split_csv(only, &options.paths);
  split_csv(rules_csv, &options.rules);

  Report report;
  std::string error;
  if (!run_lint(options, &report, &error)) {
    err << "nf_lint: " << error << "\n";
    return 2;
  }
  if (!json_path.empty()) {
    std::ofstream js(json_path, std::ios::binary);
    js << report_to_json(report);
    if (!js) {
      err << "nf_lint: cannot write '" << json_path << "'\n";
      return 2;
    }
  }
  for (const Finding& f : report.findings)
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  if (report.findings.empty()) {
    out << "nf_lint: " << report.files_scanned << " files clean\n";
    return 0;
  }
  out << "nf_lint: " << report.findings.size() << " finding(s) in "
      << report.files_scanned << " files\n";
  return 1;
}

}  // namespace neurfill::lint
