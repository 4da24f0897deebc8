#include "design/io_xml.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/status.hpp"
#include "util/strings.hpp"
#include "xml/xml.hpp"

namespace prpart {

namespace {

const std::string& attr_or_empty(const xml::Element& e, std::string_view key) {
  static const std::string kEmpty;
  const std::string* v = e.find_attr(key);
  return v ? *v : kEmpty;
}

/// The clbs/brams/dsps attributes of `e`, 0 when absent. A value that is
/// not a 32-bit count reads as 0 and adds a bad-attribute problem. `module`
/// names the module of a <mode> and is null for <static>.
ResourceVec read_resources(const xml::Element& e, const std::string* module,
                           std::vector<DesignProblem>& problems) {
  static constexpr const char* kKeys[] = {"clbs", "brams", "dsps"};
  std::uint32_t counts[3] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string* v = e.find_attr(kKeys[i]);
    if (!v) continue;
    try {
      counts[i] = parse_u32(*v);
    } catch (const ParseError&) {
      const std::string what =
          module ? "mode '" + attr_or_empty(e, "name") + "' of module '" +
                       *module + "'"
                 : "<static>";
      problems.push_back(
          {.code = "bad-attribute",
           .message = what + " has an invalid " + kKeys[i] + "=\"" + *v +
                      "\"",
           .fixit = "use an unsigned 32-bit resource count",
           .span = e.span()});
    }
  }
  return {counts[0], counts[1], counts[2]};
}

void write_resources(xml::Element& e, const ResourceVec& r) {
  e.set_attr("clbs", std::to_string(r.clbs));
  e.set_attr("brams", std::to_string(r.brams));
  e.set_attr("dsps", std::to_string(r.dsps));
}

/// The span of the element `problem` is about.
xml::Span span_of(const DesignSpans& spans, const DesignProblem& problem) {
  switch (problem.element) {
    case DesignProblem::Element::Design: return spans.root;
    case DesignProblem::Element::ConfigurationList:
      return spans.configuration_list;
    case DesignProblem::Element::Module: return spans.modules[problem.index];
    case DesignProblem::Element::Mode: return spans.modes[problem.index];
    case DesignProblem::Element::Configuration:
      return spans.configurations[problem.index];
  }
  return spans.root;
}

}  // namespace

DesignRead read_design(std::string_view text) {
  DesignRead out;
  std::vector<DesignProblem>& problems = out.problems;
  auto error = [&](std::string code, std::string message, std::string fixit,
                   xml::Span span) {
    problems.push_back({.code = std::move(code),
                        .message = std::move(message),
                        .fixit = std::move(fixit),
                        .span = span});
  };

  std::unique_ptr<xml::Element> root;
  try {
    root = xml::parse(text);
  } catch (const ParseError& e) {
    error("xml-error", e.what(), "", {e.line(), e.column()});
    return out;
  }
  if (root->name() != "design") {
    error("xml-error",
          "expected <design> root element, got <" + root->name() + ">", "",
          root->span());
    return out;
  }

  DesignSpans spans;
  spans.root = root->span();
  ResourceVec static_base;
  if (const xml::Element* s = root->find_child("static"))
    static_base = read_resources(*s, nullptr, problems);
  std::vector<Module> modules;
  for (const auto& m : root->children()) {
    if (m->name() != "module") continue;
    Module mod{attr_or_empty(*m, "name"), {}};
    spans.modules.push_back(m->span());
    for (const auto& k : m->children()) {
      if (k->name() != "mode") continue;
      mod.modes.push_back(Mode{attr_or_empty(*k, "name"),
                               read_resources(*k, &mod.name, problems)});
      spans.modes.push_back(k->span());
    }
    modules.push_back(std::move(mod));
  }

  const xml::Element no_list("configurations");
  const xml::Element* list = root->find_child("configurations");
  spans.configuration_list = list ? list->span() : root->span();
  std::vector<Configuration> configurations;
  // Configurations whose <use> elements broke a rule are not complete
  // module -> mode maps, so Design's findings about them are dropped.
  std::vector<std::size_t> broken;
  for (const auto& c : (list ? *list : no_list).children()) {
    if (c->name() != "configuration") continue;
    const std::string& name = attr_or_empty(*c, "name");
    Configuration conf{
        name.empty() ? "Conf" + std::to_string(configurations.size() + 1)
                     : name,
        std::vector<std::uint32_t>(modules.size(), 0)};
    spans.configurations.push_back(c->span());
    const std::size_t before = problems.size();
    for (const auto& use : c->children()) {
      if (use->name() != "use") continue;
      const std::string& module = attr_or_empty(*use, "module");
      const std::string& mode = attr_or_empty(*use, "mode");
      if (module.empty() || mode.empty())
        error("missing-attribute",
              "<use> in configuration '" + conf.name +
                  "' needs module=\"...\" and mode=\"...\"",
              "", use->span());
      else if (auto problem = choose_mode(modules, conf, module, mode)) {
        problem->span = use->span();
        problems.push_back(std::move(*problem));
      }
    }
    if (problems.size() != before) broken.push_back(configurations.size());
    configurations.push_back(std::move(conf));
  }

  const std::string* name = root->find_attr("name");
  try {
    Design design(name ? *name : "design", static_base, std::move(modules),
                  std::move(configurations));
    if (problems.empty()) {
      out.parsed = ParsedDesign{std::move(design), std::move(spans)};
      return out;
    }
  } catch (const DesignRuleError& e) {
    for (DesignProblem p : e.problems()) {
      if (p.element == DesignProblem::Element::Configuration &&
          std::binary_search(broken.begin(), broken.end(), p.index))
        continue;
      p.span = span_of(spans, p);
      problems.push_back(std::move(p));
    }
  }
  std::stable_sort(problems.begin(), problems.end(),
                   [](const DesignProblem& a, const DesignProblem& b) {
                     return std::pair(a.span.line, a.span.column) <
                            std::pair(b.span.line, b.span.column);
                   });
  return out;
}

Design design_from_xml(const std::string& text) {
  DesignRead read = read_design(text);
  if (!read.parsed) {
    const DesignProblem& first = read.problems.front();
    throw ParseError(first.message, first.span.line, first.span.column);
  }
  return std::move(read.parsed->design);
}

std::string design_to_xml(const Design& design) {
  xml::Element root("design");
  root.set_attr("name", design.name());

  if (!design.static_base().is_zero()) {
    xml::Element& s = root.add_child("static");
    write_resources(s, design.static_base());
  }

  for (const Module& m : design.modules()) {
    xml::Element& me = root.add_child("module");
    me.set_attr("name", m.name);
    for (const Mode& mode : m.modes) {
      xml::Element& ke = me.add_child("mode");
      ke.set_attr("name", mode.name);
      write_resources(ke, mode.area);
    }
  }

  xml::Element& configs = root.add_child("configurations");
  for (const Configuration& c : design.configurations()) {
    xml::Element& ce = configs.add_child("configuration");
    ce.set_attr("name", c.name);
    for (std::size_t m = 0; m < c.mode_of_module.size(); ++m) {
      if (c.mode_of_module[m] == 0) continue;
      xml::Element& use = ce.add_child("use");
      use.set_attr("module", design.modules()[m].name);
      use.set_attr("mode",
                   design.modules()[m].modes[c.mode_of_module[m] - 1].name);
    }
  }

  return "<?xml version=\"1.0\"?>\n" + root.to_string();
}

}  // namespace prpart
