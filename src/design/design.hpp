#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "device/resources.hpp"
#include "util/bitset.hpp"
#include "util/status.hpp"
#include "xml/xml.hpp"

namespace prpart {

/// One mode of a module: a mutually-exclusive implementation alternative
/// (e.g. the high-pass vs low-pass variants of a filter, §III-A).
struct Mode {
  std::string name;
  ResourceVec area;
};

/// A processing unit of the PR system with one or more modes. A module with
/// a single mode models the paper's "one-off" modules (§IV-D).
struct Module {
  std::string name;
  std::vector<Mode> modes;
};

/// Identifies a mode globally: module index + 1-based mode index.
/// Mode index 0 is reserved for "module absent" (the paper's mode 0).
struct ModeRef {
  std::uint32_t module = 0;
  std::uint32_t mode = 0;  // 1-based; 0 = absent

  constexpr bool operator==(const ModeRef&) const = default;
};

/// A valid operating configuration: one mode choice per module (0 = the
/// module is absent from this configuration).
struct Configuration {
  std::string name;
  std::vector<std::uint32_t> mode_of_module;  // size = number of modules
};

/// One broken input rule. `code` is the stable diagnostic code catalogued in
/// docs/diagnostics.md; `element` and `index` name the part of the design
/// the rule is about, and the XML reader sets `span` to that element's
/// position in the document (unknown for designs built in code).
struct DesignProblem {
  enum class Element { Design, ConfigurationList, Module, Mode, Configuration };

  std::string code;
  std::string message;
  std::string fixit;  ///< empty = none
  Element element = Element::Design;
  /// Module index, global mode column or configuration index.
  std::size_t index = 0;
  xml::Span span;
};

/// Thrown by Design's constructor: every rule the modules and
/// configurations break, in element order. what() is the first message.
class DesignRuleError : public DesignError {
 public:
  explicit DesignRuleError(std::vector<DesignProblem> problems)
      : DesignError(problems.front().message), problems_(std::move(problems)) {}

  const std::vector<DesignProblem>& problems() const { return problems_; }

 private:
  std::vector<DesignProblem> problems_;
};

/// Resolves one (module name, mode name) choice of `config` against
/// `modules` and records it in config.mode_of_module, which must hold one
/// entry per module. This is the one name lookup behind the XML reader's
/// <use> elements and DesignBuilder::configuration. On an unknown module or
/// mode, or a module the configuration already assigns, returns the broken
/// rule and leaves `config` unchanged.
std::optional<DesignProblem> choose_mode(const std::vector<Module>& modules,
                                         Configuration& config,
                                         std::string_view module,
                                         std::string_view mode);

/// A complete partial-reconfiguration design description: static logic,
/// modules with modes, and the set of valid configurations. This is the
/// designer-facing input of the proposed tool flow (Fig. 2).
///
/// The class also owns the global mode numbering used by the partitioner:
/// every (module, mode>=1) pair is assigned a dense column id, in module
/// then mode order; mode 0 gets no column (§IV-D).
class Design {
 public:
  /// Checks every input rule: at least one module and one configuration;
  /// module and mode names present and unique; no module without modes; no
  /// configuration without modules and no two alike; the static base plus
  /// every mode, each rounded up to whole tiles, within 32 bits per
  /// resource (which bounds every sum the engine forms). Throws
  /// DesignRuleError listing every broken rule, or DesignError when a
  /// configuration's mode_of_module does not fit the modules (a caller bug,
  /// never input).
  Design(std::string name, ResourceVec static_base, std::vector<Module> modules,
         std::vector<Configuration> configurations);

  const std::string& name() const { return name_; }
  /// Fixed static logic (ICAP controller, processor, ...) that is always on
  /// the fabric. Counted raw (not tile-rounded) against the budget.
  const ResourceVec& static_base() const { return static_base_; }
  const std::vector<Module>& modules() const { return modules_; }
  const std::vector<Configuration>& configurations() const {
    return configurations_;
  }

  /// Total number of global mode columns.
  std::size_t mode_count() const { return mode_area_.size(); }

  /// Dense column id of (module, 1-based mode).
  std::size_t global_mode_id(std::uint32_t module, std::uint32_t mode) const;
  /// Inverse of global_mode_id.
  ModeRef mode_ref(std::size_t global_id) const;
  const ResourceVec& mode_area(std::size_t global_id) const;
  /// Human-readable label, e.g. "Filter1" (the mode's own name).
  const std::string& mode_label(std::size_t global_id) const;

  /// Set of global mode ids used by configuration `c`.
  const DynBitset& config_modes(std::size_t c) const;
  /// Raw area of configuration `c` = element-wise sum of its modes.
  ResourceVec config_area(std::size_t c) const;

  /// Element-wise max over configurations of config_area: the raw size of a
  /// single region able to hold every configuration (the paper's minimum
  /// feasible implementation, §IV-C).
  ResourceVec largest_configuration_area() const;

  /// Element-wise sum of every mode of every module: the fully static
  /// implementation (Table IV row "Static").
  ResourceVec full_static_area() const;

  /// True when the mode appears in at least one configuration. Modes that
  /// never appear are dead: they get a column but no base partition.
  bool mode_used(std::size_t global_id) const;

 private:
  void check_rules() const;
  void index_modes();

  std::string name_;
  ResourceVec static_base_;
  std::vector<Module> modules_;
  std::vector<Configuration> configurations_;

  // Derived indexes.
  std::vector<std::size_t> module_first_column_;
  std::vector<ModeRef> column_to_ref_;
  std::vector<ResourceVec> mode_area_;
  std::vector<DynBitset> config_modes_;
};

}  // namespace prpart
